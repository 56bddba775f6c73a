package main

import (
	"math"
	"sort"
	"time"
)

// tailBeyond is how many samples must lie beyond the reported tail
// percentile: fewer than that and the percentile is a single outlier.
const tailBeyond = 10

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the middle value, the mean of the two middle values for an even
// count, and NaN for no values.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tail is the highest percentile of xs that still has tailBeyond samples
// beyond it: the (n-tailBeyond)-th smallest value, at percentile
// 100*(n-tailBeyond)/n. With too few samples for any such percentile, ok is
// false and value is the largest sample (NaN for none).
func tail(xs []float64) (value, pct float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), 0, false
	}
	s := sorted(xs)
	if n <= tailBeyond {
		return s[n-1], 100, false
	}
	return s[n-tailBeyond-1], 100 * float64(n-tailBeyond) / float64(n), true
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method), so
// spreads printed here match those computed in Python from the same runs.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return math.NaN(), math.NaN()
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}
