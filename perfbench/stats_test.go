package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the functions must sort
	}
	return xs
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n         int
		value     float64
		pct       float64
		ok        bool
		wantNaN   bool
		wantValue bool
	}{
		{n: 0, wantNaN: true},
		{n: 10, value: 10, pct: 100, ok: false, wantValue: true},
		{n: 11, value: 1, pct: 100.0 / 11, ok: true, wantValue: true},
		{n: 100, value: 90, pct: 90, ok: true, wantValue: true},
		{n: 2000, value: 1990, pct: 99.5, ok: true, wantValue: true},
	} {
		v, pct, ok := tail(seq(tc.n))
		if tc.wantNaN {
			if !math.IsNaN(v) || ok {
				t.Errorf("n=%d: got %v ok=%v, want NaN", tc.n, v, ok)
			}
			continue
		}
		if v != tc.value || math.Abs(pct-tc.pct) > 1e-9 || ok != tc.ok {
			t.Errorf("n=%d: got (%v, p%v, %v), want (%v, p%v, %v)", tc.n, v, pct, ok, tc.value, tc.pct, tc.ok)
		}
		if ok {
			beyond := 0
			for _, x := range seq(tc.n) {
				if x > v {
					beyond++
				}
			}
			if beyond != tailBeyond {
				t.Errorf("n=%d: %d samples beyond the tail, want %d", tc.n, beyond, tailBeyond)
			}
		}
	}
}

// The quartiles must match Python's statistics.quantiles(xs, n=4), which is
// how the spread of a set of runs is judged.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},                // quantiles(range(1, 11), n=4)
		{seq(5), 1.5, 4.5},                   // quantiles(range(1, 6), n=4)
		{[]float64{3, 1}, 0.5, 3.5},          // extrapolates past the data
		{[]float64{7, 1, 4, 9, 2}, 1.5, 8.0}, // unsorted input
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if m := median(seq(10)); m != 5.5 {
		t.Errorf("median = %v, want 5.5", m)
	}
}

func TestMemPeakCoversFixedWork(t *testing.T) {
	m := &memSampler{samples: []memSample{{10, 1 << 20}, {20, 5 << 20}, {30, 2 << 20}, {40, 9 << 20}}}
	done := []time.Duration{35, 15, 25, 45}
	if peak, n := m.peakMB(done, 3); peak != 5 || n != 3 {
		t.Errorf("first 3 answers: peak %v MB over %d, want 5 over 3", peak, n)
	}
	if peak, n := m.peakMB(done, 10); peak != 9 || n != 4 {
		t.Errorf("too few answers: peak %v MB over %d, want 9 over 4", peak, n)
	}
}

func TestLowestKeepsTheCalmestWindows(t *testing.T) {
	xs := []float64{3.1, 1.2, 9.5, 1.2, 2.0}
	if got := lowest(xs, 3); !reflect.DeepEqual(got, []int{1, 3, 4}) {
		t.Errorf("lowest 3 of %v = %v, want [1 3 4]", xs, got)
	}
	if got := lowest(xs, 1); !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("lowest 1 of %v = %v, want [1]", xs, got)
	}
}
