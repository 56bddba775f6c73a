package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// memSampler samples the live heap, the bytes still reachable at the end of
// a garbage collection, every memEvery while a measurement runs. Unlike
// resident memory it leaves out garbage awaiting collection, whose amount
// depends on when collections happen to run. A collection before the
// measurement starts drops the set-up's garbage.
type memSampler struct {
	now     func() time.Duration
	stop    chan struct{}
	wg      sync.WaitGroup
	samples []memSample
}

type memSample struct {
	at   time.Duration
	live uint64
}

const memEvery = 5 * time.Millisecond

// memRequests is the fixed amount of work the memory figure covers: the
// service keeps every answered request's run record and cached optimizer,
// so over a fixed time a faster program would hold more and look worse.
var memRequests = map[string]int{"hit": 1500, "cold": 20, "first-touch": 30}

// startMemSampler starts sampling; now is the clock the requests' times
// are read on.
func startMemSampler(now func() time.Duration) *memSampler {
	runtime.GC()
	m := &memSampler{now: now, stop: make(chan struct{})}
	m.sample()
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		tick := time.NewTicker(memEvery)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-tick.C:
				m.sample()
			}
		}
	}()
	return m
}

func (m *memSampler) sample() {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	m.samples = append(m.samples, memSample{at: m.now(), live: s[0].Value.Uint64()})
}

// stopSampling ends the sampling.
func (m *memSampler) stopSampling() {
	close(m.stop)
	m.wg.Wait()
	m.sample()
}

// peakMB returns the peak live heap in MiB until the n-th of the given
// answer times, or over the whole measurement when there are fewer; covered
// is how many answers the figure covers.
func (m *memSampler) peakMB(done []time.Duration, n int) (peak float64, covered int) {
	sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
	until := time.Duration(1<<63 - 1)
	covered = len(done)
	if n <= len(done) && n > 0 {
		until, covered = done[n-1], n
	}
	var top uint64
	for _, s := range m.samples {
		if s.at <= until {
			top = max(top, s.live)
		}
	}
	return float64(top) / (1 << 20), covered
}
