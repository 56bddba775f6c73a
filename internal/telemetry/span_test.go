package telemetry

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestSpanBasics: a root with two sequential children produces a tree whose
// self times sum to the root duration.
func TestSpanBasics(t *testing.T) {
	tr := NewTracer(64)
	root := tr.StartSpan(LevelRun, "r1", 0, "service", "optimize")
	if !root.Recording() || root.ID() == 0 {
		t.Fatal("root span not recording")
	}
	c1 := tr.StartSpan(LevelRun, "r1", root.ID(), "pf", "expand")
	time.Sleep(2 * time.Millisecond)
	c1.End("", nil)
	c2 := tr.StartSpan(LevelRun, "r1", root.ID(), "mogd", "solve")
	time.Sleep(2 * time.Millisecond)
	c2.End("converged", map[string]float64{"iters": 3})
	time.Sleep(time.Millisecond)
	root.End("", nil)

	events := tr.Events("r1")
	if len(events) != 3 {
		t.Fatalf("events = %d, want 3", len(events))
	}
	rows, total := PhaseBreakdown(events, root.ID())
	if total <= 0 {
		t.Fatalf("total = %v", total)
	}
	var sum time.Duration
	byPhase := map[string]PhaseTime{}
	for _, r := range rows {
		sum += r.Self
		byPhase[r.Phase] = r
	}
	if d := sum - total; d < -time.Millisecond || d > time.Millisecond {
		t.Fatalf("self sum %v vs total %v", sum, total)
	}
	if byPhase["pf"].Self < time.Millisecond || byPhase["mogd"].Self < time.Millisecond {
		t.Fatalf("child self times: %+v", byPhase)
	}
	if byPhase["service"].Total < byPhase["service"].Self {
		t.Fatalf("service total < self: %+v", byPhase["service"])
	}
}

// TestSpanDisabled: an off tracer yields inert spans end to end.
func TestSpanDisabled(t *testing.T) {
	tr := NewTracer(8)
	tr.SetLevel(LevelOff)
	sp := tr.StartSpan(LevelRun, "r", 0, "s", "n")
	if sp.Recording() || sp.ID() != 0 {
		t.Fatal("span recording on an off tracer")
	}
	sp.End("", nil) // must be a no-op
	if got := len(tr.Events("")); got != 0 {
		t.Fatalf("events = %d, want 0", got)
	}
	var nilTracer *Tracer
	nsp := nilTracer.StartSpan(LevelRun, "r", 0, "s", "n")
	nsp.End("", nil)

	// Verbose spans are gated below the verbose level too.
	tr2 := NewTracer(8)
	vsp := tr2.StartSpan(LevelVerbose, "r", 0, "s", "n")
	if vsp.Recording() {
		t.Fatal("verbose span recorded at LevelRun")
	}
}

// TestSpanConcurrentTrees: many goroutines build span trees concurrently in
// one tracer (the shape of concurrent /optimize calls). Every tree must come
// back well-formed and non-interleaved: all parents resolvable within the
// same run, child IDs greater than parent IDs, and the per-run breakdown
// summing to the per-run root duration. Run under -race.
func TestSpanConcurrentTrees(t *testing.T) {
	tr := NewTracer(8192)
	const goroutines, children = 16, 20
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			run := fmt.Sprintf("run-%d", g)
			root := tr.StartSpan(LevelRun, run, 0, "service", "optimize")
			for c := 0; c < children; c++ {
				child := tr.StartSpan(LevelRun, run, root.ID(), "mogd", "solve")
				leaf := tr.StartSpan(LevelRun, run, child.ID(), "eval", "batch")
				leaf.End("", nil)
				child.End("", nil)
			}
			root.End("", nil)
		}(g)
	}
	wg.Wait()

	for g := 0; g < goroutines; g++ {
		run := fmt.Sprintf("run-%d", g)
		events := tr.Events(run)
		if len(events) != 2*children+1 {
			t.Fatalf("%s: events = %d, want %d", run, len(events), 2*children+1)
		}
		ids := map[uint64]uint64{} // span -> parent
		var rootID uint64
		for _, e := range events {
			if e.Span == 0 {
				t.Fatalf("%s: event without span ID: %+v", run, e)
			}
			ids[e.Span] = e.Parent
			if e.Parent == 0 {
				rootID = e.Span
			}
		}
		if rootID == 0 {
			t.Fatalf("%s: no root span", run)
		}
		for span, parent := range ids {
			if parent == 0 {
				continue
			}
			if _, ok := ids[parent]; !ok {
				t.Fatalf("%s: span %d has foreign parent %d", run, span, parent)
			}
			if span <= parent {
				t.Fatalf("%s: span %d not greater than parent %d", run, span, parent)
			}
		}
		rows, total := PhaseBreakdown(events, rootID)
		var sum time.Duration
		for _, r := range rows {
			sum += r.Self
		}
		if total <= 0 || sum <= 0 {
			t.Fatalf("%s: degenerate breakdown total=%v sum=%v", run, total, sum)
		}
		if diff := sum - total; diff < -total/10 || diff > total/10 {
			t.Fatalf("%s: self sum %v vs total %v", run, sum, total)
		}
	}
}

// TestPhaseBreakdownSubtree: with a reused run ID (cached optimizer), passing
// the root span ID isolates one request's subtree.
func TestPhaseBreakdownSubtree(t *testing.T) {
	tr := NewTracer(64)
	// Request 1.
	r1 := tr.StartSpan(LevelRun, "opt-1", 0, "service", "optimize")
	c1 := tr.StartSpan(LevelRun, "opt-1", r1.ID(), "pf", "expand")
	c1.End("", nil)
	r1.End("", nil)
	// Request 2, same run ID.
	r2 := tr.StartSpan(LevelRun, "opt-1", 0, "service", "optimize")
	c2 := tr.StartSpan(LevelRun, "opt-1", r2.ID(), "mogd", "solve")
	c2.End("", nil)
	r2.End("", nil)

	events := tr.Events("opt-1")
	rows, _ := PhaseBreakdown(events, r2.ID())
	for _, r := range rows {
		if r.Phase == "pf" {
			t.Fatalf("request-1 phase leaked into request-2 subtree: %+v", rows)
		}
	}
	var sawMOGD bool
	for _, r := range rows {
		if r.Phase == "mogd" {
			sawMOGD = true
		}
	}
	if !sawMOGD {
		t.Fatalf("mogd phase missing from subtree: %+v", rows)
	}

	// root == 0 aggregates both requests.
	all, total := PhaseBreakdown(events, 0)
	if len(all) != 3 {
		t.Fatalf("full aggregation rows = %d, want 3 (%+v)", len(all), all)
	}
	if total <= 0 {
		t.Fatalf("total = %v", total)
	}
}

// TestSpanParallelChildrenCoverage: overlapping children (parallel solves)
// must not drive the parent's self time negative or double-count.
func TestSpanParallelChildrenCoverage(t *testing.T) {
	base := time.Unix(1700000000, 0)
	mk := func(span, parent uint64, scope string, start, end time.Duration) Event {
		return Event{Span: span, Parent: parent, Scope: scope,
			Time: base.Add(end), Dur: end - start}
	}
	events := []Event{
		mk(1, 0, "service", 0, 100*time.Millisecond),
		// Two fully overlapping children: coverage is 40ms, not 80ms.
		mk(2, 1, "mogd", 10*time.Millisecond, 50*time.Millisecond),
		mk(3, 1, "mogd", 10*time.Millisecond, 50*time.Millisecond),
	}
	rows, total := PhaseBreakdown(events, 1)
	if total != 100*time.Millisecond {
		t.Fatalf("total = %v", total)
	}
	byPhase := map[string]PhaseTime{}
	for _, r := range rows {
		byPhase[r.Phase] = r
	}
	if got := byPhase["service"].Self; got != 60*time.Millisecond {
		t.Fatalf("service self = %v, want 60ms", got)
	}
	if got := byPhase["mogd"].Total; got != 80*time.Millisecond {
		t.Fatalf("mogd total = %v, want 80ms", got)
	}
}

// TestPhaseBreakdownParallelSiblings: overlapping sibling spans share the
// instants they overlap, so the self column sums to the root's duration
// instead of counting parallel work once per sibling. Times are in ms.
//
//	service 0-100
//	  pf 10-90
//	    mogd 20-60
//	      eval 30-50
//	    mogd 40-80
//	      eval 70-85 (skewed past its parent: clipped to 70-80)
func TestPhaseBreakdownParallelSiblings(t *testing.T) {
	base := time.Unix(1700000000, 0)
	ms := time.Millisecond
	mk := func(span, parent uint64, scope string, start, end time.Duration) Event {
		return Event{Span: span, Parent: parent, Scope: scope,
			Time: base.Add(end * ms), Dur: (end - start) * ms}
	}
	events := []Event{
		mk(1, 0, "service", 0, 100),
		mk(2, 1, "pf", 10, 90),
		mk(3, 2, "mogd", 20, 60),
		mk(4, 3, "eval", 30, 50),
		mk(5, 2, "mogd", 40, 80),
		mk(6, 5, "eval", 70, 85),
	}
	for _, root := range []uint64{1, 0} {
		rows, total := PhaseBreakdown(events, root)
		if total != 100*ms {
			t.Fatalf("root %d: total = %v, want 100ms", root, total)
		}
		got := map[string][2]time.Duration{}
		var sum time.Duration
		for _, r := range rows {
			got[r.Phase] = [2]time.Duration{r.Self, r.Total}
			sum += r.Self
		}
		// 30-40 eval alone; 40-50 eval and the second mogd split; 50-70
		// both mogds; 70-80 the second eval alone.
		want := map[string][2]time.Duration{
			"service": {20 * ms, 100 * ms},
			"pf":      {20 * ms, 80 * ms},
			"mogd":    {35 * ms, 80 * ms},
			"eval":    {25 * ms, 35 * ms},
		}
		for ph, w := range want {
			if got[ph] != w {
				t.Errorf("root %d: %s self/total = %v, want %v", root, ph, got[ph], w)
			}
		}
		if sum != total {
			t.Fatalf("root %d: self sum %v != total %v", root, sum, total)
		}
	}

	// Two concurrent trees aggregated with root == 0 are swept separately:
	// the self column sums to the summed root durations.
	events = append(events, mk(7, 0, "service", 50, 110), mk(8, 7, "mogd", 50, 110))
	rows, total := PhaseBreakdown(events, 0)
	var sum time.Duration
	for _, r := range rows {
		sum += r.Self
	}
	if total != 160*ms || sum != total {
		t.Fatalf("two trees: self sum %v, total %v, want 160ms each", sum, total)
	}
}

// TestSpanZeroAlloc: the enabled-span fast path (no attrs, ring only) must
// not allocate — the contract that lets spans sit on the solver hot path.
func TestSpanZeroAlloc(t *testing.T) {
	tr := NewTracer(1024)
	allocs := testing.AllocsPerRun(200, func() {
		sp := tr.StartSpan(LevelRun, "run-z", 0, "mogd", "solve")
		sp.End("", nil)
	})
	if allocs != 0 {
		t.Fatalf("span start/end allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkSpanStartEnd measures the enabled-span hot path (tracked in
// BENCH_solver.json: must stay 0 allocs/op).
func BenchmarkSpanStartEnd(b *testing.B) {
	tr := NewTracer(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := tr.StartSpan(LevelRun, "run-b", 0, "mogd", "solve")
		sp.End("", nil)
	}
}

// BenchmarkSpanStartEndOff measures the disabled path — the cost every
// instrumented region pays when tracing is off (one atomic load).
func BenchmarkSpanStartEndOff(b *testing.B) {
	tr := NewTracer(16)
	tr.SetLevel(LevelOff)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := tr.StartSpan(LevelRun, "run-b", 0, "mogd", "solve")
		sp.End("", nil)
	}
}
