package main

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
	"repro/internal/serving"
	"repro/internal/telemetry"
)

// tracedHitMax bounds how many hit requests the traced run replays: enough
// for steady per-layer means, few enough to keep the run short.
const tracedHitMax = 1000

// traced replays the measured requests through the traced stack, checks its
// answers against the measured ones, writes the spans to spansPath and
// returns the per-layer metrics.
func (r *runner) traced(m *measurement, spansPath string) (map[string]metric, error) {
	// The hit run replays up to tracedHitMax requests through one stack,
	// warmed like the service. The other workloads replay round by round,
	// each round through a stack of its own, as the measurement ran them:
	// an empty cache, and on first-touch a fresh model server.
	src := m.rounds
	if r.workload == "hit" {
		src = [][]*outcome{m.outcomes}
	}
	rounds := make([][]*outcome, len(src))
	n := 0
	for i, w := range src {
		var sel []*outcome
		for _, o := range w {
			if m.valid[o.req.Index] && (r.workload != "hit" || n < tracedHitMax) {
				sel = append(sel, o)
				n++
			}
		}
		rounds[i] = sel
	}
	if n == 0 {
		return nil, fmt.Errorf("no valid measured request to replay")
	}
	stack := func() *tracedStack {
		ms := r.env.svc.Server
		if r.workload == "first-touch" {
			ms = r.env.newModelServer()
		}
		return newTracedStack(r.env, ms)
	}
	t := stack()
	if r.workload == "hit" {
		scratch := newSpanLog()
		for _, k := range hitKeys() {
			if _, err := t.optimize(scratch.request(-1), k); err != nil {
				return nil, fmt.Errorf("warming the traced stack: %w", err)
			}
		}
	}

	log := newSpanLog()
	var mu sync.Mutex
	var problems []string
	frontier := 0
	// pairs holds each replayed request's traced and untraced wall time.
	var pairs [][2]time.Duration
	note := func(format string, args ...any) {
		mu.Lock()
		problems = append(problems, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	// Phase A: every request through the traced stack at the measured
	// concurrency. The per-layer figures and counts come from this phase.
	sb := r.env.tel.Metrics.Snapshot()
	var cs serving.Stats
	replay := func(o *outcome) {
		rs := log.request(o.req.Index)
		resp, err := t.optimize(rs, o.req.Body)
		if cerr := rs.commit(); cerr != nil {
			note("%v", cerr)
		}
		if err != nil {
			note("request %d: %v", o.req.Index, err)
			return
		}
		if msg := checkResponse(r.env.spc, o.req, 200, resp); msg != "" {
			note("request %d: traced answer: %s", o.req.Index, msg)
		}
		if got := recommendationOf(resp); !bytes.Equal(got, m.recs[o.req.Index]) {
			note("request %d: traced recommendation %s differs from measured %s", o.req.Index, got, m.recs[o.req.Index])
		}
		mu.Lock()
		frontier += resp.FrontierPoints
		if r.workload != "hit" {
			// Against the measured closed-loop latency, at the same
			// concurrency. Hit latency includes open-loop queueing; hit
			// pairs come from phase B.
			pairs = append(pairs, [2]time.Duration{rs.spans[0].dur(), o.latency()})
		}
		mu.Unlock()
		if o.observed {
			obs := log.request(o.req.Index)
			if err := t.observe(obs, o.req, resp); err != nil {
				note("request %d: observe: %v", o.req.Index, err)
			}
			if cerr := obs.commit(); cerr != nil {
				note("%v", cerr)
			}
		}
	}
	for i, sel := range rounds {
		if i > 0 {
			t = stack()
		}
		before := t.cache.Stats()
		r.each(sel, replay)
		after := t.cache.Stats()
		cs.Requests += after.Requests - before.Requests
		cs.Hits += after.Hits - before.Hits
		cs.Misses += after.Misses - before.Misses
		cs.Expands += after.Expands - before.Expands
		cs.Coalesced += after.Coalesced - before.Coalesced
		cs.Shed += after.Shed - before.Shed
	}
	sa := r.env.tel.Metrics.Snapshot()

	// Phase B, hit only. The HTTP layer's cost is the round trip minus
	// Service.Optimize for the same request, and tracing's cost the traced
	// call minus Service.Optimize; all three are hits, made one after another
	// in an order that rotates per request, and each figure is the median of
	// the per-request differences, so that the requests' own costs and the
	// other client's activity cancel. The traced calls of this phase go to a
	// log of their own, outside the per-layer figures.
	var httpDiffs []float64
	if r.workload == "hit" {
		replay := newSpanLog()
		r.each(rounds[0], func(o *outcome) {
			direct, overHTTP := log.request(o.req.Index), log.request(o.req.Index)
			traced := replay.request(o.req.Index)
			var errs [3]error
			status := 0
			calls := []func(){
				func() {
					h := direct.begin("service.optimize", -1)
					_, errs[0] = r.env.svc.Optimize(o.req.Body)
					direct.end(h)
				},
				func() {
					h := overHTTP.begin("service.http", -1)
					var resp service.OptimizeResponse
					status, errs[1] = r.cl.post("/optimize", o.req.Body, &resp)
					overHTTP.end(h)
				},
				func() { _, errs[2] = t.optimize(traced, o.req.Body) },
			}
			for k := range calls {
				calls[(o.req.Index+k)%len(calls)]()
			}
			if errs[0] != nil || errs[1] != nil || errs[2] != nil || status != 200 {
				note("request %d: replay failed: %v, status %d", o.req.Index, errs, status)
				return
			}
			for _, rs := range []*reqSpans{direct, overHTTP} {
				if cerr := rs.commit(); cerr != nil {
					note("%v", cerr)
				}
			}
			d := direct.spans[0].dur()
			mu.Lock()
			httpDiffs = append(httpDiffs, msOf(overHTTP.spans[0].dur()-d))
			pairs = append(pairs, [2]time.Duration{traced.spans[0].dur(), d})
			mu.Unlock()
		})
	}
	for _, p := range problems {
		r.fail("%s", p)
	}
	if err := log.write(spansPath); err != nil {
		return nil, err
	}
	r.printf("traced run: %d requests, %d spans written to %s\n", n, len(log.spans), spansPath)

	// Per-request means of each layer's self time.
	var nReq, nObs int
	self := map[string]time.Duration{}
	var wall time.Duration
	for _, s := range log.summaries {
		switch s.Root {
		case "request":
			nReq++
			wall += s.Wall
			for k, v := range s.Self {
				self[k] += v
			}
		case "observe":
			nObs++
			self["calib.observe"] += s.Self["calib.observe"]
		}
	}
	perReq := func(d time.Duration, n int) float64 { return msOf(d) / float64(max(n, 1)) }
	count := func(name string) float64 { return float64(counterDelta(sb, sa, name)) / float64(max(nReq, 1)) }
	ratio := func(a, b uint64) float64 {
		if a+b == 0 {
			return 0
		}
		return float64(a) / float64(a+b)
	}
	out := map[string]metric{}
	add := func(name string, v float64, unit, note string) { r.report(out, name, v, unit, note) }

	httpMs := 0.0
	if len(httpDiffs) > 0 {
		httpMs = median(httpDiffs)
	}
	add("service.http_ms", httpMs, "ms", "median of HTTP round trip minus Service.Optimize, hit only")
	add("serving.wait_ms", perReq(self["serving.acquire"], nReq), "ms", "in Acquire outside the callbacks")
	add("serving.hit_ratio", float64(cs.Hits)/float64(max(cs.Requests, 1)), "ratio", fmt.Sprintf("of %d requests", cs.Requests))
	add("serving.solves", float64(cs.Misses+cs.Expands), "count", "")
	add("serving.coalesced", float64(cs.Coalesced), "count", "")
	add("serving.shed", float64(cs.Shed), "count", "")

	trainH := sa.Histograms[telemetry.MetricModelTrainTime].Sum - sb.Histograms[telemetry.MetricModelTrainTime].Sum
	trainMs := 1000 * trainH / float64(max(nReq, 1))
	trainings := counterDelta(sb, sa, telemetry.MetricModelTrainings)
	add("modelserver.train_ms", trainMs, "ms", "udao_model_train_seconds per request")
	add("modelserver.wait_ms", perReq(self["modelserver.model"], nReq)-trainMs, "ms", "Model call time minus training")
	add("modelserver.trainings", float64(trainings), "count", "")
	add("udao.build_ms", perReq(self["udao.new_optimizer"], nReq), "ms", "NewOptimizer / NewPipelineOptimizer")

	evals := counterDelta(sb, sa, telemetry.MetricModelEvals)
	expand := self["core.expand"]
	usPerEval := 0.0
	if evals > 0 {
		usPerEval = float64(expand) / float64(time.Microsecond) / float64(evals)
	}
	add("core.expand_ms", perReq(expand, nReq), "ms", "")
	add("core.probes", count(telemetry.MetricPFProbes), "count/req", "")
	add("core.frontier_points", float64(frontier)/float64(max(nReq, 1)), "count/req", "")
	add("core.us_per_eval", usPerEval, "us", "expand time per model evaluation")
	add("problem.evals", count(telemetry.MetricModelEvals), "count/req", "")
	add("problem.memo_hit_ratio", ratio(counterDelta(sb, sa, telemetry.MetricMemoHits), counterDelta(sb, sa, telemetry.MetricMemoMisses)), "ratio", "")
	add("mogd.solves", count(telemetry.MetricMOGDSolves), "count/req", "")
	add("mogd.iterations", count(telemetry.MetricMOGDIterations), "count/req", "")
	add("mogd.subcache_hit_ratio", ratio(counterDelta(sb, sa, telemetry.MetricMOGDCacheHit), counterDelta(sb, sa, telemetry.MetricMOGDCacheMiss)), "ratio", "")
	add("mogd.near_hits", count(telemetry.MetricMOGDCacheNear), "count/req", "")
	add("mogd.infeasible", count(telemetry.MetricMOGDInfeasible), "count/req", "")
	add("recommend.ms", perReq(self["recommend"], nReq), "ms", "")
	add("udao.frontier_ms", perReq(self["udao.frontier"], nReq), "ms", "ParetoFrontier after Acquire")
	add("udao.uncertain_ms", perReq(self["udao.uncertain_space"], nReq), "ms", "UncertainSpace")
	add("udao.predicted_std_ms", perReq(self["udao.predicted_std"], nReq), "ms", "PredictedStd")
	add("runlog.append_ms", perReq(self["runlog.append"], nReq), "ms", "")
	add("calib.observe_ms", perReq(self["calib.observe"], nObs), "ms", fmt.Sprintf("per observe, n=%d", nObs))
	other := self["request"] + self["serving.build"] + self["serving.solve"]
	add("request.other_ms", perReq(other, nReq), "ms", "wall minus the layers' self times")
	add("request.wall_ms", perReq(wall, nReq), "ms", fmt.Sprintf("traced, n=%d", nReq))

	var overheads, untraced []float64
	for _, p := range pairs {
		overheads = append(overheads, msOf(p[0]-p[1]))
		untraced = append(untraced, msOf(p[1]))
	}
	add("trace.overhead_pct", 100*median(overheads)/median(untraced), "%", fmt.Sprintf("median traced minus untraced over median untraced, n=%d", len(pairs)))
	lag, backlog := m.genValidity()
	add("gen.lag_p99_ms", lag, "ms", "open loop only")
	add("gen.backlog_max", float64(backlog), "count", "open loop only")

	want := 0.0
	if r.workload == "hit" {
		want = 1
	}
	if out["serving.hit_ratio"].Value != want {
		r.fail("traced serving.hit_ratio %v, want %v", out["serving.hit_ratio"].Value, want)
	}
	if r.workload != "first-touch" && trainings != 0 {
		r.fail("traced run trained %d models on %s, want 0", trainings, r.workload)
	}
	return out, nil
}

// each runs f over the outcomes in order with nproc concurrent callers.
func (r *runner) each(sel []*outcome, f func(o *outcome)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < r.conns; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sel) {
					return
				}
				f(sel[i])
			}
		}()
	}
	wg.Wait()
}
