package main

import (
	"cmp"
	"fmt"
	"net/http"
	"slices"
	"time"

	"repro/internal/telemetry"
)

// Hit-path limits: a fixed-rate step holds when its tail latency stays within
// hitTailLimit and the backlog of due, unsent requests never exceeds
// hitBacklogLimit (it does not grow).
const (
	hitTailLimit    = 50 * time.Millisecond
	hitBacklogLimit = 16
	// A hit run repeats cycles of hitCycle, and its figures are medians over
	// the calmest quarter of them, ranked by their latency median. On a
	// shared host the speed the benchmark gets swings by up to half from one
	// second to the next and inflates millisecond latencies in the cycles it
	// hits; the calmest cycles are the ones such swings move least.
	// openShare of a cycle is the fixed-rate ladder; the rest measures
	// saturation throughput with nproc closed-loop connections.
	hitCycle  = 2500 * time.Millisecond
	openShare = 0.8
	// satBase and satStride place each cycle's saturation requests in their
	// own stretch of the hit deck, so the ladder's requests are the same in
	// every run of a seed however many the saturation phases answer.
	satBase   = 1 << 30
	satStride = 1 << 24
	// stepGrace is how long after a step's last due time its unsent
	// requests are given up as missed.
	stepGrace = time.Second
)

// measurement is the untraced run of one workload.
type measurement struct {
	outcomes []*outcome
	// windows are the outcomes the latency figures cover: one window per
	// kept hit cycle, each figure the median of its per-window values; one
	// window, the kept rounds, otherwise.
	windows [][]*outcome
	// rounds are the outcomes of each round of a cold or first-touch run.
	rounds     [][]*outcome
	steps      []stepResult
	throughput float64
	missed     int
	attempted  int
	failed     int
	recs       map[int][]byte
	valid      map[int]bool
	// Serving-cache and model-server counts over the measurement.
	servingRequests, servingHits, trainings uint64
	memPeakMB                               float64
	memCovered                              int
}

func (r *runner) measure() *measurement {
	m := &measurement{recs: map[int][]byte{}, valid: map[int]bool{}}
	tb := r.env.tel.Metrics.Snapshot()
	mem := startMemSampler(r.cl.now)
	if r.workload == "hit" {
		sb := r.env.svc.ServingStats()
		r.measureHit(m)
		sa := r.env.svc.ServingStats()
		m.servingRequests, m.servingHits = sa.Requests-sb.Requests, sa.Hits-sb.Hits
	} else {
		r.measureRounds(m)
	}
	m.trainings = counterDelta(tb, r.env.tel.Metrics.Snapshot(), telemetry.MetricModelTrainings)
	mem.stopSampling()
	var done []time.Duration
	for _, o := range m.outcomes {
		if o.err == nil && o.status == http.StatusOK {
			done = append(done, o.done)
		}
	}
	m.memPeakMB, m.memCovered = mem.peakMB(done, memRequests[r.workload])

	firstBad := ""
	for _, o := range m.outcomes {
		m.attempted++
		msg := ""
		if o.err != nil {
			msg = o.err.Error()
		} else {
			msg = checkResponse(r.env.spc, o.req, o.status, o.resp)
		}
		if msg == "" && o.observed && o.observeStatus != http.StatusOK {
			msg = fmt.Sprintf("observe status %d", o.observeStatus)
		}
		if o.observed {
			m.attempted++
		}
		if msg != "" {
			m.failed++
			if firstBad == "" {
				firstBad = fmt.Sprintf("request %d (%s): %s", o.req.Index, o.req.Body.Workload, msg)
			}
			continue
		}
		m.valid[o.req.Index] = true
		m.recs[o.req.Index] = recommendationOf(o.resp)
	}
	m.attempted += m.missed
	m.failed += m.missed
	if firstBad != "" {
		r.fail("%d of %d responses failed their checks; first: %s", m.failed-m.missed, len(m.outcomes), firstBad)
	}
	if m.missed > 0 {
		r.printf("note: %d scheduled requests were never sent\n", m.missed)
	}

	// Counts that must read a fixed value on this workload: every hit answer
	// comes from the cache, every cold or first-touch answer is solved, and
	// only first-touch trains models.
	want := 0.0
	if r.workload == "hit" {
		want = 1
	}
	if ratio := float64(m.servingHits) / float64(max(m.servingRequests, 1)); ratio != want {
		r.fail("serving hit ratio %.4f over %d requests, want %v", ratio, m.servingRequests, want)
	}
	if r.workload != "first-touch" && m.trainings != 0 {
		r.fail("%d model trainings during a %s run, want 0", m.trainings, r.workload)
	}
	return m
}

// throughput is answered requests per second from the first send to the
// last answer.
func throughput(out []*outcome) float64 {
	if len(out) == 0 {
		return 0
	}
	return float64(len(out)) / elapsed(out).Seconds()
}

// elapsed is the time from the first send to the last answer of out, which
// must not be empty.
func elapsed(out []*outcome) time.Duration {
	first, last := out[0].sent, out[0].done
	for _, o := range out {
		first, last = min(first, o.sent), max(last, o.done)
	}
	return last - first
}

// lowest returns the indices of the k lowest of xs, lowest first.
func lowest(xs []float64, k int) []int {
	order := make([]int, len(xs))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(xs[a], xs[b]) })
	return order[:k]
}

// measureRounds runs rounds of the workload's keys until r.dur has passed,
// nproc clients in a closed loop. Each round runs on a fresh service, whose
// serving cache is empty, so that every request is a solve; on first-touch
// the service also gets a fresh model server, so that every request trains
// its workload's models. Every round is thus the same work, and a round
// under way when the time is up is finished.
//
// The figures cover the faster half of the rounds: the speed the benchmark
// gets from a shared host swings by up to half for seconds at a time, and
// the rounds it slows are the ones left out.
func (r *runner) measureRounds(m *measurement) {
	keys := coldKeys()
	if r.workload == "first-touch" {
		keys = firstTouchKeys()
	}
	stop := r.cl.now() + r.dur
	for round := 0; round == 0 || r.cl.now() < stop; round++ {
		r.env.renew(r.workload == "first-touch")
		base := round * len(keys)
		out := r.cl.closedLoop(func(i int) (request, bool) {
			if i >= len(keys) {
				return request{}, false
			}
			return roundRequest(keys, r.seed, base+i), true
		}, r.conns, 0)
		st := r.env.svc.ServingStats()
		m.servingRequests += st.Requests
		m.servingHits += st.Hits
		m.outcomes = append(m.outcomes, out...)
		m.rounds = append(m.rounds, out)
	}
	walls := make([]float64, len(m.rounds))
	for i, out := range m.rounds {
		walls[i] = elapsed(out).Seconds()
	}
	faster := lowest(walls, (len(walls)+1)/2)
	var kept []*outcome
	wall := 0.0
	for _, i := range faster {
		kept = append(kept, m.rounds[i]...)
		wall += walls[i]
	}
	m.windows = [][]*outcome{kept}
	m.throughput = float64(len(kept)) / wall
	r.printf("rounds: %d of %d requests each, the faster %d cover the figures; wall s per round: %.2f\n", len(m.rounds), len(keys), len(faster), walls)
}

// measureHit runs cycles of the fixed-rate ladder, each followed by a
// closed-loop saturation phase, for r.dur.
func (r *runner) measureHit(m *measurement) {
	deck := func(i int) request { return hitRequest(r.seed, i) }
	cycles := max(1, int(r.dur/hitCycle))
	cycle := r.dur / time.Duration(cycles)
	open := time.Duration(openShare * float64(cycle))
	next := 0
	var windows [][]*outcome
	var p50s, sats []float64
	for c := 0; c < cycles; c++ {
		var window []*outcome
		for _, s := range hitLadder(open) {
			res := r.cl.openLoop(s, next, deck, r.conns, stepGrace)
			next += s.count()
			m.steps = append(m.steps, res)
			m.outcomes = append(m.outcomes, res.outcomes...)
			m.missed += res.missed
			if s.Rate == latencyRate {
				window = append(window, res.outcomes...)
			}
		}
		windows = append(windows, window)
		base := satBase + c*satStride
		sat := r.cl.closedLoop(func(i int) (request, bool) { return deck(base + i), true }, r.conns, cycle-open)
		m.outcomes = append(m.outcomes, sat...)
		sats = append(sats, throughput(sat))
		var lat []float64
		for _, o := range window {
			lat = append(lat, msOf(o.latency()))
		}
		v, _, _ := tail(lat)
		p50s = append(p50s, median(lat))
		r.printf("cycle %d: latency p50 %.3f ms tail %.3f ms, saturation %.1f rps\n", c, p50s[c], v, sats[c])
	}
	var kept []float64
	for _, i := range lowest(p50s, max(1, cycles/4)) {
		m.windows = append(m.windows, windows[i])
		kept = append(kept, sats[i])
	}
	m.throughput = median(kept)
}

// latencies returns, per window, the latencies in ms of its valid outcomes,
// and the latencies of all their observes.
func (m *measurement) latencies() (windows [][]float64, obs []float64) {
	for _, w := range m.windows {
		var lat []float64
		for _, o := range w {
			if !m.valid[o.req.Index] {
				continue
			}
			lat = append(lat, msOf(o.latency()))
			if o.observed {
				obs = append(obs, msOf(o.observeDuration))
			}
		}
		windows = append(windows, lat)
	}
	return windows, obs
}

// endToEnd prints every end-to-end metric and returns the ones the result
// line carries: those that apply to every workload.
func (r *runner) endToEnd(m *measurement, setupS float64) map[string]metric {
	ms := map[string]metric{}
	r.report(ms, "setup_s", setupS, "s", "median of repeated set-ups")
	lat, obs := m.latencies()
	r.reportLatency(ms, "latency", lat...)
	r.report(ms, "throughput_rps", m.throughput, "1/s", throughputNote(r.workload))
	us := 0.0
	n := 0
	for _, o := range m.outcomes {
		if m.valid[o.req.Index] {
			us += o.resp.UncertainSpace
			n++
		}
	}
	r.report(ms, "uncertain_space", us/float64(max(n, 1)), "fraction", fmt.Sprintf("mean over %d answers", n))
	r.report(ms, "mem_peak_mb", m.memPeakMB, "MB", fmt.Sprintf("peak live heap until %d requests were answered", m.memCovered))
	r.report(nil, "error_rate", float64(m.failed)/float64(max(m.attempted, 1)), "fraction",
		fmt.Sprintf("%d of %d attempted failed, were shed, invalid or never sent", m.failed, m.attempted))
	if r.workload == "hit" {
		r.reportLatency(nil, "observe_latency", obs)
		r.report(nil, "capacity_rps", r.capacity(m), "1/s", fmt.Sprintf("highest step with tail <= %v and backlog <= %d", hitTailLimit, hitBacklogLimit))
	}
	r.printSummary(m)
	return ms
}

func throughputNote(workload string) string {
	if workload == "hit" {
		return fmt.Sprintf("closed loop on nproc connections, median over the calmest quarter of the %v cycles", hitCycle)
	}
	return "closed loop, nproc clients, faster half of the rounds"
}

// reportLatency prints <prefix>_p50_ms and <prefix>_tail_ms: the median and
// the tail of each window, and for several windows the median of each.
func (r *runner) reportLatency(ms map[string]metric, prefix string, windows ...[]float64) {
	var p50s, tails, pcts []float64
	short, n := false, 0
	for _, w := range windows {
		v, pct, ok := tail(w)
		p50s, tails, pcts = append(p50s, median(w)), append(tails, v), append(pcts, pct)
		short = short || !ok
		n += len(w)
	}
	where := fmt.Sprintf("n=%d", n)
	if len(windows) > 1 {
		where = fmt.Sprintf("median over %d windows, n=%d in all", len(windows), n)
	}
	r.report(ms, prefix+"_p50_ms", median(p50s), "ms", where)
	note := fmt.Sprintf("p%.2f, %s", slices.Min(pcts), where)
	if short {
		note = fmt.Sprintf("a window had fewer than %d samples: its maximum, %s", tailBeyond+1, where)
	}
	r.report(ms, prefix+"_tail_ms", median(tails), "ms", note)
}

// capacity is the highest ladder rate that held in every cycle: tail within
// the hit-path limit, nothing missed or failed, and no growing backlog.
func (r *runner) capacity(m *measurement) float64 {
	type pooled struct {
		lat, lags       []float64
		missed, backlog int
		ok              bool
	}
	byRate := map[float64]*pooled{}
	var rates []float64
	for _, s := range m.steps {
		p := byRate[s.Rate]
		if p == nil {
			p = &pooled{ok: true}
			byRate[s.Rate] = p
			rates = append(rates, s.Rate)
		}
		for _, o := range s.outcomes {
			p.ok = p.ok && m.valid[o.req.Index]
			p.lat = append(p.lat, msOf(o.latency()))
		}
		p.lags = append(p.lags, s.lags...)
		p.missed += s.missed
		p.backlog = max(p.backlog, s.backlogMax)
	}
	best := 0.0
	for _, rate := range rates {
		p := byRate[rate]
		v, _, has := tail(p.lat)
		held := p.ok && has && p.missed == 0 && v <= msOf(hitTailLimit) && p.backlog <= hitBacklogLimit
		lagTail, _, _ := tail(p.lags)
		r.printf("rate %4.0f rps: n=%d p50 %.3f ms tail %.3f ms missed %d backlog max %d lag tail %.3f ms held %v\n",
			rate, len(p.lat), median(p.lat), v, p.missed, p.backlog, lagTail, held)
		if held {
			best = max(best, rate)
		}
	}
	return best
}

// printSummary prints the serving counts and the recommendation digest.
func (r *runner) printSummary(m *measurement) {
	r.printf("serving: %d requests, %d hits; model trainings %d\n", m.servingRequests, m.servingHits, m.trainings)
	r.printf("digest %s of the first %d recommendations\n", digest(m.recs), digestFirst)
}

// genValidity returns the open loop's 99th-percentile send lag and largest
// backlog over the steps the latency figures cover.
func (m *measurement) genValidity() (lagP99 float64, backlog int) {
	var lags []float64
	for _, s := range m.steps {
		if s.Rate == latencyRate {
			lags = append(lags, s.lags...)
			backlog = max(backlog, s.backlogMax)
		}
	}
	if len(lags) == 0 {
		return 0, 0
	}
	s := sorted(lags)
	return s[int(0.99*float64(len(s)-1))], backlog
}
