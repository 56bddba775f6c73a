// Package watch is the service's self-observation loop: a watchdog that
// periodically snapshots the metrics registry and the run registry, evaluates
// a small catalog of declarative health rules over the deltas, and turns
// violations into durable structured alerts — appended to a rotating
// alerts.jsonl, held in a bounded in-memory ring for GET /alerts, and
// (optionally) answered with a flight-recorder bundle: a bounded pprof
// capture plus the offending run's trace snapshot, taken at the moment the
// system misbehaved rather than minutes later when someone attaches.
//
// The rule catalog (thresholds are Config fields; defaults in parentheses):
//
//   - slo_burn: per workload, the fraction of solves in the last window that
//     breached the latency SLO. Fires at >= SLOBurnThreshold (0.5) once the
//     window holds >= SLOBurnMin (4) solves.
//   - hv_drop_streak: per workload, DropStreak (3) consecutive recorded runs
//     with a negative hypervolume delta — the frontier is getting worse, not
//     noisier. Evaluated over the run registry, so it survives restarts.
//   - latency_anomaly: the window's mean solve latency exceeded
//     EWMADeviation (3x) times its exponentially weighted moving average.
//   - eval_stall: the evaluator's model-pass rate collapsed below 1/EWMADeviation
//     of its EWMA while solves were in flight.
//   - shed_burst: the serving path shed (429'd) at least ShedBurstThreshold
//     (0.05) of the window's requests, with >= ShedBurstMin (20) requests in
//     the window — admission control went from safety valve to steady state.
//   - cache_thrash: the serving cache evicted (LRU) at least as many
//     optimizers as it served hits over the window, with >= CacheThrashMin
//     (8) evictions — the working set no longer fits and every miss pays a
//     full rebuild.
//   - calib_drift: per workload+objective, the calibration ledger's rolling
//     MAPE — predictions vs observed outcomes — reached CalibMAPEMax (0.35)
//     with >= CalibMinPairs (8) pairs in the window: the model has drifted
//     from the workload it was trained on and needs retraining.
//   - coverage_collapse: per workload+objective, the fraction of outcomes
//     inside the model's own z·sigma uncertainty interval fell below
//     CalibCoverageFloor (0.5) over >= CalibMinPairs std-bearing pairs — the
//     model is not just wrong, it is confidently wrong, so the §IV-B.3
//     uncertainty-aware optimization can no longer trust its variance.
//
// Every rule is edge-triggered per offending key (workload or series): an
// alert fires when the condition becomes true for new data, not on every
// sweep while it stays true.
package watch

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/calib"
	"repro/internal/runlog"
	"repro/internal/telemetry"
)

// Alert is one structured watchdog finding — the unit of alerts.jsonl, of
// GET /alerts, and of flight-recorder captures.
type Alert struct {
	ID       string    `json:"id"`
	Time     time.Time `json:"time"`
	Rule     string    `json:"rule"`
	Severity string    `json:"severity"` // "warning" or "critical"
	Workload string    `json:"workload,omitempty"`
	Summary  string    `json:"summary"`
	// Value is the measured quantity that violated the rule; Threshold the
	// configured bound it was judged against (rule-specific units).
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	// RunRecord / TraceRun join the alert to the run registry and the trace
	// sink when the rule implicates a specific run.
	RunRecord string `json:"run_record,omitempty"`
	TraceRun  string `json:"trace_run,omitempty"`
	// Bundle is the flight-recorder directory captured for this alert
	// (absent when flight recording is disabled or rate-limited).
	Bundle string `json:"bundle,omitempty"`
}

// Config tunes a Watchdog. Telemetry is required; everything else has a
// usable zero value.
type Config struct {
	Telemetry *telemetry.Telemetry
	// Runs, when non-nil, enables the run-registry rules (hv_drop_streak).
	Runs *runlog.Registry
	// AlertPath is the durable alert log (JSONL, size-rotated like the run
	// registry's files). Empty disables the durable log — alerts then live
	// only in the in-memory ring.
	AlertPath     string
	AlertMaxBytes int64
	AlertKeep     int
	// Interval between rule sweeps (default 15s).
	Interval time.Duration

	// Rule thresholds; zero selects the documented default.
	SLOBurnThreshold float64 // default 0.5
	SLOBurnMin       uint64  // default 4
	DropStreak       int     // default 3
	EWMAFactor       float64 // default 0.3
	EWMADeviation    float64 // default 3
	EWMAMinObs       uint64  // default 3 window observations

	// Serving-path thresholds (shed_burst, cache_thrash).
	ShedBurstThreshold float64 // default 0.05 of the window's requests
	ShedBurstMin       uint64  // default 20 requests in the window
	CacheThrashMin     uint64  // default 8 LRU evictions in the window

	// Calib, when non-nil, enables the calibration rules (calib_drift,
	// coverage_collapse) over the prediction–outcome ledger's rolling
	// windows.
	Calib *calib.Ledger
	// Calibration thresholds; zero selects the documented default.
	CalibMAPEMax       float64 // default 0.35 rolling mean absolute relative error
	CalibMinPairs      int     // default 8 pairs before a window is judged
	CalibCoverageFloor float64 // default 0.5 of outcomes inside the z-sigma interval

	// Flight configures the triggered flight recorder; zero disables it.
	Flight FlightConfig

	Logger *slog.Logger
	// Now is the clock (test hook; default time.Now).
	Now func() time.Time
}

func (c *Config) defaults() {
	if c.Interval <= 0 {
		c.Interval = 15 * time.Second
	}
	if c.SLOBurnThreshold <= 0 {
		c.SLOBurnThreshold = 0.5
	}
	if c.SLOBurnMin == 0 {
		c.SLOBurnMin = 4
	}
	if c.DropStreak <= 0 {
		c.DropStreak = 3
	}
	if c.EWMAFactor <= 0 || c.EWMAFactor > 1 {
		c.EWMAFactor = 0.3
	}
	if c.EWMADeviation <= 1 {
		c.EWMADeviation = 3
	}
	if c.EWMAMinObs == 0 {
		c.EWMAMinObs = 3
	}
	if c.ShedBurstThreshold <= 0 {
		c.ShedBurstThreshold = 0.05
	}
	if c.ShedBurstMin == 0 {
		c.ShedBurstMin = 20
	}
	if c.CacheThrashMin == 0 {
		c.CacheThrashMin = 8
	}
	if c.CalibMAPEMax <= 0 {
		c.CalibMAPEMax = 0.35
	}
	if c.CalibMinPairs <= 0 {
		c.CalibMinPairs = 8
	}
	if c.CalibCoverageFloor <= 0 {
		c.CalibCoverageFloor = 0.5
	}
	if c.Now == nil {
		c.Now = time.Now
	}
}

// maxRecentAlerts bounds the in-memory alert ring served by GET /alerts.
const maxRecentAlerts = 256

// Watchdog evaluates the rule catalog on a fixed cadence. Construct with
// New, then Start; EvalOnce is exported so tests (and operators via
// debugging endpoints) can force a deterministic sweep.
type Watchdog struct {
	cfg    Config
	log    *runlog.RotatingFile
	flight *flightRecorder

	evals    atomic.Uint64
	alertSeq atomic.Uint64
	writeErr atomic.Value // error of the last alert-log write; nil-able via errBox

	mu       sync.Mutex
	recent   []Alert
	prev     telemetry.Snapshot
	hasPrev  bool
	lastEval time.Time
	// fired tracks edge-triggering state per rule+key: the identity of the
	// last data the rule alerted on, so a persistent condition alerts once
	// per new evidence, not once per sweep.
	fired map[string]string
	ewma  map[string]float64
	ewmaN map[string]uint64

	started  atomic.Bool
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// errBox wraps an error for atomic.Value storage (which cannot hold a bare
// nil interface once a non-nil was stored).
type errBox struct{ err error }

// New builds a watchdog (opening the durable alert log if configured) but
// does not start the sweep loop.
func New(cfg Config) (*Watchdog, error) {
	if cfg.Telemetry == nil {
		return nil, fmt.Errorf("watch: Config.Telemetry is required")
	}
	cfg.defaults()
	w := &Watchdog{
		cfg:   cfg,
		fired: map[string]string{},
		ewma:  map[string]float64{},
		ewmaN: map[string]uint64{},
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	w.writeErr.Store(errBox{})
	if cfg.AlertPath != "" {
		f, err := runlog.OpenRotating(cfg.AlertPath, cfg.AlertMaxBytes, cfg.AlertKeep)
		if err != nil {
			return nil, fmt.Errorf("watch: open alert log: %w", err)
		}
		w.log = f
	}
	if cfg.Flight.Dir != "" {
		w.flight = newFlightRecorder(cfg.Flight, cfg.Telemetry, cfg.Now)
	}
	return w, nil
}

// Start launches the periodic sweep loop. Call Stop to end it.
func (w *Watchdog) Start() {
	w.started.Store(true)
	go func() {
		defer close(w.done)
		t := time.NewTicker(w.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				w.EvalOnce()
			}
		}
	}()
}

// Stop ends the sweep loop and closes the alert log. Safe to call more than
// once; blocks until the loop has exited.
func (w *Watchdog) Stop() {
	w.stopOnce.Do(func() {
		close(w.stop)
		if w.started.Load() {
			<-w.done
		}
		if w.log != nil {
			_ = w.log.Close()
		}
	})
}

// Err returns the error of the last alert-log write (nil when healthy or
// when the durable log is disabled). The service's /readyz gates on it: a
// watchdog that can no longer persist alerts is a monitoring outage.
func (w *Watchdog) Err() error {
	return w.writeErr.Load().(errBox).err
}

// Evals returns the number of completed rule sweeps.
func (w *Watchdog) Evals() uint64 { return w.evals.Load() }

// LastEval returns the time of the last completed sweep (zero before the
// first).
func (w *Watchdog) LastEval() time.Time {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastEval
}

// Alerts returns the most recent alerts, newest first, at most limit
// (<= 0 means all retained).
func (w *Watchdog) Alerts(limit int) []Alert {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := len(w.recent)
	if limit > 0 && limit < n {
		n = limit
	}
	out := make([]Alert, n)
	for i := 0; i < n; i++ {
		out[i] = w.recent[len(w.recent)-1-i]
	}
	return out
}

// EvalOnce performs one rule sweep: snapshot, evaluate every rule against
// the previous snapshot's window, raise alerts. It returns the alerts raised
// by this sweep (usually none).
func (w *Watchdog) EvalOnce() []Alert {
	now := w.cfg.Now()
	snap := w.cfg.Telemetry.Metrics.Snapshot()

	w.mu.Lock()
	var raised []Alert
	if w.hasPrev {
		raised = append(raised, w.ruleSLOBurn(snap)...)
		raised = append(raised, w.ruleLatencyAnomaly(snap)...)
		raised = append(raised, w.ruleEvalStall(snap, now)...)
		raised = append(raised, w.ruleShedBurst(snap)...)
		raised = append(raised, w.ruleCacheThrash(snap)...)
	}
	if w.cfg.Runs != nil {
		raised = append(raised, w.ruleHVDropStreak()...)
	}
	if w.cfg.Calib != nil {
		raised = append(raised, w.ruleCalibDrift()...)
		raised = append(raised, w.ruleCoverageCollapse()...)
	}
	w.prev, w.hasPrev = snap, true
	w.lastEval = now
	w.mu.Unlock()

	for i := range raised {
		w.raise(&raised[i], now)
	}

	w.evals.Add(1)
	m := w.cfg.Telemetry.Metrics
	m.Counter(telemetry.MetricWatchEvals).Inc()
	m.Gauge(telemetry.MetricWatchLastEval).Set(float64(now.Unix()))
	return raised
}

// raise finalizes one alert: ID and timestamp, flight-recorder capture,
// durable log append, in-memory ring, metrics, structured log.
func (w *Watchdog) raise(a *Alert, now time.Time) {
	a.ID = fmt.Sprintf("alert-%06d", w.alertSeq.Add(1))
	a.Time = now
	if w.flight != nil {
		if dir, err := w.flight.capture(*a); err == nil && dir != "" {
			a.Bundle = dir
		} else if err != nil && w.cfg.Logger != nil {
			w.cfg.Logger.Warn("flight capture failed", "alert", a.ID, "err", err)
		}
	}
	if w.log != nil {
		line, err := json.Marshal(a)
		if err == nil {
			line = append(line, '\n')
			_, err = w.log.Write(line)
		}
		w.writeErr.Store(errBox{err})
	}
	w.mu.Lock()
	w.recent = append(w.recent, *a)
	if len(w.recent) > maxRecentAlerts {
		w.recent = w.recent[len(w.recent)-maxRecentAlerts:]
	}
	w.mu.Unlock()

	m := w.cfg.Telemetry.Metrics
	m.Counter(telemetry.MetricWatchAlerts).Inc()
	m.Counter(telemetry.Labeled(telemetry.MetricWatchAlerts, "rule", a.Rule)).Inc()
	if w.cfg.Logger != nil {
		w.cfg.Logger.Warn("watchdog alert",
			"alert", a.ID, "rule", a.Rule, "severity", a.Severity,
			"workload", a.Workload, "value", a.Value, "threshold", a.Threshold,
			"summary", a.Summary)
	}
}

// counterDelta returns the window increase of a counter series.
func (w *Watchdog) counterDelta(snap telemetry.Snapshot, name string) uint64 {
	cur := snap.Counters[name]
	prev := w.prev.Counters[name]
	if cur < prev { // restart or reset
		return cur
	}
	return cur - prev
}

// labelValue extracts the value of the given label from a series name, e.g.
// labelValue(`udao_solve_slo_ok_total{workload="q1"}`, "workload") = "q1".
func labelValue(series, label string) (string, bool) {
	i := strings.IndexByte(series, '{')
	if i < 0 {
		return "", false
	}
	block := series[i+1 : len(series)-1]
	prefix := label + "="
	for _, kv := range strings.Split(block, ",") {
		if strings.HasPrefix(kv, prefix) {
			v := strings.TrimPrefix(kv, prefix)
			if len(v) >= 2 && v[0] == '"' && v[len(v)-1] == '"' {
				return v[1 : len(v)-1], true
			}
			return v, true
		}
	}
	return "", false
}

// workloadSeries lists the workload label values present for a metric family
// in the snapshot, sorted for deterministic sweep order.
func workloadSeries(snap telemetry.Snapshot, family string) []string {
	var out []string
	seen := map[string]bool{}
	for name := range snap.Counters {
		if !strings.HasPrefix(name, family+"{") {
			continue
		}
		if wl, ok := labelValue(name, "workload"); ok && !seen[wl] {
			seen[wl] = true
			out = append(out, wl)
		}
	}
	sort.Strings(out)
	return out
}

// ruleSLOBurn: per workload, breaches/(breaches+oks) over the window.
func (w *Watchdog) ruleSLOBurn(snap telemetry.Snapshot) []Alert {
	var out []Alert
	for _, wl := range workloadSeries(snap, telemetry.MetricSolveSLOBreach) {
		breach := w.counterDelta(snap, telemetry.Labeled(telemetry.MetricSolveSLOBreach, "workload", wl))
		ok := w.counterDelta(snap, telemetry.Labeled(telemetry.MetricSolveSLOOk, "workload", wl))
		total := breach + ok
		if total < w.cfg.SLOBurnMin {
			continue
		}
		frac := float64(breach) / float64(total)
		key := "slo_burn|" + wl
		evidence := fmt.Sprintf("%d/%d", snap.Counters[telemetry.Labeled(telemetry.MetricSolveSLOBreach, "workload", wl)], snap.Counters[telemetry.Labeled(telemetry.MetricSolveSLOOk, "workload", wl)])
		if frac < w.cfg.SLOBurnThreshold {
			delete(w.fired, key)
			continue
		}
		if w.fired[key] == evidence {
			continue
		}
		w.fired[key] = evidence
		sev := "warning"
		if frac >= 0.9 {
			sev = "critical"
		}
		out = append(out, Alert{
			Rule: "slo_burn", Severity: sev, Workload: wl,
			Value: frac, Threshold: w.cfg.SLOBurnThreshold,
			Summary: fmt.Sprintf("workload %q: %d of %d solves in the last window breached the latency SLO (%.0f%%)", wl, breach, total, 100*frac),
		})
	}
	return out
}

// ruleLatencyAnomaly: the window's mean solve latency against its EWMA.
func (w *Watchdog) ruleLatencyAnomaly(snap telemetry.Snapshot) []Alert {
	cur := snap.Histograms[telemetry.MetricSolveLatency]
	prev := w.prev.Histograms[telemetry.MetricSolveLatency]
	dn := cur.Count - prev.Count
	if cur.Count < prev.Count { // reset
		dn = cur.Count
		prev = telemetry.HistogramSnapshot{}
	}
	if dn == 0 {
		return nil
	}
	mean := (cur.Sum - prev.Sum) / float64(dn)
	const series = "solve_latency"
	ew, n := w.ewma[series], w.ewmaN[series]
	defer func() {
		if n == 0 {
			w.ewma[series] = mean
		} else {
			w.ewma[series] = ew + w.cfg.EWMAFactor*(mean-ew)
		}
		w.ewmaN[series] = n + 1
	}()
	if n < w.cfg.EWMAMinObs || ew <= 0 {
		return nil
	}
	if mean <= w.cfg.EWMADeviation*ew {
		delete(w.fired, "latency|")
		return nil
	}
	evidence := fmt.Sprintf("%d", cur.Count)
	if w.fired["latency|"] == evidence {
		return nil
	}
	w.fired["latency|"] = evidence
	return []Alert{{
		Rule: "latency_anomaly", Severity: "warning",
		Value: mean, Threshold: w.cfg.EWMADeviation * ew,
		Summary: fmt.Sprintf("mean solve latency %.3fs in the last window, %.1fx its moving average %.3fs", mean, mean/ew, ew),
	}}
}

// ruleEvalStall: model-pass throughput collapsed while solves were running.
func (w *Watchdog) ruleEvalStall(snap telemetry.Snapshot, now time.Time) []Alert {
	dEvals := w.counterDelta(snap, telemetry.MetricModelEvals)
	dSolves := w.counterDelta(snap, telemetry.MetricMOGDSolves)
	elapsed := w.cfg.Interval.Seconds()
	if !w.lastEval.IsZero() {
		if dt := now.Sub(w.lastEval).Seconds(); dt > 0 {
			elapsed = dt
		}
	}
	rate := float64(dEvals) / elapsed
	const series = "eval_rate"
	ew, n := w.ewma[series], w.ewmaN[series]
	if dEvals > 0 {
		if n == 0 {
			w.ewma[series] = rate
		} else {
			w.ewma[series] = ew + w.cfg.EWMAFactor*(rate-ew)
		}
		w.ewmaN[series] = n + 1
	}
	// A stall is: solves progressed this window, the eval rate collapsed to
	// under 1/dev of its EWMA, and we have enough history to trust the EWMA.
	if dSolves == 0 || n < w.cfg.EWMAMinObs || ew <= 0 {
		return nil
	}
	if rate >= ew/w.cfg.EWMADeviation {
		delete(w.fired, "evalstall|")
		return nil
	}
	evidence := fmt.Sprintf("%d", snap.Counters[telemetry.MetricMOGDSolves])
	if w.fired["evalstall|"] == evidence {
		return nil
	}
	w.fired["evalstall|"] = evidence
	return []Alert{{
		Rule: "eval_stall", Severity: "warning",
		Value: rate, Threshold: ew / w.cfg.EWMADeviation,
		Summary: fmt.Sprintf("model-pass rate %.0f/s collapsed below 1/%.0f of its moving average %.0f/s while solves ran", rate, w.cfg.EWMADeviation, ew),
	}}
}

// ruleShedBurst: the fraction of serving requests shed (429) over the window.
func (w *Watchdog) ruleShedBurst(snap telemetry.Snapshot) []Alert {
	reqs := w.counterDelta(snap, telemetry.MetricServingRequests)
	shed := w.counterDelta(snap, telemetry.MetricShed)
	const key = "shedburst|"
	if reqs < w.cfg.ShedBurstMin {
		return nil // too little traffic to judge; keep the latch as-is
	}
	frac := float64(shed) / float64(reqs)
	if frac < w.cfg.ShedBurstThreshold {
		delete(w.fired, key)
		return nil
	}
	evidence := fmt.Sprintf("%d", snap.Counters[telemetry.MetricShed])
	if w.fired[key] == evidence {
		return nil
	}
	w.fired[key] = evidence
	sev := "warning"
	if frac >= 0.5 {
		sev = "critical"
	}
	return []Alert{{
		Rule: "shed_burst", Severity: sev,
		Value: frac, Threshold: w.cfg.ShedBurstThreshold,
		Summary: fmt.Sprintf("serving shed %d of %d requests in the last window (%.1f%%) — admission control is load-shedding steadily", shed, reqs, 100*frac),
	}}
}

// ruleCacheThrash: the serving cache's LRU churn outpaced its reuse — at
// least CacheThrashMin evictions in the window and no fewer evictions than
// hits, i.e. the eviction share of (evictions+hits) reached 1/2.
func (w *Watchdog) ruleCacheThrash(snap telemetry.Snapshot) []Alert {
	evict := w.counterDelta(snap, telemetry.Labeled(telemetry.MetricServingEvictions, "reason", "lru"))
	hits := w.counterDelta(snap, telemetry.MetricServingHits)
	const key = "cachethrash|"
	if evict < w.cfg.CacheThrashMin {
		return nil
	}
	share := float64(evict) / float64(evict+hits)
	if share < 0.5 {
		delete(w.fired, key)
		return nil
	}
	evidence := fmt.Sprintf("%d", snap.Counters[telemetry.Labeled(telemetry.MetricServingEvictions, "reason", "lru")])
	if w.fired[key] == evidence {
		return nil
	}
	w.fired[key] = evidence
	return []Alert{{
		Rule: "cache_thrash", Severity: "warning",
		Value: float64(evict), Threshold: float64(w.cfg.CacheThrashMin),
		Summary: fmt.Sprintf("serving cache evicted %d optimizers against %d hits in the last window — the working set no longer fits; raise -cache-entries", evict, hits),
	}}
}

// traceRunOf joins a run-registry record ID to its trace run ID (for alert
// context), best effort.
func (w *Watchdog) traceRunOf(runID string) string {
	if w.cfg.Runs == nil || runID == "" {
		return ""
	}
	if rec, ok := w.cfg.Runs.Get(runID); ok {
		return rec.TraceRunID
	}
	return ""
}

// ruleCalibDrift: per workload+objective, the rolling-window MAPE of
// predictions against observed outcomes reached the configured ceiling. The
// total pair count is the edge evidence — a drifted window alerts once per
// newly observed outcome batch, not once per sweep.
func (w *Watchdog) ruleCalibDrift() []Alert {
	var out []Alert
	for _, wl := range w.cfg.Calib.Workloads() {
		for _, st := range w.cfg.Calib.Calibration(wl) {
			if st.Pairs < w.cfg.CalibMinPairs {
				continue
			}
			key := "calibdrift|" + wl + "|" + st.Objective
			if st.MAPE < w.cfg.CalibMAPEMax {
				delete(w.fired, key)
				continue
			}
			evidence := fmt.Sprintf("%d", st.Total)
			if w.fired[key] == evidence {
				continue
			}
			w.fired[key] = evidence
			sev := "warning"
			if st.MAPE >= 2*w.cfg.CalibMAPEMax {
				sev = "critical"
			}
			out = append(out, Alert{
				Rule: "calib_drift", Severity: sev, Workload: wl,
				Value: st.MAPE, Threshold: w.cfg.CalibMAPEMax,
				RunRecord: st.LastRun, TraceRun: w.traceRunOf(st.LastRun),
				Summary: fmt.Sprintf("workload %q: %s predictions off by %.0f%% MAPE over the last %d observed outcomes (bias %+.0f%%, ceiling %.0f%%) — the model has drifted; retrain from fresh traces", wl, st.Objective, 100*st.MAPE, st.Pairs, 100*st.Bias, 100*w.cfg.CalibMAPEMax),
			})
		}
	}
	return out
}

// ruleCoverageCollapse: per workload+objective, too few observed outcomes
// land inside the model's own z·sigma uncertainty interval — the predictive
// variance underestimates the true error, so uncertainty-aware optimization
// (§IV-B.3) is optimizing against a fiction.
func (w *Watchdog) ruleCoverageCollapse() []Alert {
	var out []Alert
	for _, wl := range w.cfg.Calib.Workloads() {
		for _, st := range w.cfg.Calib.Calibration(wl) {
			if st.CoveragePairs < w.cfg.CalibMinPairs || st.Coverage == calib.CoverageUnknown {
				continue
			}
			key := "calibcov|" + wl + "|" + st.Objective
			if st.Coverage >= w.cfg.CalibCoverageFloor {
				delete(w.fired, key)
				continue
			}
			evidence := fmt.Sprintf("%d", st.Total)
			if w.fired[key] == evidence {
				continue
			}
			w.fired[key] = evidence
			sev := "warning"
			if st.Coverage < w.cfg.CalibCoverageFloor/2 {
				sev = "critical"
			}
			out = append(out, Alert{
				Rule: "coverage_collapse", Severity: sev, Workload: wl,
				Value: st.Coverage, Threshold: w.cfg.CalibCoverageFloor,
				RunRecord: st.LastRun, TraceRun: w.traceRunOf(st.LastRun),
				Summary: fmt.Sprintf("workload %q: only %.0f%% of %d observed %s outcomes fell inside the model's uncertainty interval (floor %.0f%%) — predictive variance is underestimating the true error", wl, 100*st.Coverage, st.CoveragePairs, st.Objective, 100*w.cfg.CalibCoverageFloor),
			})
		}
	}
	return out
}

// ruleHVDropStreak: DropStreak consecutive recorded runs of one workload
// with negative hypervolume delta.
func (w *Watchdog) ruleHVDropStreak() []Alert {
	recs := w.cfg.Runs.List("", time.Time{}, 0)
	byWorkload := map[string][]runlog.Record{}
	for _, r := range recs {
		byWorkload[r.Workload] = append(byWorkload[r.Workload], r)
	}
	workloads := make([]string, 0, len(byWorkload))
	for wl := range byWorkload {
		workloads = append(workloads, wl)
	}
	sort.Strings(workloads)

	var out []Alert
	for _, wl := range workloads {
		rs := byWorkload[wl]
		streak, worst := 0, 0.0
		for i := len(rs) - 1; i >= 0; i-- {
			d := rs[i].Quality.HypervolumeDelta
			if d >= 0 || d == runlog.QualityUnknown {
				break
			}
			streak++
			if d < worst {
				worst = d
			}
		}
		key := "hvdrop|" + wl
		if streak < w.cfg.DropStreak {
			delete(w.fired, key)
			continue
		}
		last := rs[len(rs)-1]
		if w.fired[key] == last.ID {
			continue
		}
		w.fired[key] = last.ID
		out = append(out, Alert{
			Rule: "hv_drop_streak", Severity: "critical", Workload: wl,
			Value: float64(streak), Threshold: float64(w.cfg.DropStreak),
			RunRecord: last.ID, TraceRun: last.TraceRunID,
			Summary: fmt.Sprintf("workload %q: hypervolume dropped %d runs in a row (worst delta %.4g, last run %s)", wl, streak, worst, last.ID),
		})
	}
	return out
}
