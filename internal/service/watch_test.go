package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/runlog"
	"repro/internal/telemetry"
	"repro/internal/watch"
)

// TestPhaseBreakdownRecorded checks the span pipeline end to end at the
// service seam: one /optimize call yields a run record whose phase_breakdown
// was computed from this request's span subtree — non-empty, covering the
// solve phases, and summing to no more than the recorded wall time.
func TestPhaseBreakdownRecorded(t *testing.T) {
	svc, wl := buildTelemetryService(t)
	reg, err := runlog.Open(filepath.Join(t.TempDir(), "runs.jsonl"), runlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	svc.Runs = reg

	resp, err := svc.Optimize(OptimizeRequest{Workload: wl, Weights: []float64{0.5, 0.5}, Probes: 12})
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := reg.Get(resp.RunRecord)
	if !ok {
		t.Fatalf("run record %q not found", resp.RunRecord)
	}
	if len(rec.PhaseBreakdown) == 0 {
		t.Fatal("phase_breakdown missing from run record")
	}
	if _, ok := rec.PhaseBreakdown["service"]; !ok {
		t.Fatalf("phase_breakdown lacks the service phase: %v", rec.PhaseBreakdown)
	}
	if _, ok := rec.PhaseBreakdown["pf"]; !ok {
		t.Fatalf("phase_breakdown lacks the pf phase: %v", rec.PhaseBreakdown)
	}
	sum := 0.0
	for ph, sec := range rec.PhaseBreakdown {
		if sec < 0 {
			t.Fatalf("negative self time for %s: %v", ph, sec)
		}
		sum += sec
	}
	// Self times over the request's subtree sum to the root span's duration,
	// which is strictly inside the recorded wall time (allow scheduling slop).
	if sum > rec.SolveSec*1.05 {
		t.Fatalf("phase self times sum %.4fs > solve_sec %.4fs", sum, rec.SolveSec)
	}
	if sum <= 0 {
		t.Fatal("phase self times sum to zero")
	}

	// The per-phase histogram family saw the same phases.
	snap := svc.Telemetry.Metrics.Snapshot()
	h := snap.Histograms[telemetry.Labeled(telemetry.MetricPhaseSeconds, "phase", "pf")]
	if h.Count == 0 {
		t.Fatal("udao_phase_seconds{phase=\"pf\"} has no observations")
	}

	// A second request against the cached optimizer still gets its own
	// subtree (run IDs repeat; span IDs do not).
	resp2, err := svc.Optimize(OptimizeRequest{Workload: wl, Weights: []float64{0.9, 0.1}, Probes: 12})
	if err != nil {
		t.Fatal(err)
	}
	rec2, ok := reg.Get(resp2.RunRecord)
	if !ok {
		t.Fatalf("second run record %q not found", resp2.RunRecord)
	}
	if len(rec2.PhaseBreakdown) == 0 {
		t.Fatal("second request has no phase_breakdown")
	}
	if rec2.PhaseBreakdown["service"] >= rec.PhaseBreakdown["service"]+rec.SolveSec {
		t.Fatalf("second request's breakdown absorbed the first: %v vs %v", rec2.PhaseBreakdown, rec.PhaseBreakdown)
	}
}

// TestAlertsEndToEnd drives an injected SLO breach through the watchdog and
// reads the alert back over GET /alerts, with liveness in /healthz and the
// alert-log gate in /readyz.
func TestAlertsEndToEnd(t *testing.T) {
	svc, wl := buildTelemetryService(t)
	dir := t.TempDir()
	alertPath := filepath.Join(dir, "alerts.jsonl")
	wd, err := watch.New(watch.Config{
		Telemetry: svc.Telemetry,
		AlertPath: alertPath,
		Flight: watch.FlightConfig{
			Dir:           filepath.Join(dir, "flight"),
			CPUProfileDur: 10 * time.Millisecond,
			MinInterval:   time.Nanosecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer wd.Stop()
	svc.Watch = wd

	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// No alerts yet: empty list, healthy gates.
	var alertsOut struct {
		Alerts []watch.Alert `json:"alerts"`
	}
	getJSON(t, ts.URL+"/alerts", http.StatusOK, &alertsOut)
	if len(alertsOut.Alerts) != 0 {
		t.Fatalf("unexpected alerts: %+v", alertsOut.Alerts)
	}

	// Inject an SLO burn: a solve that breaches an absurdly tight SLO.
	svc.SLO = time.Nanosecond
	wd.EvalOnce() // baseline snapshot
	body, _ := json.Marshal(OptimizeRequest{Workload: wl, Weights: []float64{0.5, 0.5}, Probes: 12})
	for i := 0; i < 4; i++ {
		resp, err := http.Post(ts.URL+"/optimize", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("optimize status %d", resp.StatusCode)
		}
	}
	raised := wd.EvalOnce()
	if len(raised) == 0 {
		t.Fatal("no alert from injected SLO breach")
	}

	getJSON(t, ts.URL+"/alerts", http.StatusOK, &alertsOut)
	if len(alertsOut.Alerts) == 0 || alertsOut.Alerts[0].Rule != "slo_burn" {
		t.Fatalf("GET /alerts: %+v", alertsOut.Alerts)
	}
	if alertsOut.Alerts[0].Workload != wl {
		t.Fatalf("alert workload = %q, want %q", alertsOut.Alerts[0].Workload, wl)
	}

	// The alert is durable and the flight bundle is on disk.
	if st, err := os.Stat(alertPath); err != nil || st.Size() == 0 {
		t.Fatalf("alert log: %v %v", st, err)
	}
	bundle := alertsOut.Alerts[0].Bundle
	if bundle == "" {
		t.Fatal("alert has no flight bundle")
	}
	for _, name := range []string{"alert.json", "heap.pprof", "goroutine.pprof", "trace.jsonl"} {
		if _, err := os.Stat(filepath.Join(bundle, name)); err != nil {
			t.Fatalf("bundle missing %s: %v", name, err)
		}
	}

	// /healthz surfaces watchdog liveness.
	var health struct {
		Status   string         `json:"status"`
		Watchdog map[string]any `json:"watchdog"`
	}
	getJSON(t, ts.URL+"/healthz", http.StatusOK, &health)
	if health.Status != "ok" || health.Watchdog == nil {
		t.Fatalf("healthz: %+v", health)
	}
	if evals, _ := health.Watchdog["evals"].(float64); evals < 2 {
		t.Fatalf("healthz watchdog evals = %v", health.Watchdog["evals"])
	}

	// /readyz includes the alert-log gate.
	var ready struct {
		Status string            `json:"status"`
		Checks map[string]string `json:"checks"`
	}
	getJSON(t, ts.URL+"/readyz", http.StatusOK, &ready)
	if ready.Status != "ready" || ready.Checks["alertlog"] != "ok" {
		t.Fatalf("readyz: %+v", ready)
	}

	// Watchdog metrics flowed into the shared registry.
	snap := svc.Telemetry.Metrics.Snapshot()
	if snap.Counters[telemetry.MetricWatchAlerts] == 0 {
		t.Fatal("udao_watch_alerts_total = 0")
	}
	if snap.Counters[telemetry.Labeled(telemetry.MetricWatchAlerts, "rule", "slo_burn")] == 0 {
		t.Fatal("per-rule alert counter = 0")
	}
}

// TestNominalTrafficRaisesNoAlert is the watchdog's "true under load"
// contract: ordinary /optimize traffic — a cold solve, an expand and a
// cached hit on each of three workloads — leaves every rule of a default
// watch.Config quiet, sweep after sweep, even when one window holds dozens
// of MOGD solves.
func TestNominalTrafficRaisesNoAlert(t *testing.T) {
	workloads := []string{"nom-a", "nom-b", "nom-c"}
	svc := buildMultiService(t, workloads)
	svc.Telemetry = telemetry.New()
	reg, err := runlog.Open(filepath.Join(t.TempDir(), "runs.jsonl"), runlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	svc.Runs = reg
	wd, err := watch.New(watch.Config{Telemetry: svc.Telemetry, Runs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer wd.Stop()
	svc.Watch = wd
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	solves := svc.Telemetry.Metrics.Counter(telemetry.MetricMOGDSolves)
	rounds := []struct {
		name    string
		probes  int
		weights []float64
		served  string
	}{
		{"cold", 20, []float64{0.5, 0.5}, "solve"},
		{"expand", 40, []float64{0.5, 0.5}, "expand"},
		{"hit", 40, []float64{0.9, 0.1}, "hit"},
	}
	if got := wd.EvalOnce(); len(got) != 0 { // baseline
		t.Fatalf("baseline sweep raised %+v", got)
	}
	for _, r := range rounds {
		before := solves.Value()
		for _, wl := range workloads {
			out := postOptimize(t, ts.URL, OptimizeRequest{Workload: wl, Weights: r.weights, Probes: r.probes})
			if out.Served != r.served {
				t.Fatalf("%s round, %s: served %q, want %q", r.name, wl, out.Served, r.served)
			}
		}
		if r.name == "cold" && solves.Value()-before < 50 {
			t.Fatalf("cold round ran %d MOGD solves; the window needs at least 50", solves.Value()-before)
		}
		if got := wd.EvalOnce(); len(got) != 0 {
			t.Fatalf("%s round raised %+v", r.name, got)
		}
	}
}
