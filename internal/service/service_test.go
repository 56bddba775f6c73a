package service

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/modelserver"
	"repro/internal/runlog"
	"repro/internal/space"
	"repro/internal/spark"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func buildService(t *testing.T) (*Service, string) {
	t.Helper()
	spc := spark.BatchSpace()
	df := spark.Chain("svc-test", 3e6, 100,
		spark.Operator{Kind: spark.OpScan, Selectivity: 1, CostPerRow: 1},
		spark.Operator{Kind: spark.OpExchange, Selectivity: 1, CostPerRow: 0.1},
		spark.Operator{Kind: spark.OpAggregate, Selectivity: 0.01, CostPerRow: 0.5, MemPerRow: 64},
	)
	cl := spark.DefaultCluster()
	run := func(conf space.Values, seed int64) (map[string]float64, []float64, error) {
		m, err := spark.Run(df, spc, conf, cl, seed)
		if err != nil {
			return nil, nil, err
		}
		return map[string]float64{"latency": m.LatencySec}, m.TraceVector(), nil
	}
	st := trace.NewStore()
	rng := rand.New(rand.NewSource(1))
	confs, err := trace.HeuristicSample(spc, spark.DefaultBatchConf(spc), 40, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Collect(st, spc, "svc-test", confs, run, 1); err != nil {
		t.Fatal(err)
	}
	svc := New(modelserver.New(spc, st, modelserver.Config{Kind: modelserver.GP}))
	svc.Exact["cores"] = model.Func{D: spc.Dim(), F: func(x []float64) float64 {
		vals, err := spc.Decode(x)
		if err != nil {
			return 0
		}
		inst, _ := spc.Get(vals, spark.KnobInstances)
		c, _ := spc.Get(vals, spark.KnobCores)
		return inst * c
	}}
	return svc, "svc-test"
}

func TestOptimizeDirect(t *testing.T) {
	svc, wl := buildService(t)
	resp, err := svc.Optimize(OptimizeRequest{Workload: wl, Weights: []float64{0.5, 0.5}, Probes: 15})
	if err != nil {
		t.Fatal(err)
	}
	if resp.FrontierPoints < 2 {
		t.Fatalf("frontier points = %d", resp.FrontierPoints)
	}
	if resp.Objectives["latency"] <= 0 || resp.Objectives["cores"] <= 0 {
		t.Fatalf("bad objectives: %v", resp.Objectives)
	}
	if _, ok := resp.Config[spark.KnobInstances]; !ok {
		t.Fatal("config missing knob")
	}
	if resp.UncertainSpace < 0 || resp.UncertainSpace > 1 {
		t.Fatalf("uncertain space = %v", resp.UncertainSpace)
	}
}

func TestOptimizeCachesFrontierAcrossWeights(t *testing.T) {
	svc, wl := buildService(t)
	a, err := svc.Optimize(OptimizeRequest{Workload: wl, Weights: []float64{0.5, 0.5}, Probes: 15})
	if err != nil {
		t.Fatal(err)
	}
	b, err := svc.Optimize(OptimizeRequest{Workload: wl, Weights: []float64{0.9, 0.1}, Probes: 15})
	if err != nil {
		t.Fatal(err)
	}
	// Same cached frontier answers both preference settings (§II-B).
	if a.FrontierPoints != b.FrontierPoints {
		t.Fatalf("frontier recomputed: %d vs %d", a.FrontierPoints, b.FrontierPoints)
	}
	if b.Objectives["latency"] > a.Objectives["latency"] {
		t.Fatalf("latency preference ignored: %v vs %v", b.Objectives["latency"], a.Objectives["latency"])
	}
}

func TestOptimizeErrors(t *testing.T) {
	svc, _ := buildService(t)
	if _, err := svc.Optimize(OptimizeRequest{}); err == nil {
		t.Fatal("expected error for missing workload")
	}
	if _, err := svc.Optimize(OptimizeRequest{Workload: "nope"}); err == nil {
		t.Fatal("expected error for unknown workload")
	}
	if _, err := svc.Optimize(OptimizeRequest{Workload: "svc-test", Objectives: []string{"latency", "bogus"}}); err == nil {
		t.Fatal("expected error for unknown objective")
	}
}

func TestHTTPEndpoints(t *testing.T) {
	svc, wl := buildService(t)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// /workloads
	resp, err := http.Get(ts.URL + "/workloads")
	if err != nil {
		t.Fatal(err)
	}
	var wls []string
	if err := json.NewDecoder(resp.Body).Decode(&wls); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(wls) != 1 || wls[0] != wl {
		t.Fatalf("workloads = %v", wls)
	}

	// /optimize happy path
	body, _ := json.Marshal(OptimizeRequest{Workload: wl, Weights: []float64{0.9, 0.1}, Probes: 12})
	resp, err = http.Post(ts.URL+"/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out OptimizeResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.FrontierPoints < 2 {
		t.Fatalf("frontier points = %d", out.FrontierPoints)
	}

	// /optimize error paths
	r2, _ := http.Post(ts.URL+"/optimize", "application/json", bytes.NewReader([]byte("nope")))
	if r2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON status = %d", r2.StatusCode)
	}
	r2.Body.Close()
	r3, _ := http.Get(ts.URL + "/optimize")
	if r3.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status = %d", r3.StatusCode)
	}
	r3.Body.Close()
}

// buildTelemetryService is buildService with telemetry threaded through.
func buildTelemetryService(t *testing.T) (*Service, string) {
	t.Helper()
	svc, wl := buildService(t)
	svc.Telemetry = telemetry.New()
	return svc, wl
}

func TestHandlerTable(t *testing.T) {
	svc, wl := buildTelemetryService(t)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	happy, _ := json.Marshal(OptimizeRequest{Workload: wl, Weights: []float64{0.5, 0.5}, Probes: 12})
	unknown, _ := json.Marshal(OptimizeRequest{Workload: "no-such-workload"})
	cases := []struct {
		name   string
		method string
		body   string
		want   int
	}{
		{"bad json", http.MethodPost, "{not json", http.StatusBadRequest},
		{"unknown workload", http.MethodPost, string(unknown), http.StatusNotFound},
		{"method not allowed", http.MethodGet, "", http.StatusMethodNotAllowed},
		{"happy path", http.MethodPost, string(happy), http.StatusOK},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+"/optimize", bytes.NewReader([]byte(tc.body)))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.want)
			}
			if resp.Header.Get("X-Request-ID") == "" {
				t.Fatal("missing X-Request-ID header")
			}
			if tc.want != http.StatusOK {
				return
			}
			var out OptimizeResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
			if out.ModelEvals == 0 {
				t.Fatal("model_evals = 0 after optimization")
			}
			if out.Telemetry == nil {
				t.Fatal("telemetry block missing")
			}
			if out.Telemetry.RunID == "" || out.Telemetry.TraceEvents == 0 {
				t.Fatalf("telemetry block = %+v", out.Telemetry)
			}
			if out.Telemetry.MemoHits != out.MemoHits {
				t.Fatalf("memo hits disagree: %d vs %d", out.Telemetry.MemoHits, out.MemoHits)
			}
		})
	}
}

func TestMetricsAndTraceEndpoints(t *testing.T) {
	svc, wl := buildTelemetryService(t)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	body, _ := json.Marshal(OptimizeRequest{Workload: wl, Probes: 12})
	resp, err := http.Post(ts.URL+"/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var out OptimizeResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// /metrics must expose the acceptance-criteria families.
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := io.ReadAll(mr.Body)
	mr.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(blob)
	for _, name := range []string{
		telemetry.MetricHTTPRequests,
		telemetry.MetricHTTPLatency,
		telemetry.MetricModelEvals,
		telemetry.MetricMemoHits,
		telemetry.MetricMOGDIterations,
	} {
		if !strings.Contains(text, name) {
			t.Errorf("/metrics missing %s", name)
		}
	}

	// /debug/trace replays the run end to end.
	tr, err := http.Get(ts.URL + "/debug/trace?run=" + out.Telemetry.RunID)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Body.Close()
	if tr.StatusCode != http.StatusOK {
		t.Fatalf("trace status = %d", tr.StatusCode)
	}
	var replay struct {
		Run    string            `json:"run"`
		Events []telemetry.Event `json:"events"`
	}
	if err := json.NewDecoder(tr.Body).Decode(&replay); err != nil {
		t.Fatal(err)
	}
	if len(replay.Events) == 0 {
		t.Fatal("no events replayed")
	}
	scopes := map[string]bool{}
	for _, e := range replay.Events {
		if e.Run != out.Telemetry.RunID {
			t.Fatalf("foreign event in replay: %+v", e)
		}
		scopes[e.Scope] = true
	}
	for _, want := range []string{"pf", "mogd"} {
		if !scopes[want] {
			t.Errorf("replay missing scope %q (got %v)", want, scopes)
		}
	}

	// Unknown run is a 404; no run lists the known runs.
	nf, _ := http.Get(ts.URL + "/debug/trace?run=bogus")
	if nf.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown run status = %d", nf.StatusCode)
	}
	nf.Body.Close()
	ls, err := http.Get(ts.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Body.Close()
	var runList struct {
		Runs []string `json:"runs"`
	}
	if err := json.NewDecoder(ls.Body).Decode(&runList); err != nil {
		t.Fatal(err)
	}
	if len(runList.Runs) == 0 {
		t.Fatal("no runs listed")
	}
}

// buildPipelineService collects traces for two workloads so a pipeline
// request can resolve per-stage models.
func buildPipelineService(t *testing.T) (*Service, []string) {
	t.Helper()
	workloads := []string{"etl-test", "ml-test"}
	return buildMultiService(t, workloads), workloads
}

// buildMultiService collects 40 traces for each named workload (each a
// slightly heavier batch job than the one before) into one GP service.
func buildMultiService(t *testing.T, workloads []string) *Service {
	t.Helper()
	spc := spark.BatchSpace()
	cl := spark.DefaultCluster()
	st := trace.NewStore()
	for i, wl := range workloads {
		df := spark.Chain(wl, 3e6+1e6*float64(i), 100,
			spark.Operator{Kind: spark.OpScan, Selectivity: 1, CostPerRow: 1 + 0.5*float64(i)},
			spark.Operator{Kind: spark.OpExchange, Selectivity: 1, CostPerRow: 0.1},
			spark.Operator{Kind: spark.OpAggregate, Selectivity: 0.01, CostPerRow: 0.5, MemPerRow: 64},
		)
		run := func(conf space.Values, seed int64) (map[string]float64, []float64, error) {
			m, err := spark.Run(df, spc, conf, cl, seed)
			if err != nil {
				return nil, nil, err
			}
			return map[string]float64{"latency": m.LatencySec}, m.TraceVector(), nil
		}
		rng := rand.New(rand.NewSource(int64(i + 1)))
		confs, err := trace.HeuristicSample(spc, spark.DefaultBatchConf(spc), 40, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := trace.Collect(st, spc, wl, confs, run, 1); err != nil {
			t.Fatal(err)
		}
	}
	svc := New(modelserver.New(spc, st, modelserver.Config{Kind: modelserver.GP}))
	svc.Exact["cores"] = model.Func{D: spc.Dim(), F: func(x []float64) float64 {
		vals, err := spc.Decode(x)
		if err != nil {
			return 0
		}
		inst, _ := spc.Get(vals, spark.KnobInstances)
		c, _ := spc.Get(vals, spark.KnobCores)
		return inst * c
	}}
	return svc
}

// TestOptimizePipeline is the service acceptance test: a two-stage pipeline
// request with tied cluster knobs solves through /optimize's path and reports
// per-stage recommended configurations.
func TestOptimizePipeline(t *testing.T) {
	svc, workloads := buildPipelineService(t)
	reg, err := runlog.Open(filepath.Join(t.TempDir(), "runs.jsonl"), runlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	svc.Runs = reg
	req := OptimizeRequest{
		Workload:    "pipe-test",
		Stages:      workloads,
		SharedKnobs: []string{spark.KnobInstances, spark.KnobCores},
		Probes:      24,
		Weights:     []float64{0.5, 0.5},
	}
	resp, err := svc.Optimize(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.FrontierPoints < 2 {
		t.Fatalf("frontier points = %d", resp.FrontierPoints)
	}
	if len(resp.StageConfigs) != 2 {
		t.Fatalf("stage configs = %v", resp.StageConfigs)
	}
	for _, wl := range workloads {
		sc := resp.StageConfigs[wl]
		if sc == nil {
			t.Fatalf("missing stage config for %q", wl)
		}
		// Tied knobs agree with each other and with the flat config.
		for _, shared := range []string{spark.KnobInstances, spark.KnobCores} {
			if sc[shared] != resp.Config[shared] {
				t.Fatalf("stage %q knob %q = %v, flat config %v", wl, shared, sc[shared], resp.Config[shared])
			}
		}
		// Every server knob appears in each stage view.
		for _, v := range svc.Server.Space().Vars {
			if _, ok := sc[v.Name]; !ok {
				t.Fatalf("stage %q view missing knob %q", wl, v.Name)
			}
		}
	}
	// Unshared knobs appear qualified in the flat config.
	if _, ok := resp.Config[workloads[0]+"."+spark.KnobParallelism]; !ok {
		t.Fatalf("flat config lacks qualified stage knob: %v", resp.Config)
	}
	if resp.Objectives["latency"] <= 0 || resp.Objectives["cores"] <= 0 {
		t.Fatalf("bad objectives: %v", resp.Objectives)
	}
	// The run registry records the pipeline structure and the per-stage
	// recommendation.
	if resp.RunRecord == "" {
		t.Fatal("pipeline run not recorded")
	}
	rec, ok := reg.Get(resp.RunRecord)
	if !ok {
		t.Fatalf("record %q not in registry", resp.RunRecord)
	}
	if len(rec.Stages) != 2 {
		t.Fatalf("record has %d stages", len(rec.Stages))
	}
	for i, st := range rec.Stages {
		if st.Workload != workloads[i] || st.Name != workloads[i] {
			t.Fatalf("stage %d = %+v, want workload %q", i, st, workloads[i])
		}
		if st.Dim != svc.Server.Space().Dim() {
			t.Fatalf("stage %d dim %d != server space dim %d", i, st.Dim, svc.Server.Space().Dim())
		}
	}
	if len(rec.StageRecommended) != 2 {
		t.Fatalf("record stage recommendations: %v", rec.StageRecommended)
	}
	if rec.Space.Dim != svc.Server.Space().Dim()*2-2 {
		// 2 shared integer knobs counted once: composite flat dim.
		t.Fatalf("record space dim %d", rec.Space.Dim)
	}

	// A repeated call answers from the cached pipeline optimizer.
	evals := resp.ModelEvals
	resp2, err := svc.Optimize(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.ModelEvals != evals {
		t.Fatalf("cached pipeline re-solve grew evals: %d -> %d", evals, resp2.ModelEvals)
	}
}

func TestOptimizePipelineValidation(t *testing.T) {
	svc, workloads := buildPipelineService(t)
	if _, err := svc.Optimize(OptimizeRequest{Workload: "p", Stages: []string{""}}); err == nil {
		t.Fatal("empty stage workload accepted")
	}
	if _, err := svc.Optimize(OptimizeRequest{Workload: "p", Stages: workloads, SharedKnobs: []string{"no-such-knob"}}); err == nil {
		t.Fatal("unknown shared knob accepted")
	}
	if _, err := svc.Optimize(OptimizeRequest{Workload: "p", Stages: []string{"missing-workload"}, Probes: 5}); err == nil {
		t.Fatal("unknown stage workload accepted")
	}
}
