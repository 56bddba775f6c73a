package service

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	udao "repro"
	"repro/internal/model"
	"repro/internal/runlog"
	"repro/internal/spark"
)

// TestFlatAnswerMatchesNewOptimizer: a flat request is built as a one-stage
// composite, and its answer equals udao.NewOptimizer's over the same models
// and seed bit for bit — recommended config, objective values, every
// frontier point and the uncertain space — with the flat response shape.
func TestFlatAnswerMatchesNewOptimizer(t *testing.T) {
	for _, tc := range []struct {
		objectives []string
		weights    []float64
	}{
		{[]string{"latency", "cores"}, []float64{0.7, 0.3}},
		{[]string{"latency", "cores", "-parallelism"}, []float64{0.5, 0.3, 0.2}},
	} {
		t.Run(strings.Join(tc.objectives, ","), func(t *testing.T) {
			svc, wl := buildService(t)
			svc.Seed = 7
			spc := svc.Server.Space()
			svc.Exact["parallelism"] = model.Func{D: spc.Dim(), F: func(x []float64) float64 {
				vals, err := spc.Decode(x)
				if err != nil {
					return 0
				}
				p, _ := spc.Get(vals, spark.KnobParallelism)
				return p
			}}
			reg, err := runlog.Open(filepath.Join(t.TempDir(), "runs.jsonl"), runlog.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer reg.Close()
			svc.Runs = reg

			req := OptimizeRequest{Workload: wl, Objectives: tc.objectives, Weights: tc.weights, Probes: 16}
			resp, err := svc.Optimize(req)
			if err != nil {
				t.Fatal(err)
			}
			rec, ok := reg.Get(resp.RunRecord)
			if !ok {
				t.Fatalf("run record %q not found", resp.RunRecord)
			}

			objs := make([]udao.Objective, len(tc.objectives))
			for i, n := range tc.objectives {
				name := strings.TrimPrefix(n, "-")
				m, ok := svc.Exact[name]
				if !ok {
					if m, err = svc.Server.Model(wl, name); err != nil {
						t.Fatal(err)
					}
				}
				objs[i] = udao.Objective{Name: name, Model: m, Maximize: name != n}
			}
			ref, err := udao.NewOptimizer(spc, objs, udao.Options{Probes: req.Probes, Seed: svc.Seed})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ref.ParetoFrontier(); err != nil {
				t.Fatal(err)
			}
			plan, err := ref.Recommend(udao.WUN, req.Weights)
			if err != nil {
				t.Fatal(err)
			}
			uncertain, err := ref.UncertainSpace()
			if err != nil {
				t.Fatal(err)
			}

			conf := make(map[string]float64, len(spc.Vars))
			for i, v := range spc.Vars {
				conf[v.Name] = float64(plan.Config[i])
			}
			if !reflect.DeepEqual(resp.Config, conf) {
				t.Errorf("config = %v, NewOptimizer %v", resp.Config, conf)
			}
			if !reflect.DeepEqual(resp.Objectives, plan.Objectives) {
				t.Errorf("objectives = %v, NewOptimizer %v", resp.Objectives, plan.Objectives)
			}
			front := ref.FrontierPoints()
			if resp.FrontierPoints != len(front) || len(rec.Frontier) != len(front) {
				t.Fatalf("frontier points = %d (recorded %d), NewOptimizer %d", resp.FrontierPoints, len(rec.Frontier), len(front))
			}
			for i, p := range rec.Frontier {
				if !reflect.DeepEqual(p.F, front[i]) {
					t.Errorf("frontier point %d = %v, NewOptimizer %v", i, p.F, front[i])
				}
			}
			if math.Float64bits(resp.UncertainSpace) != math.Float64bits(uncertain) {
				t.Errorf("uncertain space = %v, NewOptimizer %v", resp.UncertainSpace, uncertain)
			}
			if resp.StageConfigs != nil || rec.Stages != nil || rec.StageRecommended != nil {
				t.Errorf("flat answer carries stage fields: %v, %v, %v", resp.StageConfigs, rec.Stages, rec.StageRecommended)
			}
		})
	}
}

// optimizeStatus sends one /optimize request and returns the status code.
func optimizeStatus(t *testing.T, url string, req OptimizeRequest) int {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestAliasedWorkloadIsNotServed: a workload name that spells out another
// request's objectives must not reach that request's cache entry. With keys
// joined by a bare "|", both requests below key to "svc-test|cores|latency"
// and the second is served the first's frontier though its workload does
// not exist.
func TestAliasedWorkloadIsNotServed(t *testing.T) {
	svc, wl := buildService(t)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	if code := optimizeStatus(t, ts.URL, OptimizeRequest{Workload: wl, Objectives: []string{"cores", "latency"}, Probes: 8}); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if code := optimizeStatus(t, ts.URL, OptimizeRequest{Workload: wl + "|cores", Objectives: []string{"latency"}, Probes: 8}); code != http.StatusNotFound {
		t.Fatalf("aliased request status %d, want 404", code)
	}
}

// TestOptimizeRejectsAtBoundary: inputs the builder would accept silently are
// refused with 400 before anything is built.
func TestOptimizeRejectsAtBoundary(t *testing.T) {
	svc, wl := buildService(t)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	for _, tc := range []struct {
		name string
		req  OptimizeRequest
	}{
		{"shared knobs without stages", OptimizeRequest{Workload: wl, SharedKnobs: []string{spark.KnobCores}, Probes: 8}},
		{"duplicate objective", OptimizeRequest{Workload: wl, Objectives: []string{"latency", "latency"}, Probes: 8}},
		{"objective minimized and maximized", OptimizeRequest{Workload: wl, Objectives: []string{"latency", "-latency"}, Probes: 8}},
		{"duplicate shared knob", OptimizeRequest{Workload: "pipe", Stages: []string{wl}, SharedKnobs: []string{spark.KnobCores, spark.KnobCores}, Probes: 8}},
		{"negative probes", OptimizeRequest{Workload: wl, Probes: -5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if code := optimizeStatus(t, ts.URL, tc.req); code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", code)
			}
		})
	}
	if st := svc.ServingStats(); st.Requests != 0 {
		t.Fatalf("rejected requests reached the serving cache: %+v", st)
	}
}
