package main

import (
	"fmt"
	"time"

	udao "repro"
	"repro/internal/model"
	"repro/internal/modelserver"
	"repro/internal/runlog"
	"repro/internal/service"
	"repro/internal/serving"
	"repro/internal/telemetry"
)

// tracedStack answers /optimize requests by calling the layers' public
// functions in the order Service.Optimize calls them, wrapping each call in a
// span: serving.Cache.Acquire with timed Builder and Solver callbacks,
// modelserver.Server.Model, udao.NewOptimizer or NewPipelineOptimizer,
// Optimizer.Expand, Optimizer.Recommend and runlog.Registry.Append, and the
// optimizer's other read-side calls (ParetoFrontier, UncertainSpace,
// PredictedStd). Its
// answers must equal the service's byte for byte, which is what shows that
// it follows the service faithfully.
type tracedStack struct {
	svc   *service.Service // for the run registry, the ledger and the seed
	ms    *modelserver.Server
	exact map[string]model.Model
	tel   *telemetry.Telemetry
	cache *serving.Cache
}

func newTracedStack(e *env, ms *modelserver.Server) *tracedStack {
	// Zero tuning values give the serving defaults, as in the service.
	return &tracedStack{svc: e.svc, ms: ms, exact: e.svc.Exact, tel: e.tel, cache: serving.NewCache(serving.Config{Telemetry: e.tel})}
}

// defaultObjectives is the service's objective list for requests naming none.
var defaultObjectives = []string{"latency", "cores"}

// requestKey is the serving-cache key the service derives from a request.
func requestKey(req service.OptimizeRequest) string {
	key := req.Workload
	names := req.Objectives
	if len(names) == 0 {
		names = defaultObjectives
	}
	for _, n := range names {
		key += "|" + n
	}
	for _, w := range req.Stages {
		key += "|stage:" + w
	}
	for _, n := range req.SharedKnobs {
		key += "|shared:" + n
	}
	return key
}

// model fetches (training if needed) one learned objective's model.
func (t *tracedStack) model(r *reqSpans, parent int, workload, objective string) (model.Model, error) {
	h := r.begin("modelserver.model", parent)
	m, err := t.ms.Model(workload, objective)
	r.end(h)
	return m, err
}

func splitMax(n string) (string, bool) {
	if len(n) > 0 && n[0] == '-' {
		return n[1:], true
	}
	return n, false
}

func (t *tracedStack) flatOptimizer(r *reqSpans, parent int, req service.OptimizeRequest, probes int) (*udao.Optimizer, error) {
	names := req.Objectives
	if len(names) == 0 {
		names = defaultObjectives
	}
	objs := make([]udao.Objective, 0, len(names))
	for _, n := range names {
		n, maximize := splitMax(n)
		m, ok := t.exact[n]
		if !ok {
			var err error
			if m, err = t.model(r, parent, req.Workload, n); err != nil {
				return nil, err
			}
		}
		objs = append(objs, udao.Objective{Name: n, Model: m, Maximize: maximize})
	}
	h := r.begin("udao.new_optimizer", parent)
	defer r.end(h)
	return udao.NewOptimizer(t.ms.Space(), objs, udao.Options{Probes: probes, Seed: t.svc.Seed, Telemetry: t.tel, RunID: t.tel.NextRunID("opt"), Workload: req.Workload})
}

// pipelineOptimizer builds the service's stage-wise optimizer for requests
// that share every knob across stages, the only kind the decks send.
func (t *tracedStack) pipelineOptimizer(r *reqSpans, parent int, req service.OptimizeRequest, probes int) (*udao.Optimizer, error) {
	if len(req.SharedKnobs) > 0 {
		return nil, fmt.Errorf("traced stack: shared-knob subsets are not part of any deck")
	}
	spc := t.ms.Space()
	stages := make([]udao.Stage, len(req.Stages))
	seen := make(map[string]int, len(req.Stages))
	for i, w := range req.Stages {
		name := w
		seen[w]++
		if seen[w] > 1 {
			name = fmt.Sprintf("%s#%d", w, seen[w])
		}
		stages[i] = udao.Stage{Name: name, Vars: spc.Vars}
	}
	names := req.Objectives
	if len(names) == 0 {
		names = defaultObjectives
	}
	objs := make([]udao.PipelineObjective, 0, len(names))
	for _, n := range names {
		n, maximize := splitMax(n)
		ms := make([]udao.Model, len(stages))
		if m, ok := t.exact[n]; ok {
			ms[0] = m
		} else {
			for i := range stages {
				m, err := t.model(r, parent, req.Stages[i], n)
				if err != nil {
					return nil, err
				}
				ms[i] = m
			}
		}
		objs = append(objs, udao.PipelineObjective{Name: n, StageModels: ms, Maximize: maximize})
	}
	h := r.begin("udao.new_optimizer", parent)
	defer r.end(h)
	c, err := udao.NewCompositeSpace(spc.Vars, stages)
	if err != nil {
		return nil, err
	}
	return udao.NewPipelineOptimizer(c, objs, udao.Options{Probes: probes, Starts: 8 * len(stages), Seed: t.svc.Seed, Telemetry: t.tel, RunID: t.tel.NextRunID("opt"), Workload: req.Workload})
}

// optimize is Service.Optimize, one layer call at a time.
func (t *tracedStack) optimize(r *reqSpans, req service.OptimizeRequest) (*service.OptimizeResponse, error) {
	start := time.Now()
	root := r.begin("request", -1)
	defer r.end(root)
	probes := req.Probes
	if probes == 0 {
		probes = servingProbes
	}
	acq := -1
	build := func() (*udao.Optimizer, error) {
		h := r.begin("serving.build", acq)
		defer r.end(h)
		if len(req.Stages) > 0 {
			return t.pipelineOptimizer(r, h, req, probes)
		}
		return t.flatOptimizer(r, h, req, probes)
	}
	solve := func(opt *udao.Optimizer, delta int) error {
		h := r.begin("serving.solve", acq)
		defer r.end(h)
		x := r.begin("core.expand", h)
		_, err := opt.Expand(delta)
		r.end(x)
		return err
	}
	acq = r.begin("serving.acquire", root)
	lease, served, err := t.cache.Acquire(requestKey(req), probes, build, solve)
	r.end(acq)
	if err != nil {
		return nil, err
	}
	defer lease.Release()
	opt := lease.Optimizer()
	h := r.begin("udao.frontier", root)
	front, err := opt.ParetoFrontier()
	r.end(h)
	if err != nil {
		return nil, err
	}
	h = r.begin("recommend", root)
	plan, err := opt.Recommend(udao.WUN, req.Weights)
	r.end(h)
	if err != nil {
		return nil, err
	}
	h = r.begin("udao.uncertain_space", root)
	uncertain, _ := opt.UncertainSpace()
	r.end(h)
	spc := opt.Space()
	conf := make(map[string]float64, spc.NumVars())
	for i, v := range spc.Vars {
		conf[v.Name] = float64(plan.Config[i])
	}
	hits, misses := opt.MemoStats()
	h = r.begin("udao.predicted_std", root)
	std := opt.PredictedStd(plan.X)
	r.end(h)
	resp := &service.OptimizeResponse{
		Config:         conf,
		Objectives:     plan.Objectives,
		FrontierPoints: len(front),
		UncertainSpace: uncertain,
		ModelEvals:     opt.Evals(),
		MemoHits:       hits,
		PredictedStd:   std,
		Served:         served.String(),
	}
	if comp := opt.CompositeSpace(); comp != nil && plan.Stages != nil {
		resp.StageConfigs = make(map[string]map[string]float64, len(plan.Stages))
		for si := range comp.Stages {
			name := comp.Stages[si].Name
			sv, ok := plan.Stages[name]
			if !ok {
				continue
			}
			ss := comp.StageSpace(si)
			m := make(map[string]float64, len(ss.Vars))
			for j, v := range ss.Vars {
				m[v.Name] = float64(sv[j])
			}
			resp.StageConfigs[name] = m
		}
	}
	rec := runRecord(req, opt, resp, uncertain, misses, time.Since(start))
	h = r.begin("runlog.append", root)
	stored, err := t.svc.Runs.Append(rec)
	r.end(h)
	if err != nil {
		return nil, err
	}
	resp.RunRecord = stored.ID
	return resp, nil
}

// runRecord is the run-registry record the service appends for one answer.
func runRecord(req service.OptimizeRequest, opt *udao.Optimizer, resp *service.OptimizeResponse, uncertain float64, misses uint64, solve time.Duration) runlog.Record {
	spc := opt.Space()
	vars := make([]string, len(spc.Vars))
	for i, v := range spc.Vars {
		vars[i] = v.Name
	}
	objectives := req.Objectives
	if len(objectives) == 0 {
		objectives = defaultObjectives
	}
	pts := opt.FrontierPoints()
	front := make([]runlog.FrontierPoint, len(pts))
	for i, f := range pts {
		front[i] = runlog.FrontierPoint{F: f}
	}
	var expands []runlog.ExpandStep
	for _, st := range opt.ExpandHistory() {
		expands = append(expands, runlog.ExpandStep{
			Probes:        st.Probes,
			TotalProbes:   st.TotalProbes,
			Frontier:      st.Frontier,
			Hypervolume:   st.Hypervolume,
			UncertainFrac: st.UncertainFrac,
			ElapsedSec:    st.Elapsed.Seconds(),
		})
	}
	rec := runlog.Record{
		Workload:     req.Workload,
		Objectives:   objectives,
		Weights:      req.Weights,
		Probes:       req.Probes,
		Space:        runlog.SpaceInfo{Vars: vars, Dim: spc.Dim()},
		Frontier:     front,
		Recommended:  resp.Config,
		Objective:    resp.Objectives,
		PredictedStd: resp.PredictedStd,
		Served:       resp.Served,
		Quality:      runlog.Quality{UncertainFrac: uncertain},
		Evals:        resp.ModelEvals,
		MemoHits:     resp.MemoHits,
		MemoMisses:   misses,
		SolveSec:     solve.Seconds(),
		Expands:      expands,
		TraceRunID:   opt.RunID(),
	}
	if comp := opt.CompositeSpace(); comp != nil {
		rec.Stages = make([]runlog.StageInfo, comp.NumStages())
		for si := range comp.Stages {
			ss := comp.StageSpace(si)
			svars := make([]string, len(ss.Vars))
			for j, v := range ss.Vars {
				svars[j] = v.Name
			}
			rec.Stages[si] = runlog.StageInfo{Name: comp.Stages[si].Name, Workload: req.Stages[si], Vars: svars, Dim: ss.Dim()}
		}
		rec.SharedKnobs = req.SharedKnobs
		rec.StageRecommended = resp.StageConfigs
	}
	return rec
}

// observe is the traced POST /observe: Service.Observe in a span.
func (t *tracedStack) observe(r *reqSpans, req request, resp *service.OptimizeResponse) error {
	root := r.begin("observe", -1)
	h := r.begin("calib.observe", root)
	_, _, err := t.svc.Observe(observation(req, resp))
	r.end(h)
	r.end(root)
	return err
}
