package main

import (
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench/tpcxbb"
	"repro/internal/calib"
	"repro/internal/model"
	"repro/internal/modelserver"
	"repro/internal/runlog"
	"repro/internal/service"
	"repro/internal/space"
	"repro/internal/spark"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// tracesPerWorkload is the training-set size per workload (udao-server's
// -samples default).
const tracesPerWorkload = 60

// serviceSeed is udao-server's -seed default. The service is built with it
// whatever the benchmark's --seed: the seed generates the requests, and the
// program receives only those. It seeds the training traces' sampling and
// the solver, so every run answers from the same models and frontiers.
const serviceSeed = 1

// env is one in-process service, built the way udao-server builds it by
// default: GP models, a run registry and a calibration ledger (here in a
// temporary directory), the exact cores objective. Program tracing is off and
// there is no watchdog: its background sweeps would add noise.
type env struct {
	tel   *telemetry.Telemetry
	spc   *space.Space
	store *trace.Store
	svc   *service.Service
	dir   string
	// handler serves the current service; renew swaps it.
	handler atomic.Pointer[http.Handler]
}

// newEnv samples and collects the traces of the given workloads and builds
// the service over them. No model is trained yet.
func newEnv(stateRoot string, ids []int) (*env, error) {
	tel := telemetry.New()
	tel.Trace.SetLevel(telemetry.LevelOff)
	spc := spark.BatchSpace()
	cluster := spark.DefaultCluster()
	store := trace.NewStore()
	for _, id := range ids {
		w := tpcxbb.ByID(id)
		runner := func(conf space.Values, s int64) (map[string]float64, []float64, error) {
			m, err := spark.Run(w.Flow, spc, conf, cluster, s)
			if err != nil {
				return nil, nil, err
			}
			return map[string]float64{"latency": m.LatencySec, "cores": m.Cores, "cost2": m.Cost2()}, m.TraceVector(), nil
		}
		confs, err := trace.HeuristicSample(spc, spark.DefaultBatchConf(spc), tracesPerWorkload, rand.New(rand.NewSource(serviceSeed+int64(id))))
		if err != nil {
			return nil, fmt.Errorf("sampling %s: %w", w.Flow.Name, err)
		}
		if err := trace.Collect(store, spc, w.Flow.Name, confs, runner, serviceSeed); err != nil {
			return nil, fmt.Errorf("collecting %s: %w", w.Flow.Name, err)
		}
	}
	dir, err := os.MkdirTemp(stateRoot, "state-")
	if err != nil {
		return nil, err
	}
	e := &env{tel: tel, spc: spc, store: store, dir: dir}
	svc := service.New(e.newModelServer())
	svc.Seed = serviceSeed
	svc.Telemetry = tel
	// udao-server logs every request; the text is formatted and discarded so
	// the run pays the formatting but not terminal I/O.
	svc.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	svc.Exact["cores"] = coresModel(spc)
	if svc.Runs, err = runlog.Open(filepath.Join(dir, "runs.jsonl"), runlog.Options{}); err != nil {
		e.close()
		return nil, err
	}
	if svc.Calib, err = calib.Open(filepath.Join(dir, "calib.jsonl"), calib.Options{Telemetry: tel}); err != nil {
		svc.Runs.Close()
		e.close()
		return nil, err
	}
	e.use(svc)
	return e, nil
}

func (e *env) use(svc *service.Service) {
	h := svc.Handler()
	e.svc = svc
	e.handler.Store(&h)
}

// serve is the HTTP handler of whichever service the env currently holds.
func (e *env) serve() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		(*e.handler.Load()).ServeHTTP(w, req)
	})
}

// renew replaces the service by one with an empty serving cache, over the
// same model server (a fresh, untrained one when untrained is set), run
// registry and calibration ledger. Nothing may be in flight.
func (e *env) renew(untrained bool) {
	old := e.svc
	ms := old.Server
	if untrained {
		ms = e.newModelServer()
	}
	svc := service.New(ms)
	svc.Seed, svc.Telemetry, svc.Logger = old.Seed, old.Telemetry, old.Logger
	svc.Exact, svc.Runs, svc.Calib = old.Exact, old.Runs, old.Calib
	e.use(svc)
}

// newModelServer is a model server over the env's traces with no trained
// models.
func (e *env) newModelServer() *modelserver.Server {
	return modelserver.New(e.spc, e.store, modelserver.Config{Kind: modelserver.GP, Telemetry: e.tel})
}

// coresModel is the exact #cores objective udao-server registers.
func coresModel(spc *space.Space) model.Model {
	return model.Func{D: spc.Dim(), F: func(x []float64) float64 {
		vals, err := spc.Decode(x)
		if err != nil {
			return 0
		}
		inst, _ := spc.Get(vals, spark.KnobInstances)
		cores, _ := spc.Get(vals, spark.KnobCores)
		return inst * cores
	}}
}

func (e *env) close() error {
	var first error
	if e.svc != nil {
		if err := e.svc.Calib.Close(); err != nil {
			first = err
		}
		if err := e.svc.Runs.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := os.RemoveAll(e.dir); err != nil && first == nil {
		first = err
	}
	return first
}

// train fits every learned objective's model of the given workloads.
func (e *env) train(ids []int) error {
	for _, n := range names(ids) {
		for _, obj := range []string{"latency", "cost2"} {
			if _, err := e.svc.Server.Model(n, obj); err != nil {
				return err
			}
		}
	}
	return nil
}

// warm answers each key once, nproc keys at a time, so that every later
// request for it is a serving-cache hit.
func (e *env) warm(keys []service.OptimizeRequest) error {
	var wg sync.WaitGroup
	errs := make([]error, len(keys))
	sem := make(chan struct{}, runtime.NumCPU())
	for i, k := range keys {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, k service.OptimizeRequest) {
			defer wg.Done()
			defer func() { <-sem }()
			_, errs[i] = e.svc.Optimize(k)
		}(i, k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("warming the serving cache: %w", err)
		}
	}
	return nil
}

// setupFor builds the env a workload starts from: traces for its pool, and
// for hit and cold every model trained; for hit every key also warmed.
func setupFor(workload, stateRoot string) (*env, error) {
	var ids []int
	switch workload {
	case "hit":
		ids = hitIDs
	case "cold":
		ids = coldIDs
	default:
		ids = firstTouchIDs
	}
	e, err := newEnv(stateRoot, ids)
	if err != nil {
		return nil, err
	}
	switch workload {
	case "hit":
		err = e.warm(hitKeys())
	case "cold":
		err = e.train(coldIDs)
	}
	if err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// Set-up is repeated so that its median is steady: at least minSetups times
// and until setupFloor has passed, at most maxSetups times. First-touch
// set-up only collects traces, in about 10 ms, and takes a hundred or more
// repeats to steady its median.
const (
	minSetups  = 3
	maxSetups  = 500
	setupFloor = 1500 * time.Millisecond
)

// setupRepeated builds the workload's env several times, keeps the last one
// and returns the median set-up time in seconds.
func setupRepeated(workload, stateRoot string) (*env, float64, error) {
	var times []float64
	var spent time.Duration
	for {
		t0 := time.Now()
		e, err := setupFor(workload, stateRoot)
		if err != nil {
			return nil, 0, err
		}
		d := time.Since(t0)
		times = append(times, d.Seconds())
		spent += d
		if len(times) >= maxSetups || (len(times) >= minSetups && spent >= setupFloor) {
			return e, median(times), nil
		}
		if err := e.close(); err != nil {
			return nil, 0, err
		}
	}
}
