package problem

import (
	"encoding/binary"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/objective"
	"repro/internal/telemetry"
)

// Options tunes an Evaluator.
type Options struct {
	// Workers bounds EvalBatch concurrency (default GOMAXPROCS).
	Workers int
	// Alpha is the uncertainty multiplier of §IV-B.3: objective values are
	// reported as F̃ = E[F] + α·std[F] for models with predictive variance.
	// Gradients remain the mean gradients (the paper's documented
	// approximation). Zero uses plain means.
	Alpha float64
	// MemoCap bounds the memoization cache in entries; 0 means the default
	// (32768), negative disables memoization entirely. When the cache fills
	// it is cleared wholesale — values are deterministic functions of the
	// point, so eviction never changes results, only hit rates.
	MemoCap int
	// Telemetry, when non-nil, mirrors the evaluator's counters into the
	// shared metrics registry (udao_model_evals_total, udao_memo_*_total,
	// eval-batch latency) and emits batch trace events. Single-point
	// evaluation paths pay only atomic counter additions — no allocations —
	// so the fused hot path stays alloc-free with telemetry attached.
	Telemetry *telemetry.Telemetry
	// RunID tags this evaluator's trace events with the logical run they
	// belong to (e.g. one /optimize call's PF computation).
	RunID string
}

func (o *Options) defaults() {
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MemoCap == 0 {
		o.MemoCap = 1 << 15
	}
}

// Evaluator is the only gateway between optimizer code and objective models.
// It owns the fused value+gradient hot path, a worker pool for batch
// evaluation, a per-problem memoization cache keyed by the encoded point, and
// an atomic evaluation counter, so every optimizer built on it reports a
// comparable evaluation count (the paper's §VI efficiency axis).
//
// Semantics:
//
//   - Eval/EvalInto/EvalBatch return the effective objective vector
//     (conservative F̃ values when Alpha > 0) and are memoized: re-evaluating
//     a bit-identical point is a cache hit that performs no model passes.
//   - ObjValueGrad is the fused per-objective path (one model pass for value
//     and input gradient); it is not memoized — gradient trajectories rarely
//     revisit points, and the fused pass is already the cheap path.
//   - Evals counts model passes actually performed (one per objective value
//     or fused value+gradient evaluation; the conservative uplift's extra
//     variance pass counts as one more). Memo hits perform and count none.
//
// An Evaluator is safe for concurrent use as long as the underlying models
// are; all scratch is caller-owned or call-local.
type Evaluator struct {
	prob *Problem
	opts Options
	// vgs fuses each objective's value+gradient evaluation.
	vgs []model.ValueGradienter
	// eff holds the objective used for reported values: the conservative
	// estimate when Alpha > 0 and the model is Uncertain, the raw model
	// otherwise.
	eff []model.Model
	// fused[j] reports whether eff[j] is the raw model, i.e. a fused
	// ValueGrad value can be reported directly.
	fused []bool
	// allBatch reports whether every effective objective has a native batched
	// pass, enabling EvalBatch's matrix path.
	allBatch bool

	evals     atomic.Uint64
	memoHits  atomic.Uint64
	memoMiss  atomic.Uint64
	memoMu    sync.RWMutex
	memo      map[string]objective.Point
	memoFlush uint64 // wholesale clears (cache pressure diagnostics)

	// Telemetry mirrors (nil when Options.Telemetry is nil). The counter
	// pointers are resolved once at construction so the hot path never takes
	// the registry lock.
	telEvals    *telemetry.Counter
	telHits     *telemetry.Counter
	telMiss     *telemetry.Counter
	telBatches  *telemetry.Counter
	telBatchH   *telemetry.Histogram
	telBatchPts *telemetry.Counter
	tracer      *telemetry.Tracer
	runID       string
	// parentSpan nests batch-eval spans under the enclosing request span;
	// set via SetParentSpan by whoever owns the request (udao.Optimizer).
	parentSpan atomic.Uint64
}

// SetParentSpan re-parents subsequent eval-batch spans under the given span
// ID (0 detaches).
func (e *Evaluator) SetParentSpan(id uint64) { e.parentSpan.Store(id) }

// NewEvaluator builds an evaluator over the problem.
func NewEvaluator(p *Problem, opts Options) *Evaluator {
	opts.defaults()
	e := &Evaluator{prob: p, opts: opts}
	for _, m := range p.Objectives {
		e.vgs = append(e.vgs, model.EnsureValueGrad(m))
		if opts.Alpha > 0 {
			if _, ok := m.(model.Uncertain); ok {
				e.eff = append(e.eff, model.Conservative{M: m, Alpha: opts.Alpha})
				e.fused = append(e.fused, false)
				continue
			}
		}
		e.eff = append(e.eff, m)
		e.fused = append(e.fused, true)
	}
	e.allBatch = true
	for _, m := range e.eff {
		if _, ok := m.(model.BatchPredictor); !ok {
			e.allBatch = false
			break
		}
	}
	if opts.MemoCap > 0 {
		e.memo = make(map[string]objective.Point)
	}
	if tel := opts.Telemetry; tel != nil {
		e.telEvals = tel.Metrics.Counter(telemetry.MetricModelEvals)
		e.telHits = tel.Metrics.Counter(telemetry.MetricMemoHits)
		e.telMiss = tel.Metrics.Counter(telemetry.MetricMemoMisses)
		e.telBatches = tel.Metrics.Counter(telemetry.MetricEvalBatches)
		e.telBatchH = tel.Metrics.Histogram(telemetry.MetricEvalBatchTime, "", nil)
		e.telBatchPts = tel.Metrics.Counter(telemetry.MetricEvalBatchPts)
		e.tracer = tel.Trace
		e.runID = opts.RunID
	}
	return e
}

// Problem returns the underlying problem definition.
func (e *Evaluator) Problem() *Problem { return e.prob }

// Dim returns the decision-space dimensionality D.
func (e *Evaluator) Dim() int { return e.prob.Dim() }

// NumObjectives returns k.
func (e *Evaluator) NumObjectives() int { return len(e.eff) }

// Alpha returns the configured uncertainty multiplier.
func (e *Evaluator) Alpha() float64 { return e.opts.Alpha }

// memoKey encodes x exactly (raw float64 bits), so memoization can never
// conflate distinct points.
func memoKey(x []float64) string {
	b := make([]byte, 8*len(x))
	for i, v := range x {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return string(b)
}

// Eval returns the effective objective vector at x as a fresh slice.
func (e *Evaluator) Eval(x []float64) objective.Point {
	f := make(objective.Point, len(e.eff))
	e.EvalInto(x, f)
	return f
}

// EvalInto writes the effective objective vector at x into f, which must
// have length k. Memoized: a repeated point costs a cache lookup, not k
// model passes.
func (e *Evaluator) EvalInto(x []float64, f objective.Point) {
	// Test MemoCap, not e.memo: a concurrent flush replaces e.memo under
	// memoMu.
	if e.opts.MemoCap <= 0 {
		e.evalModels(x, f)
		return
	}
	key := memoKey(x)
	e.memoMu.RLock()
	cached, ok := e.memo[key]
	e.memoMu.RUnlock()
	if ok {
		e.memoHits.Add(1)
		e.telHits.Add(1)
		copy(f, cached)
		return
	}
	e.memoMiss.Add(1)
	e.telMiss.Add(1)
	e.evalModels(x, f)
	stored := f.Clone()
	e.memoMu.Lock()
	if len(e.memo) >= e.opts.MemoCap {
		e.memo = make(map[string]objective.Point)
		e.memoFlush++
	}
	e.memo[key] = stored
	e.memoMu.Unlock()
}

func (e *Evaluator) evalModels(x []float64, f objective.Point) {
	for j, m := range e.eff {
		f[j] = m.Predict(x)
	}
	e.evals.Add(uint64(len(e.eff)))
	e.telEvals.Add(uint64(len(e.eff)))
}

// ObjValue returns the effective value of objective j at x (unmemoized
// single-objective path).
func (e *Evaluator) ObjValue(j int, x []float64) float64 {
	e.evals.Add(1)
	e.telEvals.Add(1)
	return e.eff[j].Predict(x)
}

// ObjValueGrad is the fused hot path (§IV-B): one model pass yields
// objective j's effective value and input gradient at x. grad, when it has
// length Dim(), is used as the output buffer and the returned slice aliases
// it; passing nil allocates. For conservative objectives (Alpha > 0 on an
// Uncertain model) the value includes the α·std uplift while the gradient
// stays the mean gradient, at the cost of one extra variance pass.
func (e *Evaluator) ObjValueGrad(j int, x, grad []float64) (float64, []float64) {
	v, g := e.vgs[j].ValueGrad(x, grad)
	e.evals.Add(1)
	e.telEvals.Add(1)
	if !e.fused[j] {
		v = e.eff[j].Predict(x)
		e.evals.Add(1)
		e.telEvals.Add(1)
	}
	return v, g
}

// EvalBatch evaluates the effective objective vectors of every point,
// returning results in input order. When every objective has a native batched
// pass (the DNN models), the points are evaluated through one matrix pass per
// objective (memo hits excluded first); otherwise the points fan out over a
// bounded worker pool. Both paths produce values bit-identical to sequential
// per-point evaluation, so the choice changes wall-clock only.
func (e *Evaluator) EvalBatch(xs [][]float64) []objective.Point {
	out := make([]objective.Point, len(xs))
	if len(xs) == 0 {
		return out
	}
	if e.telBatches != nil {
		start := time.Now()
		span := e.tracer.StartSpan(telemetry.LevelVerbose, e.runID, e.parentSpan.Load(), "eval", "batch")
		defer func() {
			dur := time.Since(start)
			e.telBatches.Add(1)
			e.telBatchH.Observe(dur.Seconds())
			if span.Recording() {
				span.End("", map[string]float64{"points": float64(len(xs))})
			}
		}()
	}
	if e.allBatch {
		return e.evalBatchMatrix(xs)
	}
	workers := e.opts.Workers
	if workers > len(xs) {
		workers = len(xs)
	}
	var next int64 = -1
	work := func() {
		for {
			i := int(atomic.AddInt64(&next, 1))
			if i >= len(xs) {
				return
			}
			out[i] = e.Eval(xs[i])
		}
	}
	if workers <= 1 {
		work()
		return out
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return out
}

// Objective returns a model-shaped view of objective j that routes every
// call through the evaluator (and its counters), so code built on the
// model.Model contract — scalarizers, single-objective descent — stays on
// the shared evaluation seam.
func (e *Evaluator) Objective(j int) model.ValueGradienter {
	return objView{e: e, j: j}
}

type objView struct {
	e *Evaluator
	j int
}

func (o objView) Dim() int { return o.e.Dim() }

func (o objView) Predict(x []float64) float64 { return o.e.ObjValue(o.j, x) }

func (o objView) Gradient(x []float64) []float64 {
	_, g := o.e.ObjValueGrad(o.j, x, nil)
	return g
}

func (o objView) ValueGrad(x, grad []float64) (float64, []float64) {
	return o.e.ObjValueGrad(o.j, x, grad)
}

// Evals returns the number of model passes performed so far.
func (e *Evaluator) Evals() uint64 { return e.evals.Load() }

// MemoStats returns cache hit and miss counts.
func (e *Evaluator) MemoStats() (hits, misses uint64) {
	return e.memoHits.Load(), e.memoMiss.Load()
}

// ResetStats zeroes the evaluation counter and memo statistics (the cache
// itself is kept — cached values stay valid for the problem's lifetime).
func (e *Evaluator) ResetStats() {
	e.evals.Store(0)
	e.memoHits.Store(0)
	e.memoMiss.Store(0)
}
