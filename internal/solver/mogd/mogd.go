// Package mogd implements the paper's Multi-Objective Gradient Descent
// solver (§IV-B): constrained single-objective optimization over learned
// models via a carefully-crafted loss (Eq. 3), Adam updates, multi-start,
// [0,1]^D boundary clamping, and the variable transformation handled by
// package space. It also supports the uncertainty-aware objectives
// F̃(x) = E[F(x)] + α·std[F(x)] of §IV-B.3.
//
// The loss for constrained optimization with target objective i is
//
//	L(x) = 1{0 ≤ F̂i ≤ 1}·F̂i² + Σ_j 1{F̂j < 0 ∨ F̂j > 1}·[(F̂j − ½)² + P]
//
// where F̂j is Fj normalized by its constraint bounds and P is a penalty
// constant. Descent directions use the analytic mean gradients of the
// models; the α·std uplift enters the loss values and feasibility checks
// (its gradient is omitted — a documented approximation that keeps descent
// cheap and deterministic for MC-dropout models).
//
// Hot path: all model access goes through a problem.Evaluator. One Solve
// advances ALL multi-starts together — each Adam iteration packs the start
// iterates into a Starts×D matrix and evaluates every objective with one
// batched forward pass (one blocked GEMM per layer, see internal/linalg),
// deferring each objective's backward pass behind a model.BatchGrad
// continuation that is skipped entirely when the objective's loss coefficient
// is zero on every row (constraints strictly inside their box contribute no
// gradient). The batched kernels are bit-identical to the scalar fused path,
// so results match the former per-start implementation exactly. Candidate
// evaluations on the rounded configuration lattice hit the evaluator's memo
// cache; SolveBatch fans its probes out on a Workers-bounded pool; and, with
// Config.NearStarts, batch probes warm-start one start row from the nearest
// earlier incumbent. Models must be safe for concurrent Predict/ValueGrad
// calls.
package mogd

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/linalg"
	"repro/internal/model"
	"repro/internal/objective"
	"repro/internal/problem"
	"repro/internal/solver"
	"repro/internal/space"
	"repro/internal/telemetry"
)

// Problem couples the k objective models with an optional configuration
// lattice used to round solutions to deployable configurations.
type Problem struct {
	Objectives []model.Model
	Space      *space.Space // optional; nil keeps solutions continuous
}

// Config tunes the solver. For every field, zero means "use the default";
// negative values are rejected by New.
type Config struct {
	Starts  int     // multi-start count (default 8; start 0 is the center)
	Iters   int     // Adam iterations per start (default 100)
	LR      float64 // Adam learning rate in normalized x-space (default 0.05)
	Penalty float64 // P of Eq. 3 (default 100)
	Alpha   float64 // uncertainty multiplier for F̃ = E + α·std (default 0)
	Tol     float64 // feasibility tolerance on the normalized scale (default 1e-4)
	Workers int     // max concurrent starts/probes across Solve+SolveBatch (default GOMAXPROCS)
	Seed    int64
	// NearStarts, when true, keeps the solver's feasible incumbents (the
	// newest 512 of them) and, inside SolveBatch, seeds the last
	// multi-start row of each probe from the incumbent of the nearest earlier
	// ε-constraint box with the same target (L1 distance over the finite
	// bounds; boxes whose infinity patterns differ are incomparable) instead
	// of a random draw. PF expand loops revisit slightly-shifted rectangles,
	// so the neighbour's incumbent is usually feasible here too and descent
	// starts next to the optimum. The seed is only a starting point: the
	// result is still evaluated under the current models and must pass the
	// feasibility check, so a neighbour from before a retrain cannot leak
	// into a frontier.
	//
	// Determinism: each SolveBatch reads the incumbent list before it fans
	// out and appends its own feasible results in input order once every
	// probe is done, so results and eviction are independent of probe
	// scheduling. Standalone Solve calls never warm-start but do append
	// their result. With NearStarts on, a batch probe's result may
	// legitimately differ from the same (co, seed) solved standalone (it had
	// a better starting point).
	NearStarts bool
	// Telemetry, when non-nil, feeds the solver's counters (iterations,
	// boundary clamps, solves, infeasible solves, near warm-starts)
	// and emits one trace event per Solve (per-start events at
	// LevelVerbose), tagged with RunID. The Adam inner loop pays no
	// allocations and no atomics for it — per-start tallies are accumulated
	// locally and flushed once per start.
	Telemetry *telemetry.Telemetry
	RunID     string
	// Workload, when set together with Telemetry, additionally labels the
	// near warm-start counter per workload
	// (udao_pf_subcache_near_hits_total{workload="..."}), alongside the
	// global total.
	Workload string
}

// validate rejects explicitly invalid settings; zero stays "default".
func (c Config) validate() error {
	switch {
	case c.Starts < 0:
		return fmt.Errorf("mogd: Starts must be >= 0 (zero means default), got %d", c.Starts)
	case c.Iters < 0:
		return fmt.Errorf("mogd: Iters must be >= 0 (zero means default), got %d", c.Iters)
	case c.Workers < 0:
		return fmt.Errorf("mogd: Workers must be >= 0 (zero means default), got %d", c.Workers)
	case c.LR < 0 || math.IsNaN(c.LR):
		return fmt.Errorf("mogd: LR must be >= 0 (zero means default), got %v", c.LR)
	case c.Penalty < 0 || math.IsNaN(c.Penalty):
		return fmt.Errorf("mogd: Penalty must be >= 0 (zero means default), got %v", c.Penalty)
	case c.Tol < 0 || math.IsNaN(c.Tol):
		return fmt.Errorf("mogd: Tol must be >= 0 (zero means default), got %v", c.Tol)
	case c.Alpha < 0 || math.IsNaN(c.Alpha):
		return fmt.Errorf("mogd: Alpha must be >= 0, got %v", c.Alpha)
	}
	return nil
}

func (c *Config) defaults() {
	if c.Starts == 0 {
		c.Starts = 8
	}
	if c.Iters == 0 {
		c.Iters = 100
	}
	if c.LR == 0 {
		c.LR = 0.05
	}
	if c.Penalty == 0 {
		c.Penalty = 100
	}
	if c.Tol == 0 {
		c.Tol = 1e-4
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
}

// Solver solves CO problems over a fixed Problem. It is safe for concurrent
// use as long as the underlying models are.
type Solver struct {
	// ev is the single gateway to the objective models: fused
	// value+gradient passes, memoized lattice evaluations, and the shared
	// evaluation counter all live there.
	ev  *problem.Evaluator
	spc *space.Space
	cfg Config
	dim int
	k   int
	// sem is the shared token pool bounding extra worker goroutines across
	// SolveBatch probes. Capacity is Workers-1: the calling goroutine always
	// works too, so total parallelism from one caller never exceeds Workers.
	sem chan struct{}
	// scratch recycles per-Solve batched buffers (the multi-start matrices)
	// across Solve calls.
	scratch sync.Pool
	// incMu guards incumbents, the NearStarts candidate list: feasible
	// solutions in insertion order, oldest first, at most maxIncumbents.
	incMu      sync.Mutex
	incumbents []*incumbent

	// Telemetry instruments (nil when Config.Telemetry is nil), resolved
	// once at construction.
	telIters  *telemetry.Counter
	telClamps *telemetry.Counter
	telSolves *telemetry.Counter
	telInfeas *telemetry.Counter
	telNear   *telemetry.Counter
	// telNearW is the per-workload near series (nil without
	// Config.Workload); the instruments are nil-safe so call sites never
	// branch.
	telNearW *telemetry.Counter
	tracer   *telemetry.Tracer
	runID    string
	// parentSpan is the span ID the next solve/solve_batch spans nest under,
	// set per expand step by core.Run (and per batch by SolveBatch itself).
	parentSpan atomic.Uint64
}

// New validates the problem and configuration and builds a solver with its
// own evaluator (Alpha and Workers taken from cfg).
func New(prob Problem, cfg Config) (*Solver, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	p, err := problem.New(prob.Objectives, prob.Space)
	if err != nil {
		return nil, fmt.Errorf("mogd: %w", err)
	}
	cfg.defaults()
	ev := problem.NewEvaluator(p, problem.Options{Workers: cfg.Workers, Alpha: cfg.Alpha})
	return NewOnEvaluator(ev, cfg)
}

// NewOnEvaluator builds a solver on an existing evaluator — callers that run
// several optimizers over one problem (udao.Optimizer, the experiment
// harness) share its memo cache and evaluation counter this way. The
// evaluator's Alpha governs uncertainty handling; cfg.Alpha is only used when
// New constructs the evaluator itself.
func NewOnEvaluator(ev *problem.Evaluator, cfg Config) (*Solver, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg.defaults()
	s := &Solver{
		ev:  ev,
		spc: ev.Problem().Space,
		cfg: cfg,
		dim: ev.Dim(),
		k:   ev.NumObjectives(),
		sem: make(chan struct{}, cfg.Workers-1),
	}
	if tel := cfg.Telemetry; tel != nil {
		s.telIters = tel.Metrics.Counter(telemetry.MetricMOGDIterations)
		s.telClamps = tel.Metrics.Counter(telemetry.MetricMOGDClamps)
		s.telSolves = tel.Metrics.Counter(telemetry.MetricMOGDSolves)
		s.telInfeas = tel.Metrics.Counter(telemetry.MetricMOGDInfeasible)
		s.telNear = tel.Metrics.Counter(telemetry.MetricMOGDCacheNear)
		if cfg.Workload != "" {
			s.telNearW = tel.Metrics.Counter(telemetry.Labeled(telemetry.MetricMOGDCacheNear, "workload", cfg.Workload))
		}
		s.tracer = tel.Trace
		s.runID = cfg.RunID
	}
	s.scratch.New = func() interface{} { return s.newSolveScratch() }
	return s, nil
}

// Dim returns the decision-space dimensionality.
func (s *Solver) Dim() int { return s.dim }

// NumObjectives returns k.
func (s *Solver) NumObjectives() int { return s.k }

// Evaluator exposes the solver's evaluation seam (counters, memo stats).
func (s *Solver) Evaluator() *problem.Evaluator { return s.ev }

// Evals reports the model passes performed through the solver's evaluator.
func (s *Solver) Evals() uint64 { return s.ev.Evals() }

// solveScratch holds one Solve's batched buffers: the multi-start iterate
// matrix, Adam state, loss gradients, the per-objective gradient batch, and
// the objective-value rows (raw iterates and lattice-rounded candidates).
// All matrices have one row per start.
type solveScratch struct {
	X     *linalg.Matrix // Starts×dim iterates
	G     *linalg.Matrix // Starts×dim accumulated loss gradients
	Gbuf  *linalg.Matrix // Starts×dim one objective's gradient batch
	mAdam *linalg.Matrix // Starts×dim Adam first moments
	vAdam *linalg.Matrix // Starts×dim Adam second moments
	Y     *linalg.Matrix // Starts×k effective objective values at X
	Yr    *linalg.Matrix // Starts×k values at the rounded candidates
	bestX *linalg.Matrix // Starts×dim incumbent configurations
	bestF *linalg.Matrix // Starts×k incumbent objective values
	yb    []float64      // per-objective value column
	coeff []float64      // per-row dL/dFj of the current objective
	free  []bool         // objectives with no loss influence (skip forward)
	res   []startResult
}

func (s *Solver) newSolveScratch() *solveScratch {
	n := s.cfg.Starts
	return &solveScratch{
		X:     linalg.NewMatrix(n, s.dim),
		G:     linalg.NewMatrix(n, s.dim),
		Gbuf:  linalg.NewMatrix(n, s.dim),
		mAdam: linalg.NewMatrix(n, s.dim),
		vAdam: linalg.NewMatrix(n, s.dim),
		Y:     linalg.NewMatrix(n, s.k),
		Yr:    linalg.NewMatrix(n, s.k),
		bestX: linalg.NewMatrix(n, s.dim),
		bestF: linalg.NewMatrix(n, s.k),
		yb:    make([]float64, n),
		coeff: make([]float64, n),
		free:  make([]bool, s.k),
		res:   make([]startResult, n),
	}
}

// feasible reports whether f satisfies the CO bounds within tolerance.
func (s *Solver) feasible(co solver.CO, f objective.Point) bool {
	for j := range f {
		lo, hi := co.Lo[j], co.Hi[j]
		span := hi - lo
		if math.IsInf(lo, -1) || math.IsInf(hi, 1) {
			span = math.Max(math.Abs(f[j]), 1)
		}
		tol := s.cfg.Tol * math.Max(span, 1e-12)
		if !math.IsInf(lo, -1) && f[j] < lo-tol {
			return false
		}
		if !math.IsInf(hi, 1) && f[j] > hi+tol {
			return false
		}
	}
	return true
}

// batchLossGrad evaluates Eq. 3's (sub)gradient at every start iterate in
// one pass, writing the accumulated loss gradients into sc.G and the
// effective objective values into sc.Y. Per objective it runs one batched
// forward pass (one GEMM per layer for DNN models) and requests the backward
// pass only when some row's loss coefficient dL/dFj is nonzero — constraints
// strictly inside their box, and objectives with infinite bounds other than
// the target, contribute no gradient and skip backprop entirely. The loss
// value itself is never materialized: descent uses only the gradient, and
// incumbent selection uses the objective values (exactly as the former
// per-start code, which discarded the returned loss).
//
// Per row, coefficients and the ascending-j accumulation order match the
// scalar fused path bit-for-bit, so trajectories are identical to running
// each start alone.
func (s *Solver) batchLossGrad(co solver.CO, sc *solveScratch) {
	for i := range sc.G.Data {
		sc.G.Data[i] = 0
	}
	n := sc.X.Rows
	for j := 0; j < s.k; j++ {
		if sc.free[j] {
			// No bound and not the target: the value influences neither the
			// loss coefficient nor feasibility, so the whole model pass is
			// skipped. Incumbent F slots are patched once after the descent.
			continue
		}
		h := s.ev.ObjForwardBatch(j, sc.X, sc.yb)
		lo, hi := co.Lo[j], co.Hi[j]
		bounded := !math.IsInf(lo, -1) && !math.IsInf(hi, 1) && hi > lo
		need := false
		for r := 0; r < n; r++ {
			fj := sc.yb[r]
			sc.Y.Row(r)[j] = fj
			var coeff float64 // dL/dFj (raw scale)
			switch {
			case bounded:
				span := hi - lo
				fn := (fj - lo) / span
				switch {
				case fn < 0 || fn > 1:
					coeff = 2 * (fn - 0.5) / span
				case j == co.Target:
					coeff = 2 * fn / span
				}
			case j == co.Target:
				// Unconstrained target: plain minimization; Adam adapts scale.
				coeff = 1
			default:
				// One-sided constraints: quadratic hinge outside the bound.
				if !math.IsInf(lo, -1) && fj < lo {
					coeff = -2 * (lo - fj)
				}
				if !math.IsInf(hi, 1) && fj > hi {
					coeff = 2 * (fj - hi)
				}
			}
			sc.coeff[r] = coeff
			if coeff != 0 {
				need = true
			}
		}
		if need {
			h.Grad(sc.Gbuf)
			for r := 0; r < n; r++ {
				if cf := sc.coeff[r]; cf != 0 {
					g := sc.G.Row(r)
					gb := sc.Gbuf.Row(r)
					for d := range g {
						g[d] += cf * gb[d]
					}
				}
			}
		}
		h.Done()
	}
}

// startResult is one start's best feasible candidate, plus its telemetry
// tally (iterations run and boundary clamps applied).
type startResult struct {
	sol    objective.Solution
	val    float64
	ok     bool
	iters  int
	clamps int
}

// fillStarts draws the multi-start initial iterates into X's rows from a
// single RNG in start order (start 0 is the deterministic center — the
// default configuration x0 of §IV-B). The draw sequence is identical to the
// former per-start implementation, so trajectories carry over bit-for-bit.
func (s *Solver) fillStarts(seed int64, X *linalg.Matrix) {
	rng := rand.New(rand.NewSource(s.cfg.Seed ^ seed))
	for st := 0; st < X.Rows; st++ {
		row := X.Row(st)
		if st == 0 {
			for d := range row {
				row[d] = 0.5 // the default configuration x0
			}
			continue
		}
		for d := range row {
			row[d] = rng.Float64()
		}
	}
}

// considerRow records x as the start's incumbent if it is feasible (after
// rounding to the configuration lattice) and improves the target objective.
// f holds the effective objective values at x; fr is the scratch row for
// values at the rounded candidate. res.sol's slices are scratch-owned
// incumbent buffers (copied into, never reallocated), so the Adam inner loop
// stays allocation-free; Solve clones the winner before releasing the
// scratch.
func (s *Solver) considerRow(co solver.CO, x []float64, f, fr objective.Point, res *startResult) {
	xx := x
	ff := f
	if s.spc != nil {
		rx, err := s.spc.Round(x)
		if err != nil {
			return
		}
		xx = rx
		// Lattice-rounded candidates revisit the same snapped points across
		// iterations and starts — the evaluator's memo makes these hits free.
		s.ev.EvalInto(rx, fr)
		ff = fr
	}
	if !s.feasible(co, ff) {
		return
	}
	if ff[co.Target] < res.val {
		res.val = ff[co.Target]
		copy(res.sol.X, xx)
		copy(res.sol.F, ff)
		res.ok = true
	}
}

// solveAllStarts runs every Adam trajectory in lockstep: one batched
// loss-gradient evaluation per iteration advances all starts, then each row
// takes its own Adam step with inline [0,1] clamping. Per-row arithmetic and
// its order match the former per-start loop exactly, so the incumbents in
// sc.res are bit-identical to sequential per-start descent.
func (s *Solver) solveAllStarts(co solver.CO, seed int64, near []*incumbent, sc *solveScratch) {
	s.fillStarts(seed, sc.X)
	// Near warm start (Config.NearStarts): replace the LAST random draw with
	// the nearest earlier incumbent. Overwriting after fillStarts keeps the
	// RNG draw sequence — and with it every other start row — identical to
	// the cold path; keeping rows 0..n-2 preserves the center start and the
	// exploration draws.
	if sc.X.Rows >= 2 && nearestIncumbent(near, co, sc.X.Row(sc.X.Rows-1)) {
		s.telNear.Add(1)
		s.telNearW.Add(1)
	}
	for i := range sc.mAdam.Data {
		sc.mAdam.Data[i] = 0
		sc.vAdam.Data[i] = 0
	}
	for r := range sc.res {
		sc.res[r] = startResult{val: math.Inf(1), sol: objective.Solution{
			X: sc.bestX.Row(r),
			F: objective.Point(sc.bestF.Row(r)),
		}}
	}
	// An objective with no bound on either side that is not the target can
	// never produce a loss coefficient or an infeasibility — its value exists
	// only to be reported in the solution. Skip its model pass during descent
	// (the Minimize base case halves its forward work this way) and patch the
	// incumbents afterwards.
	anyFree := false
	for j := 0; j < s.k; j++ {
		sc.free[j] = j != co.Target && math.IsInf(co.Lo[j], -1) && math.IsInf(co.Hi[j], 1)
		anyFree = anyFree || sc.free[j]
	}
	n := sc.X.Rows
	const b1, b2, eps = 0.9, 0.999, 1e-8
	for it := 1; it <= s.cfg.Iters; it++ {
		s.batchLossGrad(co, sc)
		// Bias-correction denominators hoisted out of the per-dimension loop;
		// the step expression itself is kept in the textbook shape so results
		// stay bit-identical to the unhoisted form.
		t := float64(it)
		c1 := 1 - math.Pow(b1, t)
		c2 := 1 - math.Pow(b2, t)
		for r := 0; r < n; r++ {
			res := &sc.res[r]
			x := sc.X.Row(r)
			s.considerRow(co, x, sc.Y.Row(r), sc.Yr.Row(r), res)
			grad := sc.G.Row(r)
			m := sc.mAdam.Row(r)
			v := sc.vAdam.Row(r)
			for d := range x {
				g := grad[d]
				m[d] = b1*m[d] + (1-b1)*g
				v[d] = b2*v[d] + (1-b2)*g*g
				step := s.cfg.LR * (m[d] / c1) / (math.Sqrt(v[d]/c2) + eps)
				// Clamp to the box: GD may push a variable to the boundary but
				// never across it (paper §IV-B.1). Inlined so the clamp tally
				// comes for free; results stay bit-identical.
				nv := x[d] - step
				if nv < 0 {
					nv = 0
					res.clamps++
				} else if nv > 1 {
					nv = 1
					res.clamps++
				}
				x[d] = nv
			}
		}
	}
	for r := 0; r < n; r++ {
		res := &sc.res[r]
		res.iters = s.cfg.Iters
		f := objective.Point(sc.Y.Row(r))
		s.ev.EvalInto(sc.X.Row(r), f)
		s.considerRow(co, sc.X.Row(r), f, sc.Yr.Row(r), res)
	}
	if anyFree && s.spc == nil {
		// Continuous incumbents recorded mid-descent carry stale values in the
		// skipped objectives' slots; fill them from the models now. (With a
		// Space, incumbents were evaluated in full via the memoized EvalInto on
		// the rounded point, so there is nothing to patch.)
		for r := range sc.res {
			res := &sc.res[r]
			if !res.ok {
				continue
			}
			for j := 0; j < s.k; j++ {
				if sc.free[j] {
					res.sol.F[j] = s.ev.ObjValue(j, res.sol.X)
				}
			}
		}
	}
}

// Solve runs multi-start Adam on the CO problem. The returned solution holds
// the (rounded, when a Space is configured) configuration and its effective
// objective values; ok is false when no start found a feasible point.
//
// All starts advance together through batched model passes on the calling
// goroutine (parallelism lives at the SolveBatch probe level); the result is
// deterministic: the start points come from one seeded RNG, the per-row
// arithmetic matches sequential per-start descent bit-for-bit, and the
// incumbents are reduced in start order. With Config.NearStarts a feasible
// result joins the incumbent list that later SolveBatch calls warm-start from.
func (s *Solver) Solve(co solver.CO, seed int64) (objective.Solution, bool) {
	s.checkBounds(co)
	sol, ok := s.solve(co, seed, nil)
	if ok && s.cfg.NearStarts {
		s.addIncumbents(newIncumbent(co, seed, sol))
	}
	return sol, ok
}

// solve runs one descent; near holds the incumbents a SolveBatch probe may
// warm-start from (nil on the standalone path).
func (s *Solver) solve(co solver.CO, seed int64, near []*incumbent) (objective.Solution, bool) {
	var span telemetry.Span
	if s.telSolves != nil {
		span = s.tracer.StartSpan(telemetry.LevelRun, s.runID, s.parentSpan.Load(), "mogd", "solve")
	}
	sc := s.scratch.Get().(*solveScratch)
	s.solveAllStarts(co, seed, near, sc)
	if s.tracer.Enabled(telemetry.LevelVerbose) {
		for st := range sc.res {
			r := &sc.res[st]
			s.tracer.Emit(telemetry.LevelVerbose, telemetry.Event{
				Run: s.runID, Scope: "mogd", Name: "start",
				Attrs: map[string]float64{
					"start": float64(st), "iters": float64(r.iters),
					"clamps": float64(r.clamps), "feasible": b2f(r.ok), "best": r.val,
				},
			})
		}
	}
	best, found := s.reduce(sc.res)
	// The per-start incumbents alias pooled scratch buffers; detach the winner
	// before the scratch can be reused.
	sol := cloneSolution(best)
	if !found {
		sol = objective.Solution{}
	}
	if s.telSolves != nil {
		s.observeSolve(co, sc.res, sol, found, span)
	}
	s.scratch.Put(sc)
	return sol, found
}

// observeSolve flushes one Solve's telemetry: aggregate counters plus the
// solve span end (a LevelRun event) carrying the convergence outcome.
func (s *Solver) observeSolve(co solver.CO, results []startResult, sol objective.Solution, found bool, span telemetry.Span) {
	iters, clamps, feasible := 0, 0, 0
	for i := range results {
		iters += results[i].iters
		clamps += results[i].clamps
		if results[i].ok {
			feasible++
		}
	}
	s.telIters.Add(uint64(iters))
	s.telClamps.Add(uint64(clamps))
	s.telSolves.Add(1)
	reason := "feasible"
	if !found {
		s.telInfeas.Add(1)
		reason = "no_feasible_point"
	}
	if span.Recording() {
		attrs := map[string]float64{
			"target": float64(co.Target), "starts": float64(len(results)),
			"iters": float64(iters), "clamps": float64(clamps),
			"feasible_starts": float64(feasible),
		}
		if found {
			attrs["best"] = sol.F[co.Target]
		}
		span.End(reason, attrs)
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// SetParentSpan re-parents subsequent solve/solve_batch spans — core.Run
// calls this per expand so solver timing nests under the right expand span.
func (s *Solver) SetParentSpan(id uint64) { s.parentSpan.Store(id) }

// checkBounds panics on malformed CO problems (a programming error, matching
// the solver.Solver contract).
func (s *Solver) checkBounds(co solver.CO) {
	if len(co.Lo) != s.k || len(co.Hi) != s.k {
		panic(fmt.Sprintf("mogd: CO bounds have %d/%d entries for %d objectives", len(co.Lo), len(co.Hi), s.k))
	}
}

// fanOut runs work on the calling goroutine plus up to maxHelpers extra
// goroutines, each gated on a non-blocking token acquire from the shared
// pool. Tokens held elsewhere (e.g. by SolveBatch probes) simply shrink the
// fan-out; acquisition never blocks, so the pool cannot deadlock however
// Solve and SolveBatch calls nest or interleave.
func (s *Solver) fanOut(maxHelpers int, work func()) {
	var wg sync.WaitGroup
	for h := 0; h < maxHelpers; h++ {
		select {
		case s.sem <- struct{}{}:
			wg.Add(1)
			go func() {
				defer func() { <-s.sem; wg.Done() }()
				work()
			}()
		default:
			h = maxHelpers // pool exhausted
		}
	}
	work()
	wg.Wait()
}

// reduce folds per-start results in start order — the same scan order a
// sequential implementation uses, making the outcome independent of
// goroutine scheduling.
func (s *Solver) reduce(results []startResult) (objective.Solution, bool) {
	var best objective.Solution
	bestVal := math.Inf(1)
	found := false
	for _, r := range results {
		if r.ok && r.val < bestVal {
			bestVal = r.val
			best = r.sol
			found = true
		}
	}
	return best, found
}

// SolveBatch solves the CO problems concurrently — the l^k simultaneous
// probes of PF-AP (§IV-C). Results are in input order. Probes and the starts
// inside each probe draw workers from the same bounded pool, so the probe ×
// start product saturates Workers without oversubscribing it.
func (s *Solver) SolveBatch(cos []solver.CO, seed int64) []solver.Result {
	out := make([]solver.Result, len(cos))
	for _, co := range cos {
		s.checkBounds(co)
	}
	if span := s.tracer.StartSpan(telemetry.LevelRun, s.runID, s.parentSpan.Load(), "mogd", "solve_batch"); span.Recording() {
		// Inner solves nest under the batch span; the previous parent (the
		// enclosing expand span) is restored when the batch completes.
		outer := s.parentSpan.Swap(span.ID())
		defer func() {
			s.parentSpan.Store(outer)
			ok := 0
			for _, r := range out {
				if r.OK {
					ok++
				}
			}
			span.End("", map[string]float64{"problems": float64(len(cos)), "feasible": float64(ok)})
		}()
	}
	// Every probe warm-starts from the incumbents known before the batch;
	// the batch's own results join the list afterwards, in input order.
	var near []*incumbent
	if s.cfg.NearStarts {
		s.incMu.Lock()
		near = append(near, s.incumbents...)
		s.incMu.Unlock()
	}
	var next int64 = -1
	work := func() {
		for {
			i := int(atomic.AddInt64(&next, 1))
			if i >= len(cos) {
				break
			}
			sol, ok := s.solve(cos[i], probeSeed(seed, i), near)
			out[i] = solver.Result{Sol: sol, OK: ok}
		}
	}
	s.fanOut(len(cos)-1, work)
	if s.cfg.NearStarts {
		var added []*incumbent
		for i, r := range out {
			if r.OK {
				added = append(added, newIncumbent(cos[i], probeSeed(seed, i), r.Sol))
			}
		}
		s.addIncumbents(added...)
	}
	return out
}

// probeSeed is the seed SolveBatch gives its i-th probe.
func probeSeed(seed int64, i int) int64 { return seed + int64(i)*7919 }

// Minimize is the single-objective base case (§IV-B.1): minimize objective
// target with no constraints beyond the [0,1]^D box.
func (s *Solver) Minimize(target int, seed int64) (objective.Solution, bool) {
	k := s.k
	lo := make([]float64, k)
	hi := make([]float64, k)
	for j := range lo {
		lo[j] = math.Inf(-1)
		hi[j] = math.Inf(1)
	}
	return s.Solve(solver.CO{Target: target, Lo: lo, Hi: hi}, seed)
}

// maxIncumbents bounds the NearStarts candidate list; the oldest entries are
// dropped first.
const maxIncumbents = 512

// incumbent is one earlier feasible solve remembered for near warm starts:
// its ε-constraint box (copies of the CO bounds, which callers may reuse),
// the solution's configuration, and the exact (target, seed, box) key that
// breaks distance ties.
type incumbent struct {
	target int
	lo, hi []float64
	x      []float64
	key    string
}

func newIncumbent(co solver.CO, seed int64, sol objective.Solution) *incumbent {
	return &incumbent{
		target: co.Target,
		lo:     append([]float64(nil), co.Lo...),
		hi:     append([]float64(nil), co.Hi...),
		x:      append([]float64(nil), sol.X...),
		key:    boxKey(co, seed),
	}
}

// addIncumbents appends to the candidate list, dropping the oldest entries
// beyond maxIncumbents.
func (s *Solver) addIncumbents(inc ...*incumbent) {
	s.incMu.Lock()
	defer s.incMu.Unlock()
	s.incumbents = append(s.incumbents, inc...)
	if over := len(s.incumbents) - maxIncumbents; over > 0 {
		s.incumbents = append(s.incumbents[:0], s.incumbents[over:]...)
	}
}

// boxKey encodes (target, seed, Lo, Hi) exactly — raw float64 bits — so
// distinct constraint boxes never compare equal.
func boxKey(co solver.CO, seed int64) string {
	b := make([]byte, 16+16*len(co.Lo))
	binary.LittleEndian.PutUint64(b, uint64(co.Target))
	binary.LittleEndian.PutUint64(b[8:], uint64(seed))
	off := 16
	for _, v := range co.Lo {
		binary.LittleEndian.PutUint64(b[off:], math.Float64bits(v))
		off += 8
	}
	for _, v := range co.Hi {
		binary.LittleEndian.PutUint64(b[off:], math.Float64bits(v))
		off += 8
	}
	return string(b)
}

func cloneSolution(sol objective.Solution) objective.Solution {
	var out objective.Solution
	if sol.F != nil {
		out.F = sol.F.Clone()
	}
	if sol.X != nil {
		out.X = append([]float64(nil), sol.X...)
	}
	return out
}

// boxDistance is the L1 distance between the requested constraint box and an
// incumbent's box over their finite bounds. Boxes whose infinity patterns
// differ answer a structurally different subproblem and are incomparable.
func boxDistance(co solver.CO, lo, hi []float64) (float64, bool) {
	d := 0.0
	for j := range co.Lo {
		a, b := co.Lo[j], lo[j]
		if math.IsInf(a, -1) != math.IsInf(b, -1) {
			return 0, false
		}
		if !math.IsInf(a, -1) {
			d += math.Abs(a - b)
		}
		a, b = co.Hi[j], hi[j]
		if math.IsInf(a, 1) != math.IsInf(b, 1) {
			return 0, false
		}
		if !math.IsInf(a, 1) {
			d += math.Abs(a - b)
		}
	}
	return d, true
}

// nearestIncumbent copies the configuration of the nearest incumbent with the
// same target and a comparable box into dst and reports whether it found one.
// Ties in distance break toward the smaller key, so the choice does not depend
// on list order. (A same-box different-seed incumbent has distance 0 — the
// most common near hit in PF's re-probing pattern.)
func nearestIncumbent(near []*incumbent, co solver.CO, dst []float64) bool {
	bestD := math.Inf(1)
	var best *incumbent
	for _, e := range near {
		if e.target != co.Target || len(e.x) != len(dst) {
			continue
		}
		d, comparable := boxDistance(co, e.lo, e.hi)
		if !comparable {
			continue
		}
		if d < bestD || (best != nil && d == bestD && e.key < best.key) {
			bestD, best = d, e
		}
	}
	if best == nil {
		return false
	}
	copy(dst, best.x)
	return true
}
