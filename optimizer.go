package udao

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/objective"
	"repro/internal/problem"
	"repro/internal/recommend"
	"repro/internal/solver"
	"repro/internal/solver/exact"
	"repro/internal/solver/mogd"
	"repro/internal/telemetry"
)

// Model predicts one objective from an encoded configuration; Gaussian
// processes, DNNs and plain functions from the internal model packages all
// satisfy it.
type Model = model.Model

// Objective couples a task objective with its predictive model Ψ and
// optional value constraints Fᵢ ∈ [Lower, Upper] (§II-B).
type Objective struct {
	// Name identifies the objective ("latency", "cost", ...).
	Name string
	// Model is the predictive model Ψᵢ(x) from the model server.
	Model Model
	// Maximize marks objectives that favor larger values (e.g. throughput);
	// they are negated internally per Problem III.1.
	Maximize bool
	// Lower and Upper are optional value constraints; zero values mean
	// unconstrained (use math.Inf for explicit infinities).
	Lower, Upper float64
}

// Algorithm selects the Progressive Frontier variant.
type Algorithm int

// Progressive Frontier variants (§IV).
const (
	// PFAP is the approximate parallel algorithm — the paper's default and
	// best performer.
	PFAP Algorithm = iota
	// PFAS is the approximate sequential algorithm.
	PFAS
	// PFS is the deterministic sequential algorithm with the near-exact
	// (Knitro-stand-in) solver; slow but reproducible.
	PFS
)

// Strategy selects how a configuration is recommended from the frontier
// (§V, Appendix B).
type Strategy int

// Recommendation strategies.
const (
	// WUN is Weighted Utopia Nearest (the paper's default).
	WUN Strategy = iota
	// UN is (unweighted) Utopia Nearest.
	UN
	// SLL and SLR are Slope Maximization anchored left/right (2D only).
	SLL
	SLR
	// KPL and KPR are Knee Point anchored left/right (2D only).
	KPL
	KPR
)

// Options tunes the optimizer.
type Options struct {
	// Algorithm selects the PF variant (default PFAP).
	Algorithm Algorithm
	// Probes is the Pareto-point budget M (default 30).
	Probes int
	// TimeBudget stops frontier computation after this duration (the
	// paper's "a few seconds" requirement); zero means unlimited.
	TimeBudget time.Duration
	// Grid is PF-AP's per-dimension grid degree l (default 2).
	Grid int
	// Alpha is the model-uncertainty multiplier for F̃ = E[F] + α·std[F]
	// (§IV-B.3); zero uses plain means.
	Alpha float64
	// Starts and Iters tune the MOGD solver's multi-start gradient descent.
	Starts, Iters int
	// WorkloadClass, when set together with the WUN strategy, enables the
	// workload-aware internal weights of §V.
	WorkloadClass *recommend.WorkloadClass
	// Seed drives all randomized components.
	Seed int64
	// OnProgress receives frontier-progress snapshots.
	OnProgress func(core.Snapshot)
	// Telemetry, when non-nil, threads the shared metrics registry and tracer
	// through the evaluator, the solver and the PF loop, so one Optimize call
	// can be reconstructed end to end from its trace events.
	Telemetry *telemetry.Telemetry
	// RunID tags this optimizer's trace events; NewOptimizer derives one
	// ("opt-N") when Telemetry is set and RunID is empty.
	RunID string
	// Workload, when set together with Telemetry, labels the per-workload
	// metric series fed below this optimizer (the uncertain-fraction gauge,
	// the MOGD near warm-start counter). Typically the workload name of the
	// originating service request.
	Workload string
}

// Plan is one Pareto-optimal configuration with its predicted objective
// values (in the user's orientation: throughput reported positive).
type Plan struct {
	Config     Values
	X          []float64 // encoded configuration
	Objectives map[string]float64
	// Stages holds the per-stage view of Config for pipeline optimizers
	// (NewPipelineOptimizer): Stages[name] is the stage's own knob assignment,
	// shared knobs repeated in each. Nil for flat (single-stage) optimizers.
	Stages map[string]Values
}

// Optimizer computes Pareto frontiers and recommendations for one task.
type Optimizer struct {
	spc  *Space
	objs []Objective
	opt  Options
	// ev is the task's single evaluation seam: whichever solver the
	// algorithm selects runs on it, so evaluation counts, memoized points
	// and the fused hot path are shared across ParetoFrontier, Expand and
	// repeated Optimize calls on this optimizer.
	ev       *problem.Evaluator
	run      *core.Run
	frontier []objective.Solution
	// comp is set by NewPipelineOptimizer: the stage structure behind spc,
	// used to report per-stage configurations in plans.
	comp *CompositeSpace
	// parentSpan nests this optimizer's expand/eval spans under a request
	// root span (see SetParentSpan).
	parentSpan uint64
}

// SetParentSpan nests the spans of subsequent frontier work (PF expands,
// solver solves, eval batches) under the given span ID — the service calls
// this per request with its root span, including on cached optimizers, so a
// reused run's timing lands under the right request.
func (o *Optimizer) SetParentSpan(id uint64) {
	o.parentSpan = id
	if o.run != nil {
		o.run.SetParentSpan(id)
	}
	if o.ev != nil {
		o.ev.SetParentSpan(id)
	}
}

// NewOptimizer validates the task and builds an optimizer.
func NewOptimizer(spc *Space, objs []Objective, opt Options) (*Optimizer, error) {
	if spc == nil {
		return nil, errors.New("udao: nil space")
	}
	if len(objs) < 1 {
		return nil, errors.New("udao: need at least one objective")
	}
	for i, o := range objs {
		if o.Model == nil {
			return nil, fmt.Errorf("udao: objective %q has no model", o.Name)
		}
		if o.Model.Dim() != spc.Dim() {
			return nil, fmt.Errorf("udao: objective %q model dim %d != space dim %d (objective %d)", o.Name, o.Model.Dim(), spc.Dim(), i)
		}
	}
	if opt.Telemetry != nil && opt.RunID == "" {
		opt.RunID = opt.Telemetry.NextRunID("opt")
	}
	return &Optimizer{spc: spc, objs: objs, opt: opt}, nil
}

// RunID returns the trace run ID tagging this optimizer's telemetry events
// ("" when telemetry is disabled).
func (o *Optimizer) RunID() string { return o.opt.RunID }

// Space returns the configuration space this optimizer searches — for
// pipeline optimizers, the flat concatenated space of the composite.
func (o *Optimizer) Space() *Space { return o.spc }

// models returns the minimization-oriented models.
func (o *Optimizer) models() []model.Model {
	ms := make([]model.Model, len(o.objs))
	for i, obj := range o.objs {
		if obj.Maximize {
			ms[i] = model.Negated{M: obj.Model}
		} else {
			ms[i] = obj.Model
		}
	}
	return ms
}

// bounds converts the per-objective constraints into minimization space.
func (o *Optimizer) bounds() (lower, upper objective.Point) {
	lower = make(objective.Point, len(o.objs))
	upper = make(objective.Point, len(o.objs))
	for i, obj := range o.objs {
		lo, hi := obj.Lower, obj.Upper
		if lo == 0 && hi == 0 {
			lo, hi = math.Inf(-1), math.Inf(1)
		}
		if obj.Maximize {
			lo, hi = -hi, -lo
			if lo == 0 && hi == 0 {
				lo, hi = math.Inf(-1), math.Inf(1)
			}
		}
		lower[i], upper[i] = lo, hi
	}
	return lower, upper
}

// ParetoFrontier computes the Pareto-optimal set with the configured probe
// budget on first use and returns the cached frontier afterwards. Call
// Expand to grow it further.
func (o *Optimizer) ParetoFrontier() ([]Plan, error) {
	if o.run != nil {
		return o.plans(o.frontier), nil
	}
	probes := o.opt.Probes
	if probes == 0 {
		probes = 30
	}
	return o.Expand(probes)
}

// Expand invests `probes` additional solver probes into the (cached)
// Progressive Frontier run and returns the grown frontier — the incremental
// mode of §IV-A: a first small frontier within the latency budget, expanded
// as more time is invested. The frontier only ever grows across calls.
func (o *Optimizer) Expand(probes int) ([]Plan, error) {
	if o.run == nil {
		copt := core.Options{
			TimeBudget: o.opt.TimeBudget,
			Grid:       o.opt.Grid,
			Seed:       o.opt.Seed,
			OnProgress: o.opt.OnProgress,
			Telemetry:  o.opt.Telemetry,
			RunID:      o.opt.RunID,
			Workload:   o.opt.Workload,
			ParentSpan: o.parentSpan,
		}
		copt.Lower, copt.Upper = o.bounds()
		var s interface {
			NumObjectives() int
			Solve(co solver.CO, seed int64) (objective.Solution, bool)
			SolveBatch(cos []solver.CO, seed int64) []solver.Result
		}
		ev, err := o.evaluator()
		if err != nil {
			return nil, err
		}
		parallel := false
		switch o.opt.Algorithm {
		case PFS:
			s, err = exact.NewOnEvaluator(ev, exact.Config{})
		case PFAS:
			s, err = o.mogdSolver(ev)
		default:
			s, err = o.mogdSolver(ev)
			parallel = true
		}
		if err != nil {
			return nil, err
		}
		o.run = core.NewRun(s, parallel, copt)
	}
	front, err := o.run.Expand(probes)
	if err != nil {
		return nil, err
	}
	o.frontier = front
	return o.plans(front), nil
}

// evaluator lazily builds the optimizer's shared evaluation seam.
func (o *Optimizer) evaluator() (*problem.Evaluator, error) {
	if o.ev == nil {
		p, err := problem.New(o.models(), o.spc)
		if err != nil {
			return nil, fmt.Errorf("udao: %w", err)
		}
		o.ev = problem.NewEvaluator(p, problem.Options{Alpha: o.opt.Alpha, Telemetry: o.opt.Telemetry, RunID: o.opt.RunID})
		o.ev.SetParentSpan(o.parentSpan)
	}
	return o.ev, nil
}

func (o *Optimizer) mogdSolver(ev *problem.Evaluator) (*mogd.Solver, error) {
	// NearStarts: the PF loop's batches revisit neighbouring ε-constraint
	// boxes across expands, so each probe warm-starts from the nearest
	// earlier box's incumbent.
	return mogd.NewOnEvaluator(ev, mogd.Config{Starts: o.opt.Starts, Iters: o.opt.Iters, Alpha: o.opt.Alpha, Seed: o.opt.Seed, NearStarts: true, Telemetry: o.opt.Telemetry, RunID: o.opt.RunID, Workload: o.opt.Workload})
}

// FrontierPoints returns the cached frontier as minimization-oriented
// objective vectors (maximized objectives negated, per Problem III.1) — the
// space every frontier-quality metric (hypervolume, coverage, consistency)
// is computed in. The slices are copies; nil before the first frontier.
func (o *Optimizer) FrontierPoints() [][]float64 {
	if len(o.frontier) == 0 {
		return nil
	}
	out := make([][]float64, len(o.frontier))
	for i, s := range o.frontier {
		out[i] = append([]float64(nil), s.F...)
	}
	return out
}

// Probes reports the solver probes invested into the underlying Progressive
// Frontier run so far (0 before the first frontier computation) — the
// serving layer compares it against a request's probe target to decide
// between answering from the cached frontier and resuming Expand.
func (o *Optimizer) Probes() int {
	if o.run == nil {
		return 0
	}
	return o.run.Probes()
}

// ExpandHistory returns one step per Expand call of the underlying
// Progressive Frontier run — the §IV-A incremental trajectory recorded by
// the run registry. Nil before the first frontier computation.
func (o *Optimizer) ExpandHistory() []core.ExpandStep {
	if o.run == nil {
		return nil
	}
	return o.run.History()
}

// Evals reports the model passes performed by this optimizer's solvers so
// far — the comparable evaluation count of the paper's efficiency axis.
func (o *Optimizer) Evals() uint64 {
	if o.ev == nil {
		return 0
	}
	return o.ev.Evals()
}

// PredictedStd returns the predictive standard deviation of each objective's
// model at the encoded configuration x, keyed by objective name — the
// uncertainty band the calibration ledger judges interval coverage against
// when the observed outcome comes back (GP posterior variance, DNN MC-dropout
// spread). Objectives whose model carries no predictive uncertainty (exact
// knob functions) are omitted; nil when none does. Variance is orientation
// independent, so maximized objectives need no negation here.
func (o *Optimizer) PredictedStd(x []float64) map[string]float64 {
	if len(x) == 0 {
		return nil
	}
	var out map[string]float64
	for _, obj := range o.objs {
		u, ok := obj.Model.(model.Uncertain)
		if !ok {
			continue
		}
		_, v := u.PredictVar(x)
		if v < 0 || math.IsNaN(v) {
			v = 0
		}
		if out == nil {
			out = make(map[string]float64, len(o.objs))
		}
		out[obj.Name] = math.Sqrt(v)
	}
	return out
}

// MemoStats reports the evaluator's memoization cache hits and misses.
func (o *Optimizer) MemoStats() (hits, misses uint64) {
	if o.ev == nil {
		return 0, 0
	}
	return o.ev.MemoStats()
}

// plans converts internal solutions to user-facing plans, restoring the
// user's objective orientation.
func (o *Optimizer) plans(front []objective.Solution) []Plan {
	out := make([]Plan, 0, len(front))
	for _, s := range front {
		conf, err := o.spc.Decode(s.X)
		if err != nil {
			continue
		}
		p := Plan{Config: conf, X: append([]float64(nil), s.X...), Objectives: map[string]float64{}}
		for i, obj := range o.objs {
			v := s.F[i]
			if obj.Maximize {
				v = -v
			}
			p.Objectives[obj.Name] = v
		}
		if o.comp != nil {
			p.Stages = make(map[string]Values, o.comp.NumStages())
			for si := range o.comp.Stages {
				sv, err := o.comp.StageValues(conf, si)
				if err != nil {
					continue
				}
				p.Stages[o.comp.Stages[si].Name] = sv
			}
		}
		out = append(out, p)
	}
	return out
}

// Recommend picks a configuration from the cached frontier (computing it on
// first use). Weights follow the objective order and express the
// application's preference (§II-B); they are ignored by strategies other
// than WUN. A nil weights slice means equal preference.
func (o *Optimizer) Recommend(strategy Strategy, weights []float64) (Plan, error) {
	if o.frontier == nil {
		if _, err := o.ParetoFrontier(); err != nil {
			return Plan{}, err
		}
	}
	if len(o.frontier) == 0 {
		return Plan{}, errors.New("udao: empty frontier")
	}
	if weights == nil {
		weights = make([]float64, len(o.objs))
		for i := range weights {
			weights[i] = 1
		}
	}
	var sol objective.Solution
	var err error
	switch strategy {
	case UN:
		sol, err = recommend.UtopiaNearest(o.frontier)
	case SLL:
		sol, err = recommend.SlopeMaximization(o.frontier, recommend.Left)
	case SLR:
		sol, err = recommend.SlopeMaximization(o.frontier, recommend.Right)
	case KPL:
		sol, err = recommend.KneePoint(o.frontier, recommend.Left)
	case KPR:
		sol, err = recommend.KneePoint(o.frontier, recommend.Right)
	default:
		if o.opt.WorkloadClass != nil {
			sol, err = recommend.WorkloadAwareWUN(o.frontier, weights, *o.opt.WorkloadClass)
		} else {
			sol, err = recommend.WeightedUtopiaNearest(o.frontier, weights)
		}
	}
	if err != nil {
		return Plan{}, err
	}
	plans := o.plans([]objective.Solution{sol})
	if len(plans) == 0 {
		return Plan{}, errors.New("udao: recommendation could not be decoded")
	}
	return plans[0], nil
}

// Optimize runs the full loop of Fig. 1(a): compute the frontier and return
// the WUN recommendation for the given weights.
func (o *Optimizer) Optimize(weights []float64) (Plan, error) {
	if _, err := o.ParetoFrontier(); err != nil {
		return Plan{}, err
	}
	return o.Recommend(WUN, weights)
}

// UncertainSpace reports the fraction of the objective space the cached
// frontier leaves uncertain — the coverage measure of the paper's Figures
// 4–5 (0 = fully resolved, 1 = nothing known).
func (o *Optimizer) UncertainSpace() (float64, error) {
	if len(o.frontier) == 0 {
		return 1, errors.New("udao: no frontier computed")
	}
	pts := make([]objective.Point, len(o.frontier))
	for i, s := range o.frontier {
		pts[i] = s.F
	}
	utopia, nadir := objective.Bounds(pts)
	return metrics.UncertainFraction(pts, utopia, nadir), nil
}
