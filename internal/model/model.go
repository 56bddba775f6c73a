// Package model defines the predictive-model abstraction Ψ_i(x) that the
// MOO layer optimizes over (paper §II-B, "Remarks on modeling choices").
//
// A model maps a configuration in the solver's normalized decision space
// [0,1]^D to a scalar objective value. The MOGD solver additionally needs
// input gradients (Gradienter) and, for uncertainty-aware optimization
// (paper §IV-B.3), predictive variance (Uncertain).
package model

import (
	"math"

	"repro/internal/linalg"
)

// Model predicts a single objective from a D-dimensional configuration.
type Model interface {
	// Dim returns the input dimensionality D.
	Dim() int
	// Predict returns the objective value at x. len(x) must equal Dim().
	Predict(x []float64) float64
}

// Gradienter is a Model that exposes the analytic gradient ∂Ψ/∂x. Models
// without analytic gradients can be wrapped with NumericGradient.
type Gradienter interface {
	Model
	// Gradient returns ∂Predict/∂x at x as a new slice of length Dim().
	Gradient(x []float64) []float64
}

// Uncertain is a Model with predictive uncertainty: Gaussian processes and
// Bayesian-approximated DNNs (paper [9], [27]).
type Uncertain interface {
	Model
	// PredictVar returns the predictive mean and variance at x.
	PredictVar(x []float64) (mean, variance float64)
}

// ValueGradienter is a Model that evaluates its value and input gradient in
// one fused pass — the MOGD hot path (§IV-B evaluates both every Adam
// iteration; fusing halves the model evaluations). grad, when it has length
// Dim(), is used as the output buffer and the returned slice aliases it;
// passing nil (or a wrong-length slice) allocates. Implementations must be
// safe for concurrent use when the underlying Predict is.
type ValueGradienter interface {
	Gradienter
	// ValueGrad returns Predict(x) and ∂Predict/∂x at x.
	ValueGrad(x, grad []float64) (float64, []float64)
}

// GradBuf returns grad when it already has length n, and a fresh slice
// otherwise. ValueGrad implementations use it to honor the caller's scratch
// buffer; the contents are overwritten, not accumulated into.
func GradBuf(grad []float64, n int) []float64 {
	if len(grad) == n {
		return grad
	}
	return make([]float64, n)
}

// fusedFallback implements ValueGradienter with two separate calls for
// models without a native fused path.
type fusedFallback struct{ G Gradienter }

func (f fusedFallback) Dim() int                       { return f.G.Dim() }
func (f fusedFallback) Predict(x []float64) float64    { return f.G.Predict(x) }
func (f fusedFallback) Gradient(x []float64) []float64 { return f.G.Gradient(x) }

func (f fusedFallback) ValueGrad(x, grad []float64) (float64, []float64) {
	v := f.G.Predict(x)
	g := f.G.Gradient(x)
	out := GradBuf(grad, len(g))
	copy(out, g)
	return v, out
}

// EnsureValueGrad returns m as a ValueGradienter, wrapping it (via
// EnsureGradient when needed) with an unfused fallback otherwise.
func EnsureValueGrad(m Model) ValueGradienter {
	if vg, ok := m.(ValueGradienter); ok {
		return vg
	}
	return fusedFallback{G: EnsureGradient(m)}
}

// NumericGradient wraps any Model with central finite differences so the
// MOGD solver can optimize models that lack analytic gradients (e.g.
// handcrafted regression functions with non-differentiable pieces, for which
// the finite difference acts as a subgradient choice).
type NumericGradient struct {
	M Model
	// H is the finite-difference step; 0 means the default 1e-5.
	H float64
}

// Dim implements Model.
func (n NumericGradient) Dim() int { return n.M.Dim() }

// Predict implements Model.
func (n NumericGradient) Predict(x []float64) float64 { return n.M.Predict(x) }

// Gradient returns the central finite-difference gradient of the wrapped
// model, clamping probe points into [0,1] so boundary evaluations stay in
// the normalized decision space.
func (n NumericGradient) Gradient(x []float64) []float64 {
	g := make([]float64, len(x))
	n.gradientInto(x, g)
	return g
}

// ValueGrad implements ValueGradienter: the value costs one extra model
// evaluation on top of the 2·D finite-difference probes.
func (n NumericGradient) ValueGrad(x, grad []float64) (float64, []float64) {
	out := GradBuf(grad, len(x))
	n.gradientInto(x, out)
	return n.M.Predict(x), out
}

func (n NumericGradient) gradientInto(x, g []float64) {
	h := n.H
	if h == 0 {
		h = 1e-5
	}
	xp := linalg.CopyVec(x)
	for i := range x {
		lo := linalg.Clamp(x[i]-h, 0, 1)
		hi := linalg.Clamp(x[i]+h, 0, 1)
		if hi == lo {
			g[i] = 0
			continue
		}
		xp[i] = hi
		fp := n.M.Predict(xp)
		xp[i] = lo
		fm := n.M.Predict(xp)
		xp[i] = x[i]
		g[i] = (fp - fm) / (hi - lo)
	}
}

// EnsureGradient returns m as a Gradienter, wrapping it with NumericGradient
// when needed.
func EnsureGradient(m Model) Gradienter {
	if g, ok := m.(Gradienter); ok {
		return g
	}
	return NumericGradient{M: m}
}

// Func adapts a plain function into a Model; used for handcrafted models and
// in tests.
type Func struct {
	D int
	F func(x []float64) float64
}

// Dim implements Model.
func (f Func) Dim() int { return f.D }

// Predict implements Model.
func (f Func) Predict(x []float64) float64 { return f.F(x) }

// Negated flips the sign of a model, turning a maximization objective (e.g.
// throughput) into the minimization form of Problem III.1.
type Negated struct{ M Model }

// Dim implements Model.
func (n Negated) Dim() int { return n.M.Dim() }

// Predict implements Model.
func (n Negated) Predict(x []float64) float64 { return -n.M.Predict(x) }

// Gradient implements Gradienter when the wrapped model has gradients.
func (n Negated) Gradient(x []float64) []float64 {
	g := EnsureGradient(n.M).Gradient(x)
	linalg.Scale(-1, g)
	return g
}

// ValueGrad implements ValueGradienter, preserving the wrapped model's fused
// path.
func (n Negated) ValueGrad(x, grad []float64) (float64, []float64) {
	v, g := EnsureValueGrad(n.M).ValueGrad(x, grad)
	linalg.Scale(-1, g)
	return -v, g
}

// PredictVar implements Uncertain when the wrapped model is Uncertain.
func (n Negated) PredictVar(x []float64) (float64, float64) {
	if u, ok := n.M.(Uncertain); ok {
		m, v := u.PredictVar(x)
		return -m, v
	}
	return -n.M.Predict(x), 0
}

// Conservative implements the paper's uncertainty handling (§IV-B.3): it
// replaces F(x) with F̃(x) = E[F(x)] + α·std[F(x)], a conservative estimate
// for minimization under model uncertainty. For non-Uncertain models it
// degrades to the plain prediction.
type Conservative struct {
	M     Model
	Alpha float64
}

// Dim implements Model.
func (c Conservative) Dim() int { return c.M.Dim() }

// Predict implements Model.
func (c Conservative) Predict(x []float64) float64 {
	u, ok := c.M.(Uncertain)
	if !ok {
		return c.M.Predict(x)
	}
	mean, variance := u.PredictVar(x)
	if variance < 0 {
		variance = 0
	}
	return mean + c.Alpha*math.Sqrt(variance)
}

// Gradient implements Gradienter by differencing the conservative estimate.
func (c Conservative) Gradient(x []float64) []float64 {
	return NumericGradient{M: c}.Gradient(x)
}

// Exp wraps a model trained on log-scale targets, exponentiating its output:
// Predict(x) = exp(M.Predict(x)). Training positive objectives (latency,
// cost, throughput) in log space keeps extrapolations positive and fits the
// multiplicative noise of cluster measurements.
type Exp struct{ M Model }

// Dim implements Model.
func (e Exp) Dim() int { return e.M.Dim() }

// Predict implements Model.
func (e Exp) Predict(x []float64) float64 { return math.Exp(e.M.Predict(x)) }

// Gradient implements Gradienter via the chain rule.
func (e Exp) Gradient(x []float64) []float64 {
	g := EnsureGradient(e.M).Gradient(x)
	scale := math.Exp(e.M.Predict(x))
	linalg.Scale(scale, g)
	return g
}

// ValueGrad implements ValueGradienter: unlike Gradient, the inner value is
// computed once and shared between the output and the chain-rule scale.
func (e Exp) ValueGrad(x, grad []float64) (float64, []float64) {
	v, g := EnsureValueGrad(e.M).ValueGrad(x, grad)
	ev := math.Exp(v)
	linalg.Scale(ev, g)
	return ev, g
}

// PredictVar implements Uncertain with the log-normal moments: if
// log F ~ N(μ, σ²) then E[F] = exp(μ+σ²/2) and
// Var[F] = (exp(σ²)−1)·exp(2μ+σ²).
func (e Exp) PredictVar(x []float64) (float64, float64) {
	u, ok := e.M.(Uncertain)
	if !ok {
		return e.Predict(x), 0
	}
	mu, v := u.PredictVar(x)
	if v < 0 {
		v = 0
	}
	mean := math.Exp(mu + v/2)
	variance := (math.Exp(v) - 1) * math.Exp(2*mu+v)
	return mean, variance
}
