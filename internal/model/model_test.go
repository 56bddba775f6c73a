package model

import (
	"math"
	"testing"
)

type quadratic struct{}

func (quadratic) Dim() int { return 2 }
func (quadratic) Predict(x []float64) float64 {
	return (x[0]-0.3)*(x[0]-0.3) + 2*(x[1]-0.7)*(x[1]-0.7)
}

type quadraticU struct{ quadratic }

func (quadraticU) PredictVar(x []float64) (float64, float64) {
	return (quadratic{}).Predict(x), 0.04 // std 0.2 everywhere
}

func TestNumericGradient(t *testing.T) {
	g := NumericGradient{M: quadratic{}}
	grad := g.Gradient([]float64{0.5, 0.5})
	want0, want1 := 2*(0.5-0.3), 4*(0.5-0.7)
	if math.Abs(grad[0]-want0) > 1e-4 || math.Abs(grad[1]-want1) > 1e-4 {
		t.Fatalf("Gradient = %v, want [%v %v]", grad, want0, want1)
	}
}

func TestNumericGradientAtBoundary(t *testing.T) {
	g := NumericGradient{M: quadratic{}}
	grad := g.Gradient([]float64{0, 1})
	// One-sided differences at the boundary must still approximate the slope.
	if math.Abs(grad[0]-(-0.6)) > 1e-3 || math.Abs(grad[1]-1.2) > 1e-3 {
		t.Fatalf("boundary gradient = %v", grad)
	}
}

func TestEnsureGradient(t *testing.T) {
	// Already a Gradienter: returned unchanged.
	ng := NumericGradient{M: quadratic{}}
	if got := EnsureGradient(ng); got != Gradienter(ng) {
		t.Fatal("EnsureGradient should return the Gradienter unchanged")
	}
	// Plain model gets wrapped.
	g := EnsureGradient(quadratic{})
	if g.Dim() != 2 {
		t.Fatal("wrapped model lost dimensionality")
	}
}

func TestFunc(t *testing.T) {
	f := Func{D: 1, F: func(x []float64) float64 { return 3 * x[0] }}
	if f.Dim() != 1 || f.Predict([]float64{2}) != 6 {
		t.Fatal("Func adapter broken")
	}
}

func TestNegated(t *testing.T) {
	n := Negated{M: quadratic{}}
	x := []float64{0.1, 0.9}
	if n.Predict(x) != -(quadratic{}).Predict(x) {
		t.Fatal("Negated.Predict wrong")
	}
	g := n.Gradient(x)
	base := NumericGradient{M: quadratic{}}.Gradient(x)
	for i := range g {
		if math.Abs(g[i]+base[i]) > 1e-9 {
			t.Fatalf("Negated.Gradient = %v, want -%v", g, base)
		}
	}
	// Uncertain passthrough.
	nu := Negated{M: quadraticU{}}
	m, v := nu.PredictVar(x)
	if m != -(quadratic{}).Predict(x) || v != 0.04 {
		t.Fatalf("Negated.PredictVar = %v, %v", m, v)
	}
	// Non-uncertain fallback has zero variance.
	if _, v := n.PredictVar(x); v != 0 {
		t.Fatal("non-uncertain Negated should report zero variance")
	}
}

func TestConservative(t *testing.T) {
	c := Conservative{M: quadraticU{}, Alpha: 3}
	x := []float64{0.3, 0.7}
	want := (quadratic{}).Predict(x) + 3*0.2
	if got := c.Predict(x); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Conservative.Predict = %v, want %v", got, want)
	}
	// Plain model: no uplift.
	p := Conservative{M: quadratic{}, Alpha: 3}
	if p.Predict(x) != (quadratic{}).Predict(x) {
		t.Fatal("Conservative over plain model should be identity")
	}
	if g := c.Gradient(x); len(g) != 2 {
		t.Fatal("Conservative.Gradient wrong length")
	}
}

func TestExp(t *testing.T) {
	base := Func{D: 1, F: func(x []float64) float64 { return 2 * x[0] }}
	e := Exp{M: base}
	if got := e.Predict([]float64{1}); math.Abs(got-math.Exp(2)) > 1e-12 {
		t.Fatalf("Exp.Predict = %v", got)
	}
	// Chain rule: d exp(2x)/dx = 2 exp(2x).
	g := e.Gradient([]float64{0.5})
	want := 2 * math.Exp(1)
	if math.Abs(g[0]-want) > 1e-3*want {
		t.Fatalf("Exp.Gradient = %v, want %v", g[0], want)
	}
	// Positivity everywhere, even for wildly negative inner outputs.
	neg := Exp{M: Func{D: 1, F: func(x []float64) float64 { return -50 }}}
	if v := neg.Predict([]float64{0}); v <= 0 {
		t.Fatalf("Exp must stay positive, got %v", v)
	}
	// Log-normal moments.
	lu := Exp{M: quadraticU{}}
	mean, variance := lu.PredictVar([]float64{0.3, 0.7})
	mu := (quadratic{}).Predict([]float64{0.3, 0.7})
	wantMean := math.Exp(mu + 0.04/2)
	if math.Abs(mean-wantMean) > 1e-9 || variance <= 0 {
		t.Fatalf("Exp.PredictVar = %v, %v", mean, variance)
	}
	// Non-uncertain fallback.
	if _, v := e.PredictVar([]float64{0}); v != 0 {
		t.Fatal("plain model should have zero variance")
	}
}
