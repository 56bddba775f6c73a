package model

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/linalg"
)

// routedFixture builds a 6-dim composite routing over three analytic stages:
// stage 0 reads dims {0,1,2}, stage 1 reads {0,3,4} (dim 0 shared), stage 2
// reads {5,1}. Weights are non-uniform to exercise the weighting.
func routedFixture(t *testing.T) Routed {
	t.Helper()
	quad := func(d int, c0 float64) Model {
		return Func{D: d, F: func(x []float64) float64 {
			s := 0.0
			for i, v := range x {
				s += (v - c0) * v * float64(i+1)
			}
			return s
		}}
	}
	r, err := NewRouted(6,
		[]Model{quad(3, 0.2), quad(3, 0.7), quad(2, 0.4)},
		[][]int{{0, 1, 2}, {0, 3, 4}, {5, 1}},
		[]float64{1, 0.5, 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// identityFixture routes every stage over the full 4-dim vector — the
// shared-configuration pipeline, where Routed is a plain weighted sum of its
// stage models.
func identityFixture(t *testing.T) Routed {
	t.Helper()
	d := 4
	ident := []int{0, 1, 2, 3}
	r, err := NewRouted(d,
		[]Model{
			Func{D: d, F: func(x []float64) float64 { return x[0]*x[1] + x[2] }},
			Func{D: d, F: func(x []float64) float64 { return x[3] * x[3] }},
		},
		[][]int{ident, ident},
		[]float64{1.5, 0.5},
	)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func randPoint(rng *rand.Rand, d int) []float64 {
	x := make([]float64, d)
	for i := range x {
		x[i] = rng.Float64()
	}
	return x
}

// TestRoutedPredictMatchesManualSum pins the definition: the routed value is
// the weighted stage-by-stage sum over gathered sub-vectors, for stage-wise
// and identity routing alike.
func TestRoutedPredictMatchesManualSum(t *testing.T) {
	for _, r := range []Routed{routedFixture(t), identityFixture(t)} {
		rng := rand.New(rand.NewSource(1))
		for trial := 0; trial < 20; trial++ {
			x := randPoint(rng, r.D)
			want := 0.0
			for i, m := range r.Models {
				sub := make([]float64, len(r.Index[i]))
				for j, d := range r.Index[i] {
					sub[j] = x[d]
				}
				want += r.weight(i) * m.Predict(sub)
			}
			if got := r.Predict(x); got != want {
				t.Fatalf("D=%d: Predict = %v, manual stage sum = %v", r.D, got, want)
			}
		}
	}
}

// TestRoutedValueGradBitIdentical asserts the acceptance contract: the fused
// composite ValueGrad is bit-identical to the scalar stage-by-stage sum, with
// shared dimensions accumulating stage contributions in ascending stage
// order. The identity fixture covers the shared-configuration pipeline.
func TestRoutedValueGradBitIdentical(t *testing.T) {
	for _, r := range []Routed{routedFixture(t), identityFixture(t)} {
		rng := rand.New(rand.NewSource(2))
		for trial := 0; trial < 20; trial++ {
			x := randPoint(rng, r.D)
			wantV := 0.0
			wantG := make([]float64, r.D)
			for i, m := range r.Models {
				sub := make([]float64, len(r.Index[i]))
				for j, d := range r.Index[i] {
					sub[j] = x[d]
				}
				vi, gi := EnsureValueGrad(m).ValueGrad(sub, nil)
				w := r.weight(i)
				wantV += w * vi
				for j, d := range r.Index[i] {
					wantG[d] += w * gi[j]
				}
			}
			grad := make([]float64, r.D)
			v, g := r.ValueGrad(x, grad)
			if v != wantV {
				t.Fatalf("D=%d: ValueGrad value %v != scalar stage sum %v", r.D, v, wantV)
			}
			if &g[0] != &grad[0] {
				t.Fatal("ValueGrad did not use the caller's buffer")
			}
			if !reflect.DeepEqual(g, wantG) {
				t.Fatalf("D=%d: ValueGrad gradient %v != scalar stage sum %v", r.D, g, wantG)
			}
		}
	}
}

// TestRoutedGradientNumeric cross-checks the scatter-added analytic gradient
// against finite differences of the composite Predict.
func TestRoutedGradientNumeric(t *testing.T) {
	r := routedFixture(t)
	x := []float64{0.3, 0.6, 0.1, 0.8, 0.5, 0.9}
	got := r.Gradient(x)
	num := NumericGradient{M: Func{D: r.D, F: r.Predict}, H: 1e-6}.Gradient(x)
	for d := range got {
		if math.Abs(got[d]-num[d]) > 1e-4 {
			t.Fatalf("gradient[%d] = %v, numeric %v", d, got[d], num[d])
		}
	}
}

// TestRoutedBatchMatchesScalar pins all three batch contracts against the
// scalar paths, row by row and bit for bit — including batch size 1, the
// acceptance case.
func TestRoutedBatchMatchesScalar(t *testing.T) {
	r := routedFixture(t)
	rng := rand.New(rand.NewSource(3))
	for _, rows := range []int{1, 7} {
		X := linalg.NewMatrix(rows, r.D)
		for i := range X.Data {
			X.Data[i] = rng.Float64()
		}
		y := make([]float64, rows)
		r.PredictBatch(X, y)
		for rr := 0; rr < rows; rr++ {
			if want := r.Predict(X.Row(rr)); y[rr] != want {
				t.Fatalf("rows=%d: PredictBatch[%d] = %v, scalar %v", rows, rr, y[rr], want)
			}
		}

		G := linalg.NewMatrix(rows, r.D)
		r.ValueGradBatch(X, y, G)
		for rr := 0; rr < rows; rr++ {
			v, g := r.ValueGrad(X.Row(rr), nil)
			if y[rr] != v || !reflect.DeepEqual(G.Row(rr), g) {
				t.Fatalf("rows=%d: ValueGradBatch row %d differs from scalar", rows, rr)
			}
		}

		// Split pass: forward values now, gradients on demand.
		y2 := make([]float64, rows)
		h := r.ForwardBatch(X, y2)
		if !reflect.DeepEqual(y2, y) {
			t.Fatalf("rows=%d: ForwardBatch values differ from ValueGradBatch", rows)
		}
		G2 := linalg.NewMatrix(rows, r.D)
		h.Grad(G2)
		h.Done()
		if !reflect.DeepEqual(G2.Data, G.Data) {
			t.Fatalf("rows=%d: deferred gradients differ from eager batch", rows)
		}
	}
}

// TestRoutedPredictVar checks the independent-error uncertainty combination.
func TestRoutedPredictVar(t *testing.T) {
	u := uncertainStub{v: 3, varr: 4}
	r, err := NewRouted(2, []Model{u, Func{D: 1, F: func(x []float64) float64 { return 10 }}},
		[][]int{{0}, {1}}, []float64{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	mean, variance := r.PredictVar([]float64{0.5, 0.5})
	if mean != 2*3+10 || variance != 4*4 {
		t.Fatalf("PredictVar = %v, %v", mean, variance)
	}
}

type uncertainStub struct{ v, varr float64 }

func (u uncertainStub) Dim() int                                  { return 1 }
func (u uncertainStub) Predict(x []float64) float64               { return u.v }
func (u uncertainStub) PredictVar(x []float64) (float64, float64) { return u.v, u.varr }

// TestNewRoutedValidation covers the routing-table error paths.
func TestNewRoutedValidation(t *testing.T) {
	m1 := Func{D: 1, F: func(x []float64) float64 { return x[0] }}
	cases := []struct {
		name    string
		d       int
		models  []Model
		index   [][]int
		weights []float64
	}{
		{"zero dim", 0, []Model{m1}, [][]int{{0}}, nil},
		{"no models", 3, nil, nil, nil},
		{"index rows mismatch", 3, []Model{m1}, [][]int{{0}, {1}}, nil},
		{"weights mismatch", 3, []Model{m1}, [][]int{{0}}, []float64{1, 2}},
		{"nil model", 3, []Model{nil}, [][]int{{0}}, nil},
		{"dim mismatch", 3, []Model{m1}, [][]int{{0, 1}}, nil},
		{"index out of range", 3, []Model{m1}, [][]int{{3}}, nil},
		{"negative index", 3, []Model{m1}, [][]int{{-1}}, nil},
	}
	for _, tc := range cases {
		if _, err := NewRouted(tc.d, tc.models, tc.index, tc.weights); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
	if _, err := NewRouted(3, []Model{m1}, [][]int{{2}}, nil); err != nil {
		t.Errorf("valid table rejected: %v", err)
	}
}
