package problem

import (
	"repro/internal/linalg"
	"repro/internal/model"
	"repro/internal/objective"
)

// Batched evaluation seam: the matrix counterparts of ObjValueGrad and the
// per-point EvalBatch loop. Values stay bit-identical to the scalar paths —
// the dnn batch kernels guarantee per-row equality, and models without a
// native batch pass fall back to the exact scalar calls — so memo entries
// written by either path are interchangeable.

// ObjForwardBatch evaluates objective j's effective value at every row of X
// into y and returns the deferred gradient continuation: calling Grad(G)
// backprops the whole batch through one GEMM per layer; skipping it (Done
// only) skips the backward pass entirely. This is the MOGD batched hot path —
// the loss needs every objective's value each iteration but an objective's
// gradient only while its constraint term is active.
//
// For conservative objectives (Alpha > 0 on an Uncertain model) the values
// include the α·std uplift via the scalar effective path while gradients stay
// the mean gradients, exactly like ObjValueGrad.
func (e *Evaluator) ObjForwardBatch(j int, X *linalg.Matrix, y []float64) model.BatchGrad {
	h := model.ForwardBatch(e.vgs[j], X, y)
	rows := uint64(X.Rows)
	e.evals.Add(rows)
	e.telEvals.Add(rows)
	if !e.fused[j] {
		for r := 0; r < X.Rows; r++ {
			y[r] = e.eff[j].Predict(X.Row(r))
		}
		e.evals.Add(rows)
		e.telEvals.Add(rows)
	}
	return h
}

// evalBatchMatrix is EvalBatch's matrix path, taken when every effective
// objective has a native batched pass: memo hits are resolved per point, the
// misses are packed into one matrix and evaluated with one batched pass per
// objective, and the results are scattered back and memoized.
func (e *Evaluator) evalBatchMatrix(xs [][]float64) []objective.Point {
	out := make([]objective.Point, len(xs))
	k := len(e.eff)

	miss := make([]int, 0, len(xs))
	var keys []string
	if e.opts.MemoCap <= 0 {
		for i := range xs {
			miss = append(miss, i)
		}
	} else {
		keys = make([]string, len(xs))
		e.memoMu.RLock()
		for i, x := range xs {
			keys[i] = memoKey(x)
			if cached, ok := e.memo[keys[i]]; ok {
				out[i] = cached.Clone()
			} else {
				miss = append(miss, i)
			}
		}
		e.memoMu.RUnlock()
		hits := uint64(len(xs) - len(miss))
		e.memoHits.Add(hits)
		e.telHits.Add(hits)
		e.memoMiss.Add(uint64(len(miss)))
		e.telMiss.Add(uint64(len(miss)))
	}
	if len(miss) == 0 {
		return out
	}

	X := linalg.NewMatrix(len(miss), e.prob.Dim())
	for mi, i := range miss {
		copy(X.Row(mi), xs[i])
	}
	vals := linalg.NewMatrix(len(miss), k)
	col := make([]float64, len(miss))
	for j, m := range e.eff {
		model.PredictBatch(m, X, col)
		for mi := range miss {
			vals.Row(mi)[j] = col[mi]
		}
	}
	e.evals.Add(uint64(k * len(miss)))
	e.telEvals.Add(uint64(k * len(miss)))
	e.telBatchPts.Add(uint64(len(miss)))

	for mi, i := range miss {
		out[i] = objective.Point(vals.Row(mi)).Clone()
	}
	if e.opts.MemoCap > 0 {
		e.memoMu.Lock()
		for _, i := range miss {
			if len(e.memo) >= e.opts.MemoCap {
				e.memo = make(map[string]objective.Point)
				e.memoFlush++
			}
			e.memo[keys[i]] = out[i].Clone()
		}
		e.memoMu.Unlock()
	}
	return out
}
