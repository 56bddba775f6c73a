package problem

import (
	"fmt"
	"sort"

	"repro/internal/model"
	"repro/internal/space"
)

// Composite problems: the problem-layer face of stage-wise variable spaces
// (paper §VIII's pipeline-of-tasks direction). A pipeline's objective is
// assembled from per-stage models — each trained on its own stage sub-space —
// and optimized over the composite space's concatenated encoding. Because the
// assembly is a model.Routed over the flat vector, the whole Evaluator seam
// applies unchanged: memoization keys on the concatenated point, EvalBatch
// and the eval counters see one k-objective problem, and MOGD's clamp/round
// runs on the flat space like any other.

// StageObjective assembles one pipeline objective from per-stage models.
type StageObjective struct {
	// Models holds one model per composite stage, in stage order; Models[i]
	// is trained on c.StageSpace(i)'s encoding. A nil entry means the stage
	// does not contribute to this objective (e.g. an ingest-only stage with
	// no ML cost).
	Models []model.Model
	// Weights scale the stage contributions; nil means all 1. Weights of nil
	// stages are ignored.
	Weights []float64
}

// RoutedObjective assembles one StageObjective into a single model over the
// composite's concatenated encoding: a model.Routed feeding every non-nil
// stage model its own sub-vector. The udao facade uses it to wrap pipeline
// objectives before orientation (Maximize) handling. A single unweighted
// stage model that reads the whole encoding in order (a flat problem posed
// as a one-stage composite) is returned as is, sparing every evaluation the
// gather and scatter of a Routed.
func RoutedObjective(c *space.Composite, obj StageObjective) (model.Model, error) {
	if len(obj.Models) != c.NumStages() {
		return nil, fmt.Errorf("problem: %d stage models for %d stages", len(obj.Models), c.NumStages())
	}
	if obj.Weights != nil && len(obj.Weights) != c.NumStages() {
		return nil, fmt.Errorf("problem: %d weights for %d stages", len(obj.Weights), c.NumStages())
	}
	var (
		ms      []model.Model
		index   [][]int
		weights []float64
	)
	for si, m := range obj.Models {
		if m == nil {
			continue
		}
		if m.Dim() != c.StageSpace(si).Dim() {
			return nil, fmt.Errorf("problem: stage %q model dim %d != stage dim %d",
				c.Stages[si].Name, m.Dim(), c.StageSpace(si).Dim())
		}
		ms = append(ms, m)
		index = append(index, c.StageDims(si))
		if obj.Weights != nil {
			weights = append(weights, obj.Weights[si])
		}
	}
	if len(ms) == 0 {
		return nil, fmt.Errorf("problem: no stage models")
	}
	// A stage's dims are distinct flat dims, so D of them in ascending order
	// are exactly 0..D-1.
	if len(ms) == 1 && weights == nil && len(index[0]) == c.Dim() && sort.IntsAreSorted(index[0]) {
		return ms[0], nil
	}
	return model.NewRouted(c.Dim(), ms, index, weights)
}

// NewComposite builds a Problem over a composite space: each objective is the
// weighted sum of its per-stage models, every stage model fed its own
// sub-vector of the concatenated encoding (shared variables routed to every
// stage that ties them).
func NewComposite(c *space.Composite, objs []StageObjective) (*Problem, error) {
	if c == nil {
		return nil, fmt.Errorf("problem: nil composite space")
	}
	if len(objs) == 0 {
		return nil, fmt.Errorf("problem: no objectives")
	}
	models := make([]model.Model, len(objs))
	for oi, obj := range objs {
		m, err := RoutedObjective(c, obj)
		if err != nil {
			return nil, fmt.Errorf("problem: objective %d: %w", oi, err)
		}
		models[oi] = m
	}
	return New(models, c.Space)
}

// MustNewComposite is NewComposite for static definitions; it panics on
// error.
func MustNewComposite(c *space.Composite, objs []StageObjective) *Problem {
	p, err := NewComposite(c, objs)
	if err != nil {
		panic(err)
	}
	return p
}
