package telemetry

import (
	"sort"
	"time"
)

// Span is a lightweight handle for one timed region of a solve. Spans are
// value types: StartSpan allocates nothing, and End emits a single Event
// carrying the span's ID, its parent's ID and the measured duration — so the
// existing ring buffer and JSONL sink double as the span store, and the
// hot-path cost of an instrumented region is one atomic load (disabled) or
// one ring write (enabled, 0 allocs/op when Attrs is nil).
//
// Span IDs are process-unique and strictly increasing (a child's ID is always
// greater than its parent's), which lets readers carve one request's subtree
// out of a run that spans several requests.
type Span struct {
	tracer *Tracer
	level  Level
	run    string
	scope  string
	name   string
	id     uint64
	parent uint64
	start  time.Time
}

// StartSpan opens a span under the given parent ID (0 = root). If level l is
// not enabled the returned span is inert: ID() is 0 and End is a no-op, so
// callers never branch on the trace level themselves.
func (t *Tracer) StartSpan(l Level, run string, parent uint64, scope, name string) Span {
	if !t.Enabled(l) {
		return Span{}
	}
	return Span{
		tracer: t,
		level:  l,
		run:    run,
		scope:  scope,
		name:   name,
		id:     t.spanSeq.Add(1),
		parent: parent,
		start:  time.Now(),
	}
}

// ID returns the span's process-unique identifier, or 0 for an inert span.
// Pass it as the parent argument of StartSpan to nest.
func (s Span) ID() uint64 { return s.id }

// Recording reports whether the span was actually opened (the tracer level
// was enabled at StartSpan time).
func (s Span) Recording() bool { return s.id != 0 }

// End closes the span, emitting one Event with the measured duration. Detail
// and attrs follow the Event conventions; attrs may be nil (the common case —
// then End allocates nothing beyond the ring write).
func (s Span) End(detail string, attrs map[string]float64) {
	if s.id == 0 {
		return
	}
	s.tracer.Emit(s.level, Event{
		Run:    s.run,
		Scope:  s.scope,
		Name:   s.name,
		Detail: detail,
		Dur:    time.Since(s.start),
		Attrs:  attrs,
		Span:   s.id,
		Parent: s.parent,
	})
}

// PhaseTime is one row of a per-phase breakdown: how much of the request's
// wall time a trace scope accounts for, and how long its spans were open.
type PhaseTime struct {
	Phase string        // trace scope ("service", "pf", "mogd", ...)
	Spans int           // number of spans aggregated into this row
	Total time.Duration // summed span durations: busy time, inclusive of children
	Self  time.Duration // wall time attributed to the phase (see PhaseBreakdown)
}

// PhaseBreakdown computes per-scope wall-time attribution from span-carrying
// events.
//
// It sweeps each span tree along the time axis. At every instant the wall
// time goes to the deepest active spans — the open spans with no open child —
// split equally among them, so parallel siblings (a concurrent solve batch)
// share the instant rather than each claiming it. Children are first clipped
// to their parent's interval against timing skew. The Self column of a tree
// therefore sums to exactly the root span's duration, however parallel the
// work under it, which is what makes the breakdown comparable to the run's
// recorded wall time. Total is the busy time: summed span durations,
// inclusive of children.
//
// If root is nonzero only the subtree below (and including) that span ID is
// aggregated — the way to isolate one request when a cached optimizer's run
// ID spans several. With root == 0 every span tree in events is aggregated
// (each swept on its own) and the returned total is the summed duration of
// all parentless spans.
//
// Returns the per-phase rows (sorted by descending self time, ties by phase
// name) and the wall-clock total the self times sum to.
func PhaseBreakdown(events []Event, root uint64) ([]PhaseTime, time.Duration) {
	// A child's span ID is greater than its parent's, so a subtree holds no
	// span older than its root. Skipping those keeps the cost of isolating
	// one request proportional to its own subtree, not to the whole run the
	// request shares with every earlier request against the same optimizer.
	nodes := make(map[uint64]*spanNode)
	for _, e := range events {
		if e.Span == 0 || e.Dur <= 0 || e.Span < root {
			continue
		}
		nodes[e.Span] = &spanNode{id: e.Span, scope: PhaseKey(e.Scope, e.Name), start: e.Time.Add(-e.Dur), end: e.Time, parent: e.Parent}
	}
	var roots []*spanNode
	for id, n := range nodes {
		p, ok := nodes[n.parent]
		switch {
		case root != 0 && id == root, root == 0 && (!ok || n.parent == id):
			roots = append(roots, n)
		case ok && n.parent != id:
			p.kids = append(p.kids, n)
		}
	}
	if len(roots) == 0 {
		return nil, 0
	}

	agg := make(map[string]*PhaseTime)
	var total time.Duration
	for _, r := range roots {
		total += r.end.Sub(r.start)
		var tree []*spanNode
		r.collect(r.start, r.end, 0, &tree)
		sweep(tree)
		for _, n := range tree {
			row := agg[n.scope]
			if row == nil {
				row = &PhaseTime{Phase: n.scope}
				agg[n.scope] = row
			}
			row.Spans++
			row.Total += n.dur
			row.Self += n.self
		}
	}

	rows := make([]PhaseTime, 0, len(agg))
	for _, r := range agg {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Self != rows[j].Self {
			return rows[i].Self > rows[j].Self
		}
		return rows[i].Phase < rows[j].Phase
	})
	return rows, total
}

// PhaseKey maps a span's (scope, name) to its phase label. Phases follow the
// trace scope ("service", "pf", "mogd", "eval", "model"), except the "stage"
// scope of model fetches, which stays broken out per stage name ("stage:etl")
// so a pipeline run's breakdown shows each stage's share.
func PhaseKey(scope, name string) string {
	if scope == "stage" && name != "" {
		return scope + ":" + name
	}
	return scope
}

// spanNode is one span of a tree being swept: its raw interval, the interval
// clipped to its parent's, its depth, and the wall time the sweep gives it.
type spanNode struct {
	id, parent uint64
	scope      string
	start, end time.Time
	kids       []*spanNode
	up         *spanNode // parent within the swept tree; nil at its root

	dur   time.Duration // raw duration
	depth int
	open  int // children open at the sweep's current instant
	self  time.Duration
}

// collect appends n and its descendants to tree, clipping each span to
// [lo, hi], its parent's clipped interval, and recording depths.
func (n *spanNode) collect(lo, hi time.Time, depth int, tree *[]*spanNode) {
	n.dur = n.end.Sub(n.start)
	if n.start.Before(lo) {
		n.start = lo
	}
	if n.end.After(hi) {
		n.end = hi
	}
	n.depth = depth
	*tree = append(*tree, n)
	for _, k := range n.kids {
		k.up = n
		k.collect(n.start, n.end, depth+1, tree)
	}
}

// sweep attributes the wall time of one clipped span tree: between
// consecutive span boundaries, the elapsed time is split equally among the
// open spans that have no open child. The remainder nanoseconds of each split
// go to the first spans in a fixed order, so the self times sum to the root's
// duration exactly.
func sweep(tree []*spanNode) {
	type edge struct {
		at    time.Time
		close bool
		n     *spanNode
	}
	edges := make([]edge, 0, 2*len(tree))
	for _, n := range tree {
		if n.end.After(n.start) {
			edges = append(edges, edge{n.start, false, n}, edge{n.end, true, n})
		}
	}
	// At one instant: closes before opens, deeper closes first and shallower
	// opens first, so a parent is open whenever its child is.
	sort.Slice(edges, func(i, j int) bool {
		a, b := edges[i], edges[j]
		switch {
		case !a.at.Equal(b.at):
			return a.at.Before(b.at)
		case a.close != b.close:
			return a.close
		case a.n.depth != b.n.depth:
			return (a.n.depth > b.n.depth) == a.close
		}
		return a.n.id < b.n.id
	})
	var leaves []*spanNode
	drop := func(n *spanNode) {
		for i, l := range leaves {
			if l == n {
				leaves = append(leaves[:i], leaves[i+1:]...)
				return
			}
		}
	}
	var last time.Time
	for _, e := range edges {
		if seg := e.at.Sub(last); seg > 0 && len(leaves) > 0 {
			share, rem := seg/time.Duration(len(leaves)), int(seg%time.Duration(len(leaves)))
			for i, l := range leaves {
				l.self += share
				if i < rem {
					l.self++
				}
			}
		}
		last = e.at
		parent := e.n.up
		if e.close {
			drop(e.n)
			if parent != nil {
				if parent.open--; parent.open == 0 {
					leaves = append(leaves, parent)
				}
			}
			continue
		}
		leaves = append(leaves, e.n)
		if parent != nil {
			if parent.open++; parent.open == 1 {
				drop(parent)
			}
		}
	}
}
