package core

// stepArena is the per-expand scratch arena: every probe step builds CO bound
// vectors (Lo, Hi, midpoints) whose lifetime ends when the solver call
// returns, so they are carved out of one float64 slab that is reset — not
// freed — between steps. After the first step of an expansion the slab has
// its steady-state size and subsequent steps perform no bound allocations at
// all. Solvers receive sub-slices of the slab; both solver implementations
// only read CO bounds during the call (mogd copies the boxes it keeps for
// near warm-starts), so reuse across steps is safe.
type stepArena struct {
	slab  []float64
	off   int
	grown bool
	// reuses counts steps served entirely from existing capacity — the
	// steady-state signal exported as udao_pf_arena_reuses_total.
	reuses uint64
}

// reset reclaims the whole slab for the next step. A completed step that
// never grew the slab counts as one reuse.
func (a *stepArena) reset() {
	if a.off > 0 && !a.grown {
		a.reuses++
	}
	a.off = 0
	a.grown = false
}

// take carves an n-element zeroed-capacity slice from the slab, growing it
// when the step's demand exceeds capacity. Growth allocates a fresh slab;
// slices carved earlier in the step keep referencing the old one and stay
// valid.
func (a *stepArena) take(n int) []float64 {
	if a.off+n > len(a.slab) {
		size := 2 * (a.off + n)
		if size < 64 {
			size = 64
		}
		a.slab = make([]float64, size)
		a.off = 0
		a.grown = true
	}
	s := a.slab[a.off : a.off+n : a.off+n]
	a.off += n
	return s
}

// copyOf carves a copy of src from the slab.
func (a *stepArena) copyOf(src []float64) []float64 {
	dst := a.take(len(src))
	copy(dst, src)
	return dst
}
