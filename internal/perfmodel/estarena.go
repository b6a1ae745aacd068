package perfmodel

// EstArena bump-allocates Estimates and their StageMetrics backing for
// the searches one worker runs in turn. Each searcher memoizes its
// estimates by config key, so most live as long as the search: they
// are carved out of chunks instead of allocated one by one, which
// collapses the search's two largest allocation sites (one Estimate
// plus one StageMetrics slice per unique candidate) into a handful of
// chunk allocations. An estimate goes back through Release when the
// search's candidate store (core.store) says nothing can read it, and
// the next estimate with the same stage count reuses its slot.
//
// An EstArena is single-goroutine state. Chunks are never shared
// between arenas or reused for another search: estimates a search
// returns point into them.
type EstArena struct {
	ests []Estimate
	sm   []StageMetrics
	// free[p] holds released estimates with p stages.
	free [][]*Estimate
}

const (
	estChunk = 1024
	smChunk  = 8192
)

// alloc returns an *Estimate whose header is zeroed and whose Stages
// slice has p entries (cap==len, so an append would reallocate rather
// than clobber the next carve). A reused slot's stage entries still
// hold their previous life: both estimators overwrite every entry. A
// nil receiver degrades to plain allocation, keeping every non-search
// caller of the model allocation-compatible.
func (a *EstArena) alloc(p int) *Estimate {
	if a == nil {
		return &Estimate{Stages: make([]StageMetrics, p)}
	}
	if e := a.Get(p); e != nil {
		*e = Estimate{Stages: e.Stages}
		return e
	}
	if len(a.ests) == cap(a.ests) {
		a.ests = make([]Estimate, 0, estChunk)
	}
	a.ests = a.ests[:len(a.ests)+1]
	e := &a.ests[len(a.ests)-1]
	if len(a.sm)+p > cap(a.sm) {
		n := smChunk
		if p > n {
			n = p
		}
		a.sm = make([]StageMetrics, 0, n)
	}
	lo := len(a.sm)
	a.sm = a.sm[:lo+p]
	e.Stages = a.sm[lo : lo+p : lo+p]
	return e
}

// Release hands e back for reuse by a later estimate with as many
// stages. The caller guarantees that nothing reads e afterwards. A nil
// arena or estimate is ignored.
func (a *EstArena) Release(e *Estimate) {
	if a == nil || e == nil {
		return
	}
	p := len(e.Stages)
	for len(a.free) <= p {
		a.free = append(a.free, nil)
	}
	a.free[p] = append(a.free[p], e)
}

// Get pops a released estimate with p stages, or nil when there is
// none, leaving its contents as they were released. Exposed for tests
// that scribble on released memory; alloc is the production consumer.
func (a *EstArena) Get(p int) *Estimate {
	if a == nil || p >= len(a.free) || len(a.free[p]) == 0 {
		return nil
	}
	l := a.free[p]
	e := l[len(l)-1]
	l[len(l)-1] = nil
	a.free[p] = l[:len(l)-1]
	return e
}
