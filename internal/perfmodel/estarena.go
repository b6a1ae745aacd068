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
	// ops holds one record per graph operator; they outlive Reset.
	ops []opRecord
}

// opRecord is one operator's last pricing in an arena: the seven
// profiler and collective prices of evalStage and the inputs they came
// from. A price is a pure function of those inputs, so evalStage reuses
// a record whose inputs match instead of making its lookups again.
type opRecord struct {
	in                                        opInputs
	relayout, reshard, fwd, bwd, tp, dp, zero float64
}

// opInputs is what an operator's prices read besides the operator: the
// model (Model.ident), the stage's first device, device count and
// microbatch, the setting but Recompute (which selects no lookup), and
// the incoming tp, dp (0 at the stage's first operator) and layout.
// Validity bounds tp and dp by the device count, which evalStage checks
// against int32, and dim by the operator's dims.
type opInputs struct {
	model                                                  uint64
	firstDev, devices, microBatch, tp, dp, dim, inTP, inDP int32
	zero, seqPar, inSplit                                  bool
}

// priceHook, when a test sets it, is called for each operator evalStage
// prices.
var priceHook func()

// Reset forgets every estimate the arena carved — their chunks belong
// to whoever holds them now — and keeps the operator records.
func (a *EstArena) Reset() { *a = EstArena{ops: a.ops} }

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
