package core

import (
	"sync"

	"aceso/internal/config"
	"aceso/internal/perfmodel"
)

// store owns the memory of the candidates one worker's tasks make, and
// is the only code that decides when it is reused (DESIGN.md §5b,
// *Candidate lifetime*). A candidate is tried as a move on the scratch
// copy of its base (trial) and undone; the search clones it only to keep
// it. A kept candidate — a config and, once estimated, its estimate — is
// visited (its key was taken up, so the pool, the top-K list, a
// candidate slice or a batch base may hold it) or published (in a
// Result). Only scratch memory is released. Each task has its own memo
// (begin … end); the config arena carries dead candidates, and the
// per-depth trials their scratch copies and move buffers, to the
// worker's next task and, through handOver, to the next search. Not safe
// for concurrent use.
type store struct {
	arena  config.Arena
	ests   perfmodel.EstArena
	limbo  []*config.Config // evicted, recycled at settle
	memo   map[uint64]entry // the running task's keys
	trials []*trial         // by multi-hop depth; fineTune uses depth 0's
	terms  []float64        // the stash terms of the stage a ladder climbs
}

// trial is one base's trial state: moves are made on base, each is
// applied to scratch, judged and undone (searcher.try).
type trial struct {
	base, scratch *config.Config
	moves         []move
	ops           []rcCand // the operators of the moves' recompute rungs
	climbed       []int    // the stages attachRecompute marked on scratch
	budget        int      // fineTune's trials left
}

// entry is what a task knows of one key.
type entry struct {
	est       *perfmodel.Estimate // nil until estimated, and again once released
	visited   bool                // taken up: its estimate is never released
	explored  bool                // counted, once: when estimated or explored with no estimate
	estimated bool                // estimated, and traced, once
}

// storeHooks, when a test sets them, see each config clone makes, each
// config recycle hands to the arena and each estimate release frees,
// with its key, before either can be reused, each key counted explored,
// each estimate of an explored key, first (never estimated) or not, and
// each score tie hashLess breaks, from every worker at once.
var storeHooks struct {
	cloned   func(*config.Config)
	recycled func(*config.Config)
	released func(uint64, *perfmodel.Estimate)
	again    func(e *perfmodel.Estimate, first bool)
	explored func(uint64)
	tied     func()
}

func (st *store) begin() { st.memo = make(map[uint64]entry, 1024) }

// end closes a task: what is left in its pool dies — pool and top-K
// never share a config — with what evict parked, and the memo goes.
func (st *store) end(pool map[uint64]Candidate) {
	for _, c := range pool {
		st.recycle(c.Config)
	}
	st.settle()
	st.memo = nil
}

// clone copies cfg, a candidate the search keeps, reusing recycled
// memory.
func (st *store) clone(cfg *config.Config) *config.Config {
	c := cfg.CloneIn(&st.arena)
	if storeHooks.cloned != nil {
		storeHooks.cloned(c)
	}
	return c
}

// trial returns depth's trial, with base as its base and a scratch copy
// of base in the memory of the depth's previous scratch.
func (st *store) trial(depth int, base *config.Config) *trial {
	for len(st.trials) <= depth {
		st.trials = append(st.trials, new(trial))
	}
	t := st.trials[depth]
	st.arena.Put(t.scratch)
	t.base, t.scratch, t.climbed = base, base.CloneIn(&st.arena), t.climbed[:0]
	return t
}

// visit takes c up: it reports whether c's key is new to the task and
// marks it visited.
func (st *store) visit(c *config.Config) bool {
	k := c.Key()
	e := st.memo[k]
	if e.visited {
		return false
	}
	e.visited = true
	st.memo[k] = e
	return true
}

// release frees key k's estimate for reuse, unless k is visited. The
// memo keeps the key: it stays explored and is estimated again, to the
// same bits, when asked. Release only the keys of scratch candidates,
// and never the key of one the caller goes on with.
func (st *store) release(k uint64) {
	if e := st.memo[k]; e.est != nil && !e.visited {
		if storeHooks.released != nil {
			storeHooks.released(k, e.est)
		}
		st.ests.Release(e.est)
		e.est = nil
		st.memo[k] = e
	}
}

// recycle takes back a config nothing references: never estimated, or
// with its key's estimate left in the memo.
func (st *store) recycle(c *config.Config) {
	if storeHooks.recycled != nil && c != nil {
		storeHooks.recycled(c)
	}
	st.arena.Put(c)
}

// evict parks a config a prune let go: until the top-level iteration
// ends, a multiHop frame's candidate slice may alias it and a tie may
// Hash it.
func (st *store) evict(c *config.Config) {
	st.limbo = append(st.limbo, c)
}

// settle recycles what evict parked. Call it only where no multiHop
// frame is active.
func (st *store) settle() {
	for i, c := range st.limbo {
		st.recycle(c)
		st.limbo[i] = nil
	}
	st.limbo = st.limbo[:0]
}

// publish freezes the configs a Result hands out (config.Config.Freeze),
// so a caller may key, hash and clone them from several goroutines at
// once, as a plan cache serving warm starts does.
func publish(topK []Candidate) {
	for i := range topK {
		topK[i].Config.Freeze()
	}
}

// stores hands the stores of a finished search to the next, which clones
// into the dead candidates their arenas hold instead of allocating and
// faulting in as much again: a process that searches in a loop keeps a
// steady heap. An idle process keeps nothing: sync.Pool drops the stores
// at the second collection. A Put lands on the putting goroutine's P,
// where a Get from another P cannot see it, so SearchContext takes the
// stores first and hands them over last: the less a caller does between
// two searches, the less often its goroutine has moved between them.
var stores sync.Pool // of *[]store

// takeStores returns one store per worker, an earlier search's where the
// pool still has them.
func takeStores(workers int) *[]store {
	ss, _ := stores.Get().(*[]store)
	if ss == nil {
		ss = new([]store)
	}
	for len(*ss) < workers {
		*ss = append(*ss, store{})
	}
	return ss
}

// handOver gives a finished search's stores to the next one with only
// their config arenas and operator records: a Result's estimates point
// into the estimate arenas' chunks.
func handOver(ss *[]store) {
	for i := range *ss {
		(*ss)[i].ests.Reset()
	}
	stores.Put(ss)
}
