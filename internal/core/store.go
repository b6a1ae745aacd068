package core

import (
	"sync"
	"sync/atomic"

	"aceso/internal/config"
	"aceso/internal/perfmodel"
)

// store owns the memory of the candidates one worker's tasks make, and
// is the only code that decides when it is reused (DESIGN.md §5b,
// *Candidate lifetime*). A candidate is tried as a move on the scratch
// copy of its node's base (trial) and undone; the search clones it only
// to keep it. A kept candidate — a config and, once estimated, its
// estimate — is visited (its key was taken up, so the pool, the top-K
// list or a node may hold it) or published (in a Result). Only scratch
// memory is released. Each task has its own memo (begin … end); the
// config arena carries dead candidates, and the nodes their scratch
// copies and buffers, to the worker's next task and, through handOver,
// to the next search. Not safe for concurrent use.
type store struct {
	arena  config.Arena
	ests   perfmodel.EstArena
	limbo  []*config.Config    // evicted, recycled at settle
	memo   map[uint64]entry    // the running task's keys
	trials []*trial            // the nodes, by multi-hop depth; fineTune uses depth 0's
	help   trial               // the node pure halves of published moves run on (help.go)
	posted atomic.Pointer[job] // the job the worker's task publishes
}

// trial is one search node (Algorithm 2): a base, its estimate, and what
// its candidates are made with — each move, made on base, is applied to
// scratch, estimated by batch against base, judged and undone (try).
type trial struct {
	base, scratch *config.Config
	est           *perfmodel.Estimate // base's
	batch         perfmodel.Batch
	moves         []move
	ops           []rcCand    // the operators of the moves' recompute rungs
	rank          []rcCand    // rcRank's buffer
	terms         []float64   // the stash terms of the stage a ladder climbs
	climbed       []int       // the stages attachRecompute marked on scratch
	cands         []Candidate // multiHop's candidates of one resource
	res           []Resource  // the next depth's bottleneck resources
	budget        int         // fineTune's trials left

	// multiHop's batch (help.go): the moves' primitives, the rungs their
	// making counted, and the job helpers see, on a copy of base.
	segs   []segment
	gen    trail
	rec    *trail // set: what touches the task is recorded here instead
	shared *config.Config
	epoch  uint64 // names shared's base; 0: no copy yet
	job    job
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

// trial returns depth's node on base, whose estimate est is: a scratch
// copy of base in the memory of the depth's previous scratch, and a
// batch that estimates against base.
func (st *store) trial(pm *perfmodel.Model, depth int, base *config.Config, est *perfmodel.Estimate) *trial {
	for len(st.trials) <= depth {
		st.trials = append(st.trials, new(trial))
	}
	t := st.trials[depth]
	st.arena.Put(t.scratch)
	t.scratch, t.climbed, t.epoch = base.CloneIn(&st.arena), t.climbed[:0], 0
	st.rebase(pm, t, base, est)
	return t
}

// rebase makes base, whose estimate est is, t's base: fineTune's node
// moves to each trial that wins.
func (st *store) rebase(pm *perfmodel.Model, t *trial, base *config.Config, est *perfmodel.Estimate) {
	t.base, t.est = base, est
	pm.BeginBatch(&t.batch, base, est, &st.ests)
}

// visit takes key k up: it reports whether k is new to the task and
// marks it visited.
func (st *store) visit(k uint64) bool {
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
		st.drop(k, e.est)
		e.est = nil
		st.memo[k] = e
	}
}

// drop frees e, an estimate of key k nothing holds: a released one, or
// one a pure half made that its commit did not take into the memo.
func (st *store) drop(k uint64, e *perfmodel.Estimate) {
	if storeHooks.released != nil {
		storeHooks.released(k, e)
	}
	st.ests.Release(e)
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
// ends, an active node's base or candidate slice may alias it and a tie
// may Hash it.
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
// their config arenas, operator records and nodes' buffers: a Result's
// estimates point into the estimate arenas' chunks, and a node keeps
// nothing of the search — base, estimate, batch or candidate, up to its
// slice's capacity.
func handOver(ss *[]store) {
	for i := range *ss {
		st := &(*ss)[i]
		st.ests.Reset()
		for _, t := range st.trials {
			t.forget()
		}
		st.help.forget()
	}
	stores.Put(ss)
}

// forget drops what t holds of a search — base, estimate, batch,
// candidates, its job's searcher and estimates — and keeps its buffers.
func (t *trial) forget() {
	clear(t.cands[:cap(t.cands)])
	t.base, t.est, t.batch = nil, nil, perfmodel.Batch{}
	t.job.s, t.job.est = nil, nil
	out := t.job.out[:cap(t.job.out)]
	for i := range out {
		clear(out[i].steps[:cap(out[i].steps)])
	}
}
