package core

import (
	"runtime"
	"slices"
	"sync/atomic"

	"aceso/internal/config"
	"aceso/internal/obs"
	"aceso/internal/perfmodel"
)

// A multiHop trial has two halves (DESIGN.md §5b, *Scheduling*). The
// pure half applies the move to a private scratch copy of the node's
// base, validates it, climbs its recompute ladders and estimates through
// a private batch, recording on a trail what it would do to the task.
// The commit half does that to the task, on the owner's node and in move
// order, as try does it. So workers out of tasks (helpers) run the pure
// halves of a task's published moves (a job) while the task commits
// them, and the task explores what it explores alone.

// crew is a search's helpers. A task publishes one job at a time, in its
// worker's store (store.posted).
type crew struct {
	ss         *[]store
	wake, over chan struct{} // a job was published; every task has ended
	busy, open atomic.Int32  // workers running tasks; jobs published
	failed     atomic.Bool   // a helper panicked: no store is handed over
}

const (
	helpSpins = 1 << 16 // a helper's turns watching for a job before it parks
	minJob    = 4       // the fewest moves worth publishing
)

// epochs names the bases of jobs, so a helper's node never mistakes one
// for another.
var epochs atomic.Uint64

// job is a node's moves for one resource: helpers read it only between
// publish and retract. base copies the node's base, which ties may Hash.
type job struct {
	s            *searcher
	base         *config.Config
	est          *perfmodel.Estimate
	epoch        uint64
	moves        []move
	out          []trail               // by move
	spare        []*perfmodel.Estimate // the owner's freed estimates, lent to helpers
	lent, claims atomic.Int32
	attached     atomic.Int32
}

// trail is what a pure half did, in order: estimates made, rungs
// counted, picks marked (ops[lo:hi] of stage) and keys released.
type trail struct {
	steps         []step
	ops           []rcCand
	key           uint64 // the candidate's
	valid         bool   // the move applied and validated
	fault         any    // the pure half's panic, raised by the owner
	claimed, done atomic.Bool
}

type step struct {
	kind          uint8 // stepEst, stepRung, stepPick or stepRelease
	stage, lo, hi int
	key           uint64
	est           *perfmodel.Estimate
}

const (
	stepEst = iota
	stepRung
	stepPick
	stepRelease
)

// segment is one primitive's share of a batch: its moves end at moves,
// and the rungs counted making them at steps of trial.gen.
type segment struct {
	prim         *Primitive
	moves, steps int
}

// record appends s to t's trail; false when t is live and has none.
func (t *trial) record(s step) bool {
	if t.rec != nil {
		t.rec.steps = append(t.rec.steps, s)
	}
	return t.rec != nil
}

// publish posts t's moves as a job when a worker is out of tasks (or a
// test forces it), and returns it; nil runs them all live. A top-level batch
// (hop 0) is the one that most often ends early on an improving move,
// wasting the pure halves after it: it is not published.
func (s *searcher) publish(t *trial, hop int) *job {
	c, n := s.crew, len(t.moves)
	if c == nil || n == 0 || !trialHooks.help && (hop == 0 || n < minJob || int(c.busy.Load()) == len(*c.ss)) {
		return nil
	}
	if t.epoch == 0 {
		s.st.arena.Put(t.shared)
		t.shared, t.epoch = t.base.CloneIn(&s.st.arena), epochs.Add(1)
	}
	j := &t.job
	j.s, j.base, j.est, j.epoch, j.moves = s, t.shared, t.est, t.epoch, t.moves
	j.out = slices.Grow(j.out[:0], n)[:n]
	for i := range j.out {
		j.out[i].claimed.Store(false)
		j.out[i].done.Store(false)
		j.out[i].fault = nil
	}
	j.claims.Store(0)
	j.lent.Store(0)
	for e := s.st.ests.Get(len(t.est.Stages)); e != nil; e = s.st.ests.Get(len(t.est.Stages)) {
		if j.spare = append(j.spare, e); len(j.spare) == n {
			break
		}
	}
	s.st.posted.Store(j)
	c.open.Add(1)
	select {
	case c.wake <- struct{}{}:
	default:
	}
	return j
}

// retract takes j off the board, its owner having handled its first
// `from` moves, waits out its helpers, frees what they made of the rest
// and the spares they did not borrow, and raises a helper's panic.
func (s *searcher) retract(j *job, from int) {
	if j == nil {
		return
	}
	s.st.posted.Store(nil)
	s.crew.open.Add(-1)
	j.claims.Store(int32(len(j.moves)))
	await(func() bool { return j.attached.Load() == 0 })
	for _, e := range j.spare[min(int(j.lent.Load()), len(j.spare)):] {
		s.st.ests.Release(e)
	}
	clear(j.spare)
	j.spare = j.spare[:0]
	for i := from; i < len(j.out); i++ {
		for _, p := range j.out[i].steps {
			if j.out[i].done.Load() && p.est != nil {
				s.st.drop(p.key, p.est)
			}
		}
		if j.out[i].fault != nil && j.out[i].done.Load() {
			panic(j.out[i].fault)
		}
	}
}

// claim hands a helper a move nobody claimed, or -1: the later half in
// order, then the earlier half backwards, so the owner, running the
// first moves live, meets moves whose pure halves are done.
func (j *job) claim() int {
	n := len(j.moves)
	for h := n / 2; ; {
		k := int(j.claims.Add(1)) - 1
		if k >= n {
			return -1
		}
		i := h + k
		if k >= n-h {
			i = n - 1 - k
		}
		if j.out[i].claimed.CompareAndSwap(false, true) {
			return i
		}
		if i < h {
			return -1 // the owner is past it, and past every move before it
		}
	}
}

// next tries move i of t, the owner's node, the moves before it done:
// live when no helper claimed it, else by committing its pure half.
func (s *searcher) next(t *trial, j *job, i int) (*config.Config, *perfmodel.Estimate, float64) {
	if j == nil || !trialHooks.help && j.out[i].claimed.CompareAndSwap(false, true) {
		return s.try(t, &t.moves[i], false, 0)
	}
	if r := &j.out[i]; r.claimed.CompareAndSwap(false, true) {
		s.pure(s.st.helper(j), &j.moves[i], r) // forced: the owner runs both halves
	} else {
		await(r.done.Load)
	}
	return s.commit(t, &t.moves[i], &j.out[i])
}

// pure is the pure half of multiHop's trial of m on h, a helper node:
// try's checks up to the visit, recorded on r.
func (s *searcher) pure(h *trial, m *move, r *trail) {
	r.steps, r.ops, r.valid, h.rec = r.steps[:0], r.ops[:0], false, r
	if m.apply(h.scratch) && h.scratch.ValidateDelta(s.graph, s.cluster.TotalDevices(), h.base) == nil {
		s.attachRecompute(h)
		r.key, r.valid = h.scratch.Key(), true
	}
	h.undo(m)
	h.rec = nil
}

// commit is the commit half of m's trial on t, the owner's node: r's
// steps done to the task — an estimate noted, or freed if the memo holds
// one — then the visit, and a kept candidate scored. m and its picks are
// replayed only where a config is read: on a copy of the base to keep
// it, or on the scratch for a tracer, which sees each first estimate's.
func (s *searcher) commit(t *trial, m *move, r *trail) (*config.Config, *perfmodel.Estimate, float64) {
	if r.fault != nil {
		panic(r.fault)
	}
	if !r.valid {
		return nil, nil, 0
	}
	_, tracing := s.tracer.(obs.EstimateTracer)
	var c *config.Config
	if tracing {
		c = t.scratch
		defer t.undo(m)
	} else if !s.st.memo[r.key].visited {
		c = s.st.clone(t.base)
	}
	if c != nil {
		m.apply(c)
	}
	for _, p := range r.steps {
		switch p.kind {
		case stepEst:
			if en := s.st.memo[p.key]; en.est == nil {
				s.note(p.key, en, c, p.est)
			} else {
				s.st.drop(p.key, p.est)
			}
		case stepRung:
			s.rung(t, p.key)
		case stepRelease:
			s.st.release(p.key)
		case stepPick:
			if c != nil {
				setRC(c, p.stage, r.ops[p.lo:p.hi], true)
			}
			if tracing {
				t.climbed = append(t.climbed, p.stage)
			}
		}
	}
	if !s.take(r.key) {
		return nil, nil, 0
	}
	if tracing {
		c = s.st.clone(c)
	}
	e := s.st.memo[r.key].est
	return c, e, s.score(c, e)
}

// helper readies st's helper node for j: a scratch copy of j's base and
// a batch on it, made once per base.
func (st *store) helper(j *job) *trial {
	h := &st.help
	if h.epoch != j.epoch {
		st.arena.Put(h.scratch)
		h.scratch, h.climbed, h.epoch = j.base.CloneIn(&st.arena), h.climbed[:0], j.epoch
		st.rebase(j.s.pm, h, j.base, j.est)
	}
	return h
}

// help makes worker w, out of tasks, a helper until every task ends.
func (c *crew) help(w int) {
	if c == nil {
		return
	}
	if c.busy.Add(-1) == 0 {
		close(c.over)
	}
	for spin := 0; c.busy.Load() > 0; spin++ {
		for i := 0; i < len(*c.ss) && c.open.Load() > 0; i++ {
			if j := (*c.ss)[i].posted.Load(); j != nil && j.attach(&(*c.ss)[i]) {
				if !c.run(j, &(*c.ss)[w]) {
					c.failed.Store(true)
					return
				}
				spin = 0
			}
		}
		if yield(spin); spin >= helpSpins {
			select {
			case <-c.wake:
			case <-c.over:
			}
			spin = 0
		}
	}
}

// attach joins the caller to j if st still publishes it.
func (j *job) attach(st *store) bool {
	j.attached.Add(1)
	if st.posted.Load() == j {
		return true
	}
	j.attached.Add(-1)
	return false
}

// run runs the pure halves of j's moves on st's helper node until none
// is left to claim, then leaves j. It reports false after a panic, which
// it leaves on the move's trail for the owner to raise.
func (c *crew) run(j *job, st *store) (ok bool) {
	k := -1
	defer func() {
		if v := recover(); v != nil {
			j.out[k].fault = v
			j.out[k].done.Store(true)
		}
		j.attached.Add(-1)
	}()
	for k = j.claim(); k >= 0; k = j.claim() {
		h, p := st.helper(j), len(j.est.Stages)
		// Each estimate a helper makes, the owner keeps or frees: the
		// helper borrows the owner's free ones, three in hand, rather
		// than carving new ones.
		var hold [3]*perfmodel.Estimate
		for i := range hold {
			if hold[i] = st.ests.Get(p); hold[i] == nil {
				if l := int(j.lent.Add(1)) - 1; l < len(j.spare) {
					hold[i] = j.spare[l]
				}
			}
		}
		for _, e := range hold {
			st.ests.Release(e)
		}
		j.s.pure(h, &j.moves[k], &j.out[k])
		j.out[k].done.Store(true)
	}
	return true
}

// await spins until done reports true: it waits on microseconds of
// another worker's work.
func await(done func() bool) {
	for i := 0; !done(); i++ {
		yield(i)
	}
}

// yield gives the processor up every 1 024 turns of a spin, leaving
// room for the garbage collector.
func yield(turn int) {
	if turn%1024 == 1023 {
		runtime.Gosched()
	}
}
