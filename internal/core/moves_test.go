package core

import (
	"slices"
	"testing"
	"time"

	"aceso/internal/config"
	"aceso/internal/perfmodel"
)

// candidates runs an apply function on stage of cfg and returns its moves
// as configurations: each a clone of cfg with one move applied (a move
// that does not apply is left out).
func candidates(s *searcher, apply func(*searcher, *trial, int), cfg *config.Config, stage int) []*config.Config {
	t := node(s, cfg)
	t.moves = t.moves[:0]
	apply(s, t, stage)
	var out []*config.Config
	for i := range t.moves {
		if c := withMove(cfg, &t.moves[i]); c != nil {
			out = append(out, c)
		}
	}
	return out
}

// node returns depth 0's trial on cfg, which it estimates in full.
func node(s *searcher, cfg *config.Config) *trial {
	return s.st.trial(s.pm, 0, cfg, s.estimate(nil, cfg))
}

// withMove returns a clone of cfg with m applied, nil when m does not
// apply to cfg.
func withMove(cfg *config.Config, m *move) *config.Config {
	c := cfg.Clone()
	if !m.apply(c) {
		return nil
	}
	return c
}

// shifted returns cfg with k ops moved from stage from to from+dir, nil
// when the shift is illegal.
func shifted(cfg *config.Config, from, dir, k int) *config.Config {
	if to := from + dir; to < 0 || to >= cfg.NumStages() || k <= 0 || cfg.Stages[from].NumOps() <= k {
		return nil
	}
	return withMove(cfg, &move{kind: shiftOps, stage: from, to: from + dir, n: k})
}

// retiled returns cfg with ops [from, end) of stage retiled toward dp
// (toDP) or tp, nil when an op cannot convert.
func retiled(cfg *config.Config, stage, from int, toDP bool) *config.Config {
	return withMove(cfg, &move{kind: retileOps, stage: stage, n: from, on: toDP})
}

// traded returns tradeDevices' moves on stage of cfg as configurations.
func traded(s *searcher, cfg *config.Config, stage int, grow, useDP bool) []*config.Config {
	return candidates(s, func(s *searcher, t *trial, stage int) { tradeDevices(s, t, stage, grow, useDP) }, cfg, stage)
}

// moveBase is a seed of a determinism-zoo search, with a searcher of its
// own to make moves on it.
type moveBase struct {
	s    *searcher
	seed *config.Config
}

// moveBases caches FuzzMoveUndo's bases by (model, fleet, depth index).
var moveBases = map[[3]int]*moveBase{}

// zooSeed returns the seed the determinism zoo's search of model mi on
// fleet fi starts its di-th pipeline depth from, nil when it has none.
func zooSeed(t *testing.T, mi, fi, di int) *moveBase {
	models, fleets := determinismZoo(t)
	mi, fi = mi%len(models), fi%len(fleets)
	if b, ok := moveBases[[3]int{mi, fi, di}]; ok {
		return b
	}
	g, err := models[mi].build()
	if err != nil {
		t.Fatal(err)
	}
	cl := fleets[fi].cl
	pm := perfmodel.New(g, cl, 1)
	depths := defaultStageCounts(cl.TotalDevices(), len(g.Ops))
	p := depths[di%len(depths)]
	obj := newObjective(&cl)
	var b *moveBase
	if seed, err := obj.seeds(g, pm, nil)(g, cl.TotalDevices(), p, 1); err == nil && seed.Validate(g, cl.TotalDevices()) == nil {
		b = &moveBase{newSearcher(g, cl, pm, Options{TimeBudget: time.Hour}.withDefaults(), p, new(store)), seed}
	}
	moveBases[[3]int{mi, fi, di}] = b
	return b
}

// FuzzMoveUndo: a move applied to the scratch copy of its base and
// undone leaves the scratch bit-equal to the base — Key, Hash, every
// SubHash, every stage's bounds and devices, every setting and the
// microbatch, each read against a fresh copy whose memos are recomputed
// — and the applied scratch reads as a fresh Clone edited the way the
// primitives edited candidates before moves were data (editOldWay). A
// valid applied scratch then climbs its recompute ladders, as multiHop's
// trials do; its in-place Key and sub-hashes then equal a fresh fold of
// its settings, and the undo restores what the ladders marked as well. The
// bases start at the seeds of the determinism zoo's searches and walk
// on through applied moves; each step's moves come from a primitive's
// generator or from one of fineTune's, on the stage choices names.
func FuzzMoveUndo(f *testing.F) {
	f.Add(uint8(2), uint8(1), uint8(11), []byte{0, 1, 0, 8, 2, 0, 15, 3, 1})
	f.Add(uint8(0), uint8(0), uint8(3), []byte{4, 0, 1, 6, 1, 2, 14, 0, 3, 9, 0, 0})
	f.Add(uint8(4), uint8(2), uint8(1), []byte{1, 0, 5, 2, 1, 1, 10, 0, 0, 12, 0, 1})
	f.Add(uint8(1), uint8(4), uint8(5), []byte{8, 1, 2, 3, 1, 0, 7, 0, 1, 13, 0, 0})
	f.Add(uint8(3), uint8(3), uint8(7), []byte{5, 0, 0, 8, 0, 2, 9, 1, 0, 11, 0, 0})
	f.Add(uint8(2), uint8(0), uint8(4), []byte{0, 3, 3, 0, 3, 5})
	f.Fuzz(func(t *testing.T, mi, fi, di uint8, choices []byte) {
		b := zooSeed(t, int(mi), int(fi), int(di))
		if b == nil {
			return
		}
		s, base := b.s, b.seed.Clone()
		for ; len(choices) >= 3; choices = choices[3:] {
			gen, stage := int(choices[0])%(len(Table)+2), int(choices[1])%base.NumStages()
			tr := node(s, base)
			tr.moves = tr.moves[:0]
			switch gen {
			case len(Table):
				tr.moves = suffixRetiles(tr.moves, base, stage)
			case len(Table) + 1:
				tr.moves = s.dimFlips(tr.moves, base, stage)
			default:
				Table[gen].apply(s, tr, stage)
			}
			if len(tr.moves) == 0 {
				continue
			}
			m := &tr.moves[int(choices[2])%len(tr.moves)]
			want := editOldWay(base, m)
			if ok := m.apply(tr.scratch); ok != (want != nil) {
				t.Fatalf("move %+v applies %v, the old way %v", *m, ok, want != nil)
			}
			var next *config.Config
			if want != nil {
				if got := tr.scratch; got.Canonical() != want.Canonical() || got.Key() != want.Key() || got.Hash() != want.Hash() {
					t.Fatalf("move %+v:\n applied %s\nold way %s", *m, got.Canonical(), want.Canonical())
				}
				next = tr.scratch.Clone()
				if tr.scratch.ValidateDelta(s.graph, s.cluster.TotalDevices(), base) == nil {
					s.attachRecompute(tr)
				}
				fresh := tr.scratch.Clone()
				fresh.Invalidate()
				checkBitEqual(t, "applied", tr.scratch, fresh, m)
			}
			tr.undo(m)
			fresh := base.Clone()
			fresh.Invalidate()
			checkBitEqual(t, "undone", tr.scratch, fresh, m)
			if next != nil && next.Validate(s.graph, s.cluster.TotalDevices()) == nil {
				base = next
			}
		}
	})
}

// checkBitEqual fails unless c, with its memos as they stand, equals
// want, whose memos are computed afresh; what names c's state after m.
func checkBitEqual(t *testing.T, what string, c, want *config.Config, m *move) {
	t.Helper()
	if c.Key() != want.Key() || c.Hash() != want.Hash() || c.Canonical() != want.Canonical() || c.MicroBatch != want.MicroBatch || len(c.Stages) != len(want.Stages) {
		t.Fatalf("%s %+v: Key, Hash, Canonical, microbatch or stage count differ from a fresh fold", what, *m)
	}
	for i := range c.Stages {
		a, w := &c.Stages[i], &want.Stages[i]
		if a.SubHash() != w.SubHash() || a.Start != w.Start || a.End != w.End || a.Devices != w.Devices || !slices.Equal(a.Ops, w.Ops) {
			t.Fatalf("%s %+v: stage %d is %+v, a fresh fold's %+v", what, *m, i, *a, *w)
		}
	}
}

// editOldWay makes m's candidate the way the primitives made candidates
// before moves were data: a fresh Clone of cfg, edited through
// MutStage, MutOp and SetMicroBatch, a shift rebuilt with append one
// boundary at a time, a retile checked first. nil when m does not
// apply.
func editOldWay(cfg *config.Config, m *move) *config.Config {
	c := cfg.Clone()
	switch m.kind {
	case shiftOps:
		dir := 1
		if m.to < m.stage {
			dir = -1
		}
		for from := m.stage; from != m.to; from += dir {
			a, b := &c.Stages[min(from, from+dir)], &c.Stages[max(from, from+dir)]
			var moved []config.OpSetting
			if dir < 0 { // b's first k join a's end
				moved = append(moved, b.Ops[:m.n]...)
				tpl := a.Ops[len(a.Ops)-1]
				for i := range moved {
					dim := moved[i].Dim
					moved[i] = tpl
					moved[i].Dim = dim
				}
				c.MutStage(min(from, from+dir), func(st *config.Stage) {
					st.Ops = append(append([]config.OpSetting(nil), st.Ops...), moved...)
					st.End += m.n
				})
				c.MutStage(max(from, from+dir), func(st *config.Stage) { st.Ops = append([]config.OpSetting(nil), st.Ops[m.n:]...); st.Start += m.n })
			} else { // a's last k join b's start
				moved = append(moved, a.Ops[len(a.Ops)-m.n:]...)
				tpl := b.Ops[0]
				for i := range moved {
					dim := moved[i].Dim
					moved[i] = tpl
					moved[i].Dim = dim
				}
				c.MutStage(min(from, from+dir), func(st *config.Stage) {
					st.Ops = append([]config.OpSetting(nil), st.Ops[:len(st.Ops)-m.n]...)
					st.End -= m.n
				})
				c.MutStage(max(from, from+dir), func(st *config.Stage) { st.Ops = append(moved, st.Ops...); st.Start -= m.n })
			}
		}
	case rescaleStage:
		for _, r := range [...]struct {
			stage    int
			grow, dp bool
		}{{m.stage, m.on, m.dp}, {m.to, !m.on, m.toDP}} {
			c.MutStage(r.stage, func(st *config.Stage) {
				for j := range st.Ops {
					op := &st.Ops[j]
					tp, dp := op.TP, op.DP
					switch {
					case r.grow && r.dp:
						dp *= 2
					case r.grow:
						tp *= 2
					case r.dp:
						dp /= 2
					default:
						tp /= 2
					}
					op.SetTiling(tp, dp)
				}
				if r.grow {
					st.Devices *= 2
				} else {
					st.Devices /= 2
				}
			})
		}
	case retileOps:
		st := &c.Stages[m.stage]
		for j := m.n; j < st.NumOps(); j++ {
			if op := st.Ops[j]; m.on && (op.TP < 2 || c.MicroBatch%(op.DP*2) != 0) || !m.on && op.DP < 2 {
				return nil
			}
		}
		if m.n >= st.NumOps() {
			return nil
		}
		c.MutStage(m.stage, func(st *config.Stage) {
			for j := m.n; j < st.NumOps(); j++ {
				if op := &st.Ops[j]; m.on {
					op.SetTiling(op.TP/2, op.DP*2)
				} else {
					op.SetTiling(op.TP*2, op.DP/2)
				}
			}
		})
	case setMicroBatch:
		c.SetMicroBatch(m.n)
	case setRecompute:
		for _, o := range m.ops {
			c.MutOp(m.stage, o.op, func(op *config.OpSetting) { op.Recompute = m.on })
		}
	case toggleFlag:
		c.MutStage(m.stage, func(st *config.Stage) {
			for j := range st.Ops {
				if op := &st.Ops[j]; m.zero && op.DP > 1 {
					op.ZeRO = m.on
				} else if !m.zero && op.TP > 1 {
					op.SeqPar = m.on
				}
			}
		})
	case flipDim:
		c.MutOp(m.stage, m.n, func(op *config.OpSetting) { op.Dim = m.dim })
	}
	return c
}
