package perfmodel

import (
	"math"
	"slices"

	"aceso/internal/config"
)

// Batch evaluates many candidate configurations against one shared
// base configuration: BeginBatch records the base's per-stage memo keys
// once, and the stage walk behind every estimate copies a candidate's
// stage from the base estimate wherever its key equals the base's at
// the same index, instead of going through the stage cache's map.
//
// This is the "batched stage estimation" of DESIGN.md §5b: the search
// estimates each candidate against the configuration it was cloned
// from, which it differs from in one or two stages — in the pinned
// search's 16-stage task, 90 % of stage visits copy base metrics.
//
// A Batch is single-goroutine state owned by one searcher; the
// underlying Model remains shared and thread-safe.
type Batch struct {
	m       *Model
	cfg     *config.Config
	base    *Estimate
	arena   *EstArena
	keys    []stageKey
	scratch Estimate // Bound composes its two ends here
	// Bound's pricer of stage chainStage (-1: none yet), and the chains
	// its base operators read, filled as far as Bound has asked.
	x          pricer
	chainStage int
	chains     []opChain
}

// BeginBatch (re)initializes b to evaluate candidates against the
// base configuration cfg and its estimate est (which must be
// m.Estimate(cfg)'s result; nil copies nothing). Results are carved out
// of arena (nil degrades to plain allocation). The key slice is reused
// across re-initializations, so a searcher can keep one Batch per
// recursion depth with no per-node allocation.
func (m *Model) BeginBatch(b *Batch, cfg *config.Config, est *Estimate, arena *EstArena) {
	b.m, b.cfg, b.base, b.arena, b.chainStage = m, cfg, est, arena, -1
	p, n := cfg.NumStages(), cfg.NumMicrobatches(m.Graph.GlobalBatch)
	b.keys = slices.Grow(b.keys[:0], p)
	firstDev, prevDevices := 0, 0
	for si := range cfg.Stages {
		st := &cfg.Stages[si]
		b.keys = append(b.keys, stageKey{st.SubHash(), cfg.MicroBatch, firstDev, min(p-si, n), prevDevices})
		firstDev += st.Devices
		prevDevices = st.Devices
	}
}

// Estimate predicts cfg, reusing the base estimate's per-stage metrics
// wherever cfg's stage keys equal the base's. A candidate with another
// pipeline depth or microbatch size matches no key; the result is
// identical to Model.Estimate's either way.
func (b *Batch) Estimate(cfg *config.Config) *Estimate {
	return b.m.walk(cfg, b.arena, b.base, b.keys)
}

// Bound brackets the estimate of a trial that rewrites one stage of the
// batch base, without walking that stage (DESIGN.md §5b, *Bounded
// trials*): lo and hi receive IterTime, PeakMem and Feasible (no
// Stages) such that Estimate(cfg)'s IterTime and PeakMem lie in
// [lo, hi], and its Feasible is lo's wherever lo's equals hi's. It
// reports false, undecided, unless cfg differs from the base in the
// settings of one stage only and every term is finite and nonnegative.
//
// The trial stage's sums are the base's minus the terms of the changed
// window of operators plus the window's new terms. The window runs from
// the first operator whose setting differs past the last, until the
// chain an operator reads is the base's again. Each field is a sum of
// at most N = 8·(ops+1) nonnegative terms, so with γ = Nu/(1−Nu),
// u = 2⁻⁵³, a pad of 4γ·(F_b + W_old + W_new) covers the rounding of
// the base's sum, of both windows', of the trial's, and of this
// formula. Eq. 1, composeIterTime and the feasibility fold are monotone
// in every input, so they carry the two ends with no further slack.
func (b *Batch) Bound(cfg *config.Config, lo, hi *Estimate) bool {
	base, bc, m := b.base, b.cfg, b.m
	if base == nil || len(cfg.Stages) != len(b.keys) || cfg.MicroBatch != bc.MicroBatch || !m.termsSound() {
		return false
	}
	si := -1
	for i := range cfg.Stages {
		if cfg.Stages[i].SubHash() != b.keys[i].sub {
			if si >= 0 {
				return false
			}
			si = i
		}
	}
	if si < 0 {
		return false
	}
	bst, tst := &bc.Stages[si], &cfg.Stages[si]
	if tst.Start != bst.Start || tst.End != bst.End || tst.Devices != bst.Devices {
		return false
	}
	first, last := 0, len(tst.Ops)-1
	for first <= last && tst.Ops[first] == bst.Ops[first] {
		first++
	}
	for last > first && tst.Ops[last] == bst.Ops[last] {
		last--
	}
	if first > last {
		return false
	}
	first, last = bst.Start+first, bst.Start+last

	k, x := b.keys[si], &b.x
	if b.chainStage != si {
		*x, b.chainStage = m.pricer(k.firstDev, bst.Devices, k.microBatch, b.arena), si
		b.chains = append(b.chains[:0], stageEntry)
	}
	chain := func(j int) opChain { // what the base's operator j reads
		for i := len(b.chains) - 1; i < j-bst.Start; i++ {
			_, _, c := flow(&m.Graph.Ops[bst.Start+i], bst.Setting(bst.Start+i), b.chains[i])
			b.chains = append(b.chains, c)
		}
		return b.chains[j-bst.Start]
	}
	in := chain(first)
	end, ct := first, in
	for end < bst.End && (end <= last || ct != chain(end)) {
		_, _, ct = flow(&m.Graph.Ops[end], tst.Setting(end), ct)
		end++
	}
	var wo, wn StageMetrics
	x.addOps(&wo, bst, first, end, in)
	x.borrow = true
	x.addOps(&wn, tst, first, end, in)
	x.borrow = false
	if first == bst.Start {
		x.stash(&wo, bst)
		x.stash(&wn, tst)
	}

	nu := float64(8*(bst.NumOps()+1)) * 0x1p-53
	g, f, ok := nu/(1-nu), &base.Stages[si], nu < 0.1
	span := func(a, wo, wn float64) (float64, float64) {
		s := a + wo + wn
		ok = ok && s <= math.MaxFloat64
		t, pad := a-wo+wn, 4*g*s
		return max(t-pad, 0), t + pad
	}
	var sl, sh StageMetrics
	sl.FwdTime, sh.FwdTime = span(f.FwdTime, wo.FwdTime, wn.FwdTime)
	sl.BwdTime, sh.BwdTime = span(f.BwdTime, wo.BwdTime, wn.BwdTime)
	sl.DPSync, sh.DPSync = span(f.DPSync, wo.DPSync, wn.DPSync)
	sl.ParamMem, sh.ParamMem = span(f.ParamMem, wo.ParamMem, wn.ParamMem)
	sl.OptMem, sh.OptMem = span(f.OptMem, wo.OptMem, wn.OptMem)
	sl.ActPerMB, sh.ActPerMB = span(f.ActPerMB, wo.ActPerMB, wn.ActPerMB)
	// ExtraMem, a max, is the new window's or one outside the window;
	// when the base's is outside the old window, it is the larger.
	sl.ExtraMem, sh.ExtraMem = wn.ExtraMem, max(f.ExtraMem, wn.ExtraMem)
	if f.ExtraMem > wo.ExtraMem {
		sl.ExtraMem = sh.ExtraMem
	}
	if !ok || !(sh.ExtraMem <= math.MaxFloat64) {
		return false
	}
	sl.PeakMem, sh.PeakMem = peakMem(&sl, k.inflight), peakMem(&sh, k.inflight)
	sl.CapMem, sh.CapMem = f.CapMem, f.CapMem

	// Compose each end as walk does: the base's stages with si replaced.
	n, sc := bc.NumMicrobatches(m.Graph.GlobalBatch), &b.scratch
	sc.Stages = append(sc.Stages[:0], base.Stages...)
	for _, side := range [...]struct {
		e  *Estimate
		sm *StageMetrics
	}{{lo, &sl}, {hi, &sh}} {
		sc.Stages[si] = *side.sm
		sc.IterTime, sc.PeakMem, sc.Feasible = 0, 0, n > 0
		for i := range sc.Stages {
			sc.Feasible = sc.Feasible && !(sc.Stages[i].PeakMem > sc.Stages[i].CapMem)
			sc.PeakMem = max(sc.PeakMem, sc.Stages[i].PeakMem)
		}
		m.composeIterTime(sc, n)
		*side.e = Estimate{IterTime: sc.IterTime, PeakMem: sc.PeakMem, Feasible: sc.Feasible, OOMStage: -1, Microbatches: n}
	}
	return true
}
