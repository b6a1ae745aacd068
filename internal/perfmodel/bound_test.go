package perfmodel

import (
	"testing"

	"aceso/internal/config"
	"aceso/internal/hardware"
	"aceso/internal/model"
)

// TestLosingFlipWalksNoStage: bounded against flipBase's one-stage
// base, and against that base with every dim flipped, a dim flip the
// bound shows to lose to its base looks up, walks and stores no stage
// and prices at most 6 operators (its base window and its own); a flip
// it shows to win, estimated exactly, walks its stage once. Both sides
// hold the exact estimate.
func TestLosingFlipWalksNoStage(t *testing.T) {
	g, cl, flipped := flipBase(t)
	for j := range g.Ops {
		if len(g.Ops[j].Dims) == 2 {
			flipped = flipDim(g, flipped, j)
		}
	}
	_, _, base := flipBase(t)
	losers, winners := 0, 0
	for _, base := range []*config.Config{base, flipped} {
		l, w := boundFlips(t, g, cl, base)
		losers, winners = losers+l, winners+w
	}
	if losers == 0 || winners == 0 {
		t.Errorf("%d losing and %d winning flips, want some of each", losers, winners)
	}
}

// boundFlips bounds every dim flip of base's one stage for
// TestLosingFlipWalksNoStage and returns how many lost and won.
func boundFlips(t *testing.T, g *model.Graph, cl hardware.Cluster, base *config.Config) (losers, winners int) {
	t.Helper()
	m := New(g, cl, 1)
	ref := &Model{Graph: g, Cluster: cl, Prof: m.Prof, DisableStageCache: true}
	var a EstArena
	var b Batch
	est := m.EstimateIn(base, &a)
	m.BeginBatch(&b, base, est, &a)
	for j := range g.Ops {
		if len(g.Ops[j].Dims) != 2 {
			continue
		}
		c := flipDim(g, base, j)
		want := ref.Estimate(c)
		var lo, hi Estimate
		h0, m0 := m.StageCacheStats()
		n0 := m.scache.Len()
		var ok bool
		priced := countPriced(func() { ok = b.Bound(c, &lo, &hi) })
		if h1, m1 := m.StageCacheStats(); h1 != h0 || m1 != m0 || m.scache.Len() != n0 {
			t.Fatalf("bounding the flip of op %d looked up %d stages, walked %d and stored %d", j, h1-h0, m1-m0, m.scache.Len()-n0)
		}
		if !ok || !lo.Feasible || !hi.Feasible {
			t.Fatalf("flip of op %d: bound undecided (ok %v, feasible %v..%v)", j, ok, lo.Feasible, hi.Feasible)
		}
		if !(lo.IterTime <= want.IterTime && want.IterTime <= hi.IterTime) {
			t.Fatalf("flip of op %d: IterTime %v outside [%v, %v]", j, want.IterTime, lo.IterTime, hi.IterTime)
		}
		switch {
		case lo.IterTime >= est.IterTime:
			losers++
			if priced > 6 {
				t.Errorf("losing flip of op %d priced %d operators, want at most 6", j, priced)
			}
		case hi.IterTime < est.IterTime:
			winners++
			_, m0 := m.StageCacheStats()
			if got := b.Estimate(c); bits(got) != bits(want) {
				t.Errorf("winning flip of op %d: estimate\n%s\nwant\n%s", j, bits(got), bits(want))
			}
			if _, m1 := m.StageCacheStats(); m1-m0 != 1 {
				t.Errorf("winning flip of op %d walked %d stages, want 1", j, m1-m0)
			}
		default:
			t.Errorf("flip of op %d: the bound [%v, %v] straddles the base's %v", j, lo.IterTime, hi.IterTime, est.IterTime)
		}
	}
	t.Logf("%d losing and %d winning flips", losers, winners)
	return losers, winners
}

// FuzzTrialBoundContainsEstimate decodes its input into one-stage
// mutations of a small graph's configuration — dim flip, suffix
// retile, recompute flag, ZeRO or SeqPar — on a healthy, a derated, a
// mixed-class and a one-dead fleet, each bounded against the
// configuration it mutates (which the search may then move to). Every
// exact field the bound brackets (IterTime and PeakMem of the estimate
// that prices every operator) must lie in the bound, feasibility must
// be the bound's wherever its ends agree, and a comparison with the
// base that the bound decides must come out as the exact one does.
func FuzzTrialBoundContainsEstimate(f *testing.F) {
	g, err := model.TinyGPT(2, 32, 64, 4, 16)
	if err != nil {
		f.Fatal(err)
	}
	healthy := hardware.DGX1V100(2)
	derated, err := healthy.Degrade(hardware.FaultSpec{Devices: []hardware.DeviceFault{{Device: 9, FLOPSScale: 0.7, MemScale: 1}}})
	if err != nil {
		f.Fatal(err)
	}
	dead, err := healthy.Degrade(hardware.FaultSpec{Devices: []hardware.DeviceFault{{Device: 3, Dead: true}}})
	if err != nil {
		f.Fatal(err)
	}
	fleets := []struct {
		cl      hardware.Cluster
		devices int
	}{{healthy, 16}, {derated, 16}, {hardware.A100V100(1, 1), 16}, {dead, 8}}
	f.Add([]byte{0, 0, 1, 0, 0, 3, 1, 0, 5, 0, 0, 6, 2, 0, 2, 3, 0, 9})
	f.Add([]byte{1, 1, 0, 129, 1, 2, 128, 0, 4, 1, 1, 130, 130, 1, 7, 3, 0, 1, 0, 0, 2})
	f.Add([]byte{2, 2, 2, 0, 3, 3, 1, 2, 129, 0, 1, 0, 2, 2, 5, 3, 3, 2})
	f.Add([]byte{3, 1, 1, 1, 0, 1, 0, 1, 9, 0, 0, 11, 3, 1, 4, 2, 0, 3})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 3 {
			return
		}
		fl := fleets[int(in[0])%len(fleets)]
		cur, err := config.Balanced(g, fl.devices, 1<<(in[1]%3), 1<<(in[2]%4))
		if err != nil {
			return
		}
		m := New(g, fl.cl, 1)
		ref := &Model{Graph: g, Cluster: fl.cl, Prof: m.Prof, DisableStageCache: true}
		var a EstArena
		var b Batch
		est := m.EstimateIn(cur, &a)
		m.BeginBatch(&b, cur, est, &a)
		for in = in[3:]; len(in) >= 3; in = in[3:] {
			p := cur.NumStages()
			si, x := int(in[1])%p, int(in[2])
			st := &cur.Stages[si]
			j := st.Start + x%st.NumOps()
			c := cur.Clone()
			switch in[0] % 4 {
			case 0:
				c.MutOp(si, j, func(o *config.OpSetting) { o.Dim = (o.Dim + 1) % len(g.Ops[j].Dims) })
			case 1:
				c.MutStage(si, func(st *config.Stage) {
					for k := j - st.Start; k < len(st.Ops); k++ {
						if o := &st.Ops[k]; x&0x80 != 0 {
							o.SetTiling(o.TP/2, o.DP*2)
						} else {
							o.SetTiling(o.TP*2, o.DP/2)
						}
					}
				})
			case 2:
				c.MutOp(si, j, func(o *config.OpSetting) { o.Recompute = !o.Recompute })
			case 3:
				c.MutOp(si, j, func(o *config.OpSetting) { o.ZeRO, o.SeqPar = o.ZeRO != (x&1 == 0), o.SeqPar != (x&1 == 1) })
			}
			if c.Validate(g, fl.devices) != nil || c.Key() == cur.Key() {
				continue
			}
			var lo, hi Estimate
			if !b.Bound(c, &lo, &hi) {
				t.Fatalf("one-stage mutation of %s undecided: %s", cur, c)
			}
			want := ref.Estimate(c)
			if !(lo.IterTime <= want.IterTime && want.IterTime <= hi.IterTime) {
				t.Fatalf("%s: IterTime %v outside [%v, %v]", c, want.IterTime, lo.IterTime, hi.IterTime)
			}
			if !(lo.PeakMem <= want.PeakMem && want.PeakMem <= hi.PeakMem) {
				t.Fatalf("%s: PeakMem %v outside [%v, %v]", c, want.PeakMem, lo.PeakMem, hi.PeakMem)
			}
			if lo.Feasible == hi.Feasible && want.Feasible != lo.Feasible {
				t.Fatalf("%s: feasible %v, the bound says %v", c, want.Feasible, lo.Feasible)
			}
			if lo.IterTime >= est.IterTime && want.IterTime < est.IterTime || hi.IterTime < est.IterTime && want.IterTime >= est.IterTime {
				t.Fatalf("%s: the bound [%v, %v] decides against %v, the exact IterTime is %v", c, lo.IterTime, hi.IterTime, est.IterTime, want.IterTime)
			}
			if in[0]&0x80 != 0 {
				// Move on: the mutation becomes the base, estimated
				// through the batch as the search estimates a winner.
				cur, est = c, b.Estimate(c)
				m.BeginBatch(&b, cur, est, &a)
			}
		}
	})
}
