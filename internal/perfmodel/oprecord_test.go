package perfmodel

import (
	"fmt"
	"math"
	"testing"
	"unsafe"

	"aceso/internal/config"
	"aceso/internal/hardware"
	"aceso/internal/model"
)

// bits renders an estimate with every float in its shortest exact form,
// so two renderings are equal only when the estimates are bit-identical.
func bits(e *Estimate) string { return fmt.Sprintf("%v", *e) }

// countPriced returns how many operators f prices.
func countPriced(f func()) int {
	n := 0
	priceHook = func() { n++ }
	defer func() { priceHook = nil }()
	f()
	return n
}

// flipBase is GPT-3 350M as one tp 4 × dp 4 stage on two DGX-1 nodes.
func flipBase(t testing.TB) (*model.Graph, hardware.Cluster, *config.Config) {
	g, err := model.GPT3("350M")
	if err != nil {
		t.Fatal(err)
	}
	cl := hardware.DGX1V100(2)
	base, err := config.Balanced(g, 16, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	base.MutStage(0, func(st *config.Stage) {
		for j := range st.Ops {
			st.Ops[j].SetTiling(4, 4)
		}
	})
	if err := base.Validate(g, 16); err != nil {
		t.Fatal(err)
	}
	return g, cl, base
}

// flipDim returns cfg with operator j's partition dim flipped.
func flipDim(g *model.Graph, cfg *config.Config, j int) *config.Config {
	c := cfg.Clone()
	c.MutOp(0, j, func(o *config.OpSetting) { o.Dim = (o.Dim + 1) % len(g.Ops[j].Dims) })
	return c
}

// TestDimFlipPricesOneOperator: estimated through an arena after its
// base, a one-stage config with one operator's dim flipped prices the
// flipped operator and those whose incoming layout it changed — at most
// 3 of the stage's 196 — and equals the estimate that prices them all.
// A record stays within 104 bytes.
func TestDimFlipPricesOneOperator(t *testing.T) {
	if n := unsafe.Sizeof(opRecord{}); n > 104 {
		t.Errorf("an operator record is %d bytes, want at most 104", n)
	}
	g, cl, base := flipBase(t)
	hist := map[int]int{}
	for j := range g.Ops {
		if len(g.Ops[j].Dims) != 2 {
			continue
		}
		m := New(g, cl, 1)
		ref := &Model{Graph: g, Cluster: cl, Prof: m.Prof, DisableStageCache: true}
		var a EstArena
		if n := countPriced(func() { m.EstimateIn(base, &a) }); n != len(g.Ops) {
			t.Fatalf("the base priced %d operators, want all %d", n, len(g.Ops))
		}
		c := flipDim(g, base, j)
		if err := c.Validate(g, 16); err != nil {
			t.Fatalf("op %d flipped: %v", j, err)
		}
		var got *Estimate
		n := countPriced(func() { got = m.EstimateIn(c, &a) })
		hist[n]++
		if n > 3 {
			t.Errorf("flipping op %d (%s) priced %d operators, want at most 3", j, g.Ops[j].Name, n)
		}
		if want := ref.Estimate(c); bits(got) != bits(want) {
			t.Errorf("flipping op %d: estimate\n%s\nwant\n%s", j, bits(got), bits(want))
		}
	}
	t.Logf("operators priced per flip: %v", hist)
}

// FuzzTermReuseMatchesFresh decodes its input into a stream of search
// moves on a small graph — dim flip, suffix retile, recompute, ZeRO or
// SeqPar, boundary shift, microbatch change — and requires every step's
// estimate through one arena to be bit-identical to the estimate that
// prices every operator.
func FuzzTermReuseMatchesFresh(f *testing.F) {
	g, err := model.TinyGPT(2, 32, 64, 4, 16)
	if err != nil {
		f.Fatal(err)
	}
	two := hardware.DGX1V100(2)
	derated, err := two.Degrade(hardware.FaultSpec{Devices: []hardware.DeviceFault{{Device: 9, FLOPSScale: 0.7, MemScale: 1}}})
	if err != nil {
		f.Fatal(err)
	}
	fleets := []hardware.Cluster{derated, hardware.A100V100(1, 1)}
	f.Add([]byte{0, 1, 2, 0, 0, 3, 1, 0, 5, 4, 0, 2, 2, 1, 3})
	f.Add([]byte{1, 2, 1, 1, 1, 4, 4, 0, 1, 0, 1, 9, 3, 1, 7, 5, 3, 0})
	f.Add([]byte{0, 0, 3, 1, 0, 2, 3, 0, 6, 1, 128, 6, 0, 0, 6})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 3 {
			return
		}
		cl := fleets[int(in[0])%len(fleets)]
		cur, err := config.Balanced(g, 16, 1<<(in[1]%3), 1<<(in[2]%4))
		if err != nil {
			return
		}
		m := New(g, cl, 1)
		ref := &Model{Graph: g, Cluster: cl, Prof: m.Prof, DisableStageCache: true}
		var a EstArena
		for in = in[3:]; ; in = in[3:] {
			if got, want := m.EstimateIn(cur, &a), ref.Estimate(cur); bits(got) != bits(want) {
				t.Fatalf("reused prices diverge on %s:\n%s\nwant\n%s", cur, bits(got), bits(want))
			}
			if len(in) < 3 {
				return
			}
			p := cur.NumStages()
			si, x := int(in[1])%p, int(in[2])
			st := &cur.Stages[si]
			j := st.Start + x%st.NumOps()
			c := cur.Clone()
			switch in[0] % 6 {
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
			case 4:
				if si+1 < p {
					k := x%4 + 1
					if x&0x80 != 0 {
						k = -k
					}
					if (k < 0 || k < c.Stages[si+1].NumOps()) && (k > 0 || -k < c.Stages[si].NumOps()) {
						c.ShiftBoundary(si, k)
					}
				}
			case 5:
				c.SetMicroBatch(1 << (x % 5))
			}
			if c.Validate(g, 16) == nil {
				cur = c
			}
		}
	})
}

// BenchmarkEstimateDimFlip evaluates flipBase's stage with one
// operator's dim flipped each time, through an arena: the stage-cache
// miss a fine-tuning dim flip costs.
func BenchmarkEstimateDimFlip(b *testing.B) {
	g, cl, cfg := flipBase(b)
	m := New(g, cl, 1)
	var a EstArena
	j := 0
	for len(g.Ops[j].Dims) != 2 {
		j++
	}
	st := &cfg.Stages[0]
	key := stageKey{st.SubHash(), cfg.MicroBatch, 0, 1, 0}
	m.evalStage(st, key, &a)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.MutOp(0, j, func(o *config.OpSetting) { o.Dim ^= 1 })
		sink += m.evalStage(st, key, &a).FwdTime
	}
}

// TestStashTermsPriceNothing: a stage's stash terms price no operator,
// and on GPT-3 350M over four tp 2 stages, sequence-parallel in the
// second, every marking of a stage's Recompute flags — none, every
// other operator, all — gets from RecomputePeak, with the terms and the
// unmarked config's estimate, the bits of the marked config's estimated
// peak.
func TestStashTermsPriceNothing(t *testing.T) {
	g, err := model.GPT3("350M")
	if err != nil {
		t.Fatal(err)
	}
	m := New(g, hardware.DGX1V100(2), 1)
	cfg, err := config.Balanced(g, 16, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for si := range cfg.Stages {
		cfg.MutStage(si, func(st *config.Stage) {
			for j := range st.Ops {
				st.Ops[j].SetTiling(2, 2)
				st.Ops[j].SeqPar = si == 1
			}
		})
	}
	if err := cfg.Validate(g, 16); err != nil {
		t.Fatal(err)
	}
	base := m.Estimate(cfg)
	for si := range cfg.Stages {
		var terms []float64
		if n := countPriced(func() { terms = m.StashTerms(cfg, si, nil) }); n != 0 {
			t.Errorf("stage %d: StashTerms priced %d operators", si, n)
		}
		for _, every := range []int{0, 2, 1} {
			c := cfg.Clone()
			c.MutStage(si, func(st *config.Stage) {
				for j := range st.Ops {
					st.Ops[j].Recompute = every > 0 && j%every == 0
				}
			})
			peak, want := base.RecomputePeak(si, &c.Stages[si], terms), m.Estimate(c).Stages[si].PeakMem
			if math.Float64bits(peak) != math.Float64bits(want) {
				t.Errorf("stage %d, every %d recomputed: RecomputePeak %v, estimated %v", si, every, peak, want)
			}
		}
	}
}
