package core

import (
	"slices"
	"testing"
	"time"

	"aceso/internal/config"
	"aceso/internal/hardware"
	"aceso/internal/model"
	"aceso/internal/obs"
	"aceso/internal/perfmodel"
)

// estimateKeys records, in order, the key of every configuration the
// search estimates as new.
type estimateKeys []uint64

func (k *estimateKeys) OnIteration(obs.IterationEvent) {}

func (k *estimateKeys) OnEstimate(cfg *config.Config, _ *perfmodel.Estimate) {
	*k = append(*k, cfg.Key())
}

// ladderSearcher builds a searcher on a store of its own over pm's graph
// and cluster, tracing into tr.
func ladderSearcher(pm *perfmodel.Model, tr obs.Tracer) *searcher {
	opts := Options{TimeBudget: time.Hour, Tracer: tr}.withDefaults()
	return newSearcher(pm.Graph, pm.Cluster, pm, opts, 0, new(store))
}

// ladderStats counts the shapes of ladder attachRecomputeByClones met:
// a pick below the rung the ladder stopped on, and the ladder's top
// taken because no rung fit.
type ladderStats struct{ climbedPast, top int }

// attachRecomputeByClones is attachRecompute built the way the search
// built it before the ladder ran on one scratch config: every rung a
// fresh clone of the config it extends, then a loop picking the first
// that fits the stage, else the ladder's top. It is the reference
// TestRecomputeLadderMatchesClones holds attachRecompute to.
func attachRecomputeByClones(s *searcher, cfg *config.Config, stats *ladderStats) *config.Config {
	drop := func(c, keep *config.Config) {
		if k := c.Key(); k != keep.Key() {
			s.st.release(k)
		}
		s.st.recycle(c)
	}
	e := s.estimate(cfg)
	if e.Feasible {
		return cfg
	}
	out := cfg
	for si := range out.Stages {
		if e.Stages[si].PeakMem <= e.Stages[si].CapMem {
			continue
		}
		rank := slices.Clone(rcRank(s, out, si, false))
		mark := func(k int) *config.Config {
			c := s.st.clone(out)
			c.MutStage(si, func(st *config.Stage) {
				for _, o := range rank[:k] {
					st.Setting(o.op).Recompute = true
				}
			})
			return c
		}
		var cands []*config.Config
		for k := 1; k <= len(rank); k *= 2 {
			c := mark(k)
			cands = append(cands, c)
			if s.estimate(c).Feasible {
				break
			}
		}
		climbed := len(cands)
		if k := len(rank); k > 1 {
			cands = append(cands, mark(k))
		}
		if len(cands) == 0 {
			continue
		}
		var pick *config.Config
		var pickEst *perfmodel.Estimate
		for i, c := range cands {
			pick, pickEst = c, s.estimate(c)
			if pickEst.Stages[si].PeakMem <= pickEst.Stages[si].CapMem {
				if i < climbed-1 {
					stats.climbedPast++
				}
				break
			}
		}
		if len(cands) > climbed && pick == cands[climbed] {
			stats.top++
		}
		for _, c := range cands {
			if c != pick {
				drop(c, pick)
			}
		}
		if out != cfg && out != pick {
			drop(out, pick)
		}
		out, e = pick, pickEst
		if e.Feasible {
			break
		}
	}
	return out
}

// ladderRun is what one attachRecompute call did: the configuration it
// returned, the keys it estimated as new in order, and the keys whose
// estimates it released.
type ladderRun struct {
	canonical string
	key, hash uint64
	estimated []uint64
	released  []uint64
}

func runLadder(pm *perfmodel.Model, start *config.Config, attach func(*searcher, *config.Config) *config.Config) ladderRun {
	var run ladderRun
	tr := (*estimateKeys)(&run.estimated)
	storeHooks.released = func(k uint64, _ *perfmodel.Estimate) { run.released = append(run.released, k) }
	defer func() { storeHooks.released = nil }()
	s := ladderSearcher(pm, tr)
	got := attach(s, start.Clone())
	run.canonical, run.key, run.hash = got.Canonical(), got.Key(), got.Hash()
	slices.Sort(run.released)
	return run
}

// TestRecomputeLadderMatchesClones holds attachRecompute, which climbs
// each stage's recompute ladder on one scratch config, to the ladder
// built one clone per rung (attachRecomputeByClones): over the zoo's
// models at 2, 4, 8 and 16 stages on 16 V100s, from every balanced start
// with a stage over memory, both return the same configuration (settings,
// Key and Hash), estimate the same keys as new in the same order, and
// release the estimates of the same keys.
func TestRecomputeLadderMatchesClones(t *testing.T) {
	models, _ := determinismZoo(t)
	cl := hardware.DGX1V100(2)
	var stats ladderStats
	starts := 0
	for _, m := range models {
		g, err := m.build()
		if err != nil {
			t.Fatal(err)
		}
		pm := perfmodel.New(g, cl, 1)
		for _, stages := range []int{2, 4, 8, 16} {
			for mbs := 1; mbs <= 16; mbs *= 2 {
				start, err := config.Balanced(g, cl.TotalDevices(), stages, mbs)
				if err != nil || pm.Estimate(start).Feasible {
					continue
				}
				starts++
				want := runLadder(pm, start, func(s *searcher, c *config.Config) *config.Config {
					return attachRecomputeByClones(s, c, &stats)
				})
				got := runLadder(pm, start, (*searcher).attachRecompute)
				name := m.name + "/" + start.String()
				if got.canonical != want.canonical || got.key != want.key || got.hash != want.hash {
					t.Errorf("%s: attachRecompute returned\n%s (key %x, hash %x), by clones\n%s (key %x, hash %x)",
						name, got.canonical, got.key, got.hash, want.canonical, want.key, want.hash)
				}
				if !slices.Equal(got.estimated, want.estimated) {
					t.Errorf("%s: estimated %d keys %x, by clones %d keys %x", name,
						len(got.estimated), got.estimated, len(want.estimated), want.estimated)
				}
				if !slices.Equal(got.released, want.released) {
					t.Errorf("%s: released %x, by clones %x", name, got.released, want.released)
				}
			}
		}
	}
	t.Logf("%d starts over memory: %d picks below the rung a ladder stopped on, %d ladder tops", starts, stats.climbedPast, stats.top)
	if stats.climbedPast == 0 || stats.top == 0 {
		t.Error("the starts miss a shape of ladder: the test exercises too little")
	}
}

// deepRecomputeStart returns a searcher for GPT-3 2.6B on DGX1V100(2),
// tracing into tr, and a balanced 16-stage start with a stage over
// memory.
func deepRecomputeStart(tb testing.TB, tr obs.Tracer) (*searcher, *config.Config) {
	tb.Helper()
	g, err := model.GPT3("2.6B")
	if err != nil {
		tb.Fatal(err)
	}
	cl := hardware.DGX1V100(2)
	pm := perfmodel.New(g, cl, 1)
	for mbs := 1; mbs <= 16; mbs *= 2 {
		if c, err := config.Balanced(g, cl.TotalDevices(), 16, mbs); err == nil && !pm.Estimate(c).Feasible {
			return ladderSearcher(pm, tr), c
		}
	}
	tb.Fatal("no balanced 16-stage start is over memory")
	return nil, nil
}

// TestRecomputeRungLooksUpOneStage pins what a rung costs the stage
// cache: a rung differs from the config it extends in the one stage it
// recomputes, and is estimated against that config, so it looks up
// that stage alone — recompute moves no device, so no other stage's
// pipeline context shifts.
func TestRecomputeRungLooksUpOneStage(t *testing.T) {
	var tr estimateKeys
	s, cfg := deepRecomputeStart(t, &tr)
	s.estimate(cfg)
	tr = tr[:0]
	h0, m0 := s.pm.StageCacheStats()
	s.attachRecompute(cfg)
	h1, m1 := s.pm.StageCacheStats()
	if len(tr) == 0 {
		t.Fatal("attachRecompute estimated no rung")
	}
	if lookups := h1 - h0 + m1 - m0; lookups != uint64(len(tr)) {
		t.Errorf("%d rungs estimated made %d stage-cache lookups, want one each", len(tr), lookups)
	}
}

// BenchmarkAttachRecompute times attachRecompute on the start of
// TestRecomputeRungLooksUpOneStage from an empty memo, the start's own
// estimate included.
func BenchmarkAttachRecompute(b *testing.B) {
	s, cfg := deepRecomputeStart(b, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(s.st.memo)
		if rc := s.attachRecompute(cfg); rc != cfg {
			s.st.recycle(rc)
		}
	}
}
