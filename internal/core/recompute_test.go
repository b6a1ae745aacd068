package core

import (
	"math"
	"reflect"
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

// attachOn runs attachRecompute on a trial of cfg and returns the
// trial's scratch as the ladders left it, until the store's next trial.
func attachOn(s *searcher, cfg *config.Config) *config.Config {
	t := node(s, cfg)
	s.attachRecompute(t)
	return t.scratch
}

// ladderStats counts the shapes of ladder attachRecomputeByClones met:
// a pick below the rung the ladder stopped on, and the ladder's top
// taken because no rung fit. rung, when set, sees each rung the ladder
// estimates, the top included: its stage, the estimate of the config it
// extends, and the rung with its estimate.
type ladderStats struct {
	climbedPast, top int
	rung             func(si int, base *perfmodel.Estimate, c *config.Config, e *perfmodel.Estimate)
}

// attachRecomputeByClones is attachRecompute built the way the search
// built it before the ladder ran on one scratch config: every rung a
// fresh clone of the config it extends, estimated, then a loop picking
// the first that fits the stage, else the ladder's top. It is the
// reference TestRecomputeLadderMatchesClones holds attachRecompute to.
func attachRecomputeByClones(s *searcher, cfg *config.Config, stats *ladderStats) *config.Config {
	drop := func(c, keep *config.Config) {
		if k := c.Key(); k != keep.Key() {
			s.st.release(k)
		}
		s.st.recycle(c)
	}
	estimate := func(si int, base *perfmodel.Estimate, c *config.Config) *perfmodel.Estimate {
		e := s.estimate(nil, c)
		if stats.rung != nil {
			stats.rung(si, base, c, e)
		}
		return e
	}
	e := s.estimate(nil, cfg)
	if e.Feasible {
		return cfg
	}
	out := cfg
	for si := range out.Stages {
		if e.Stages[si].PeakMem <= e.Stages[si].CapMem {
			continue
		}
		rank := slices.Clone(rcRank(s, new(trial), out, si, false))
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
			if estimate(si, e, c).Feasible {
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
			pick, pickEst = c, estimate(si, e, c)
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
// returned, the keys it counted as explored in order, and the task's
// memo after it, but for which keys were ever estimated: that is what
// the two ladders differ in.
type ladderRun struct {
	canonical string
	key, hash uint64
	explored  []uint64
	memo      map[uint64]entry
}

func runLadder(pm *perfmodel.Model, start *config.Config, attach func(*searcher, *config.Config) *config.Config) ladderRun {
	var run ladderRun
	storeHooks.explored = func(k uint64) { run.explored = append(run.explored, k) }
	defer func() { storeHooks.explored = nil }()
	s := ladderSearcher(pm, nil)
	got := attach(s, start.Clone())
	run.canonical, run.key, run.hash = got.Canonical(), got.Key(), got.Hash()
	run.memo = make(map[uint64]entry, len(s.st.memo))
	for k, en := range s.st.memo {
		en.estimated = false
		run.memo[k] = en
	}
	return run
}

// overMemoryStarts calls f with every balanced start over memory of the
// zoo's models at 2, 4, 8 and 16 stages and microbatches 1 to 16 on 16
// V100s, and the model of its graph.
func overMemoryStarts(t *testing.T, f func(name string, pm *perfmodel.Model, start *config.Config)) {
	models, _ := determinismZoo(t)
	cl := hardware.DGX1V100(2)
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
				f(m.name+"/"+start.String(), pm, start)
			}
		}
	}
}

// TestRecomputeLadderMatchesClones holds attachRecompute, which climbs
// each stage's recompute ladder in place on a trial's scratch and
// estimates only its pick, to the ladder built one estimated clone per
// rung (attachRecomputeByClones): from every over-memory start
// (overMemoryStarts), both return the same configuration (settings, Key
// and Hash), count the same keys as explored in the same order, and
// leave the same memo — the same keys explored, visited and holding an
// estimate, each estimate the same.
func TestRecomputeLadderMatchesClones(t *testing.T) {
	var stats ladderStats
	starts := 0
	overMemoryStarts(t, func(name string, pm *perfmodel.Model, start *config.Config) {
		starts++
		want := runLadder(pm, start, func(s *searcher, c *config.Config) *config.Config {
			out := attachRecomputeByClones(s, c, &stats)
			if out != c {
				// The pick superseded the trial's key, which the trial
				// loop releases.
				s.st.release(c.Key())
			}
			return out
		})
		got := runLadder(pm, start, attachOn)
		if got.canonical != want.canonical || got.key != want.key || got.hash != want.hash {
			t.Errorf("%s: attachRecompute returned\n%s (key %x, hash %x), by clones\n%s (key %x, hash %x)",
				name, got.canonical, got.key, got.hash, want.canonical, want.key, want.hash)
		}
		if !slices.Equal(got.explored, want.explored) {
			t.Errorf("%s: counted %d keys %x, by clones %d keys %x", name,
				len(got.explored), got.explored, len(want.explored), want.explored)
		}
		if !reflect.DeepEqual(got.memo, want.memo) {
			t.Errorf("%s: the memo after attachRecompute differs from the one by clones", name)
		}
	})
	t.Logf("%d starts over memory: %d picks below the rung a ladder stopped on, %d ladder tops", starts, stats.climbedPast, stats.top)
	if stats.climbedPast == 0 || stats.top == 0 {
		t.Error("the starts miss a shape of ladder: the test exercises too little")
	}
}

// TestRungPeakMatchesEstimate holds the ladder's arithmetic to the
// model: on every rung the reference ladder estimates from every
// over-memory start (overMemoryStarts), the stage peak RecomputePeak
// sums from the stage's StashTerms and the estimate of the config the
// rung extends has the bits of the rung's estimated PeakMem, and
// climbRC's feasibility fold of it reads the rung's Feasible.
func TestRungPeakMatchesEstimate(t *testing.T) {
	rungs := 0
	overMemoryStarts(t, func(name string, pm *perfmodel.Model, start *config.Config) {
		stats := ladderStats{rung: func(si int, base *perfmodel.Estimate, c *config.Config, e *perfmodel.Estimate) {
			rungs++
			peak := base.RecomputePeak(si, &c.Stages[si], pm.StashTerms(c, si, nil))
			if math.Float64bits(peak) != math.Float64bits(e.Stages[si].PeakMem) {
				t.Fatalf("%s, rung %s of stage %d: arithmetic peak %v, estimated %v", name, c, si, peak, e.Stages[si].PeakMem)
			}
			fits := base.Microbatches > 0 && !(peak > e.Stages[si].CapMem)
			for i := range base.Stages {
				fits = fits && (i == si || !(base.Stages[i].PeakMem > base.Stages[i].CapMem))
			}
			if fits != e.Feasible {
				t.Fatalf("%s, rung %s of stage %d: arithmetic feasibility %v, estimated %v", name, c, si, fits, e.Feasible)
			}
		}}
		attachRecomputeByClones(ladderSearcher(pm, nil), start.Clone(), &stats)
	})
	t.Logf("%d rungs", rungs)
	if rungs == 0 {
		t.Error("no rung estimated: the test exercises nothing")
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

// TestRecomputeRungLooksUpOneStage pins what a climb costs: its rungs'
// keys and arithmetic, no estimate. After the trial's own estimate, a
// ladder (climbRC) makes no stage-cache lookup and estimates nothing —
// its stash terms price no operator (TestStashTermsPriceNothing in
// perfmodel) — and attachRecompute estimates only its picks, one per
// stage it climbed, on the node's batch: the k-th pick differs from the
// base in the k stages climbed so far, and looks up only those.
func TestRecomputeRungLooksUpOneStage(t *testing.T) {
	var tr estimateKeys
	s, cfg := deepRecomputeStart(t, &tr)
	again := 0
	storeHooks.again = func(*perfmodel.Estimate, bool) { again++ }
	defer func() { storeHooks.again = nil }()
	e := s.estimate(nil, cfg)
	tr = tr[:0]
	trial := s.st.trial(s.pm, 0, cfg, e)
	si := e.OOMStage
	h0, m0 := s.pm.StageCacheStats()
	climbRC(s, trial, trial.scratch, e, si, rcRank(s, trial, cfg, si, false))
	if h1, m1 := s.pm.StageCacheStats(); h1 != h0 || m1 != m0 || len(tr) != 0 || again != 0 {
		t.Errorf("a ladder made %d stage-cache lookups and %d estimates, want none", h1-h0+m1-m0, len(tr)+again)
	}
	trial.scratch.Restore(cfg, si, si)

	h0, m0 = s.pm.StageCacheStats()
	s.attachRecompute(trial)
	h1, m1 := s.pm.StageCacheStats()
	picks := len(trial.climbed)
	if picks == 0 {
		t.Fatal("attachRecompute climbed no ladder")
	}
	if len(tr) != picks {
		t.Errorf("attachRecompute climbed %d ladders and made %d first estimates, want one each", picks, len(tr))
	}
	if lookups, want := h1-h0+m1-m0, uint64(picks*(picks+1)/2); lookups != want {
		t.Errorf("%d picks made %d stage-cache lookups, want 1 + 2 + … + %d = %d", picks, lookups, picks, want)
	}
}

// BenchmarkAttachRecompute times attachRecompute on the start of
// TestRecomputeRungLooksUpOneStage from an empty memo, on the node's
// batch as the search runs it, the start's own estimate included, and
// the undo of its ladders.
func BenchmarkAttachRecompute(b *testing.B) {
	s, cfg := deepRecomputeStart(b, nil)
	t := node(s, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(s.st.memo)
		s.attachRecompute(t)
		t.undo(&move{})
	}
}
