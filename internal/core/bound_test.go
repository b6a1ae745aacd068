package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"aceso/internal/config"
	"aceso/internal/hardware"
	"aceso/internal/model"
	"aceso/internal/obs"
	"aceso/internal/perfmodel"
)

// boundedRun is what TestBoundedTrialsMatchExact compares of one
// search: its Result's explored count, bitwise scores and top-K
// hashes, the fine-tune winners in the order they won, and the
// fine-tune trial counters.
type boundedRun struct {
	explored int
	topK     []string
	winners  []uint64
	trials   [2]int64 // estimated, rejected by the bound
}

func runBounded(t *testing.T, g *model.Graph, cl hardware.Cluster, opts Options, exact bool) boundedRun {
	t.Helper()
	var r boundedRun
	trialHooks.exact = exact
	trialHooks.won = func(c *config.Config) { r.winners = append(r.winners, c.Hash()) }
	defer func() { trialHooks.exact, trialHooks.won = false, nil }()
	reg := obs.NewRegistry()
	opts.Metrics, opts.Seed, opts.TimeBudget = reg, 1, time.Hour
	if opts.MaxIterations == 0 {
		opts.MaxIterations = 4
	}
	res, err := Search(g, cl, opts)
	if err != nil {
		t.Fatal(err)
	}
	r.explored = res.Explored
	for _, c := range res.TopK {
		r.topK = append(r.topK, fmt.Sprintf("%016x %x", c.Config.Hash(), math.Float64bits(c.Score)))
	}
	for i, d := range []string{"exact", "bound"} {
		r.trials[i] = reg.Counter(obs.FineTuneTrialsTotal + `{decided="` + d + `"}`).Value()
	}
	return r
}

// bothTrialPaths runs check twice: with fine-tune trials decided by
// their bound, as every search decides them, and with every trial sent
// to the exact estimate, so that an estimate tracer sees every
// configuration counted. reg is a fresh registry for Options.Metrics.
func bothTrialPaths(t *testing.T, check func(exact bool, reg *obs.Registry)) {
	t.Cleanup(func() { trialHooks.exact = false })
	for _, exact := range []bool{false, true} {
		trialHooks.exact = exact
		check(exact, obs.NewRegistry())
	}
	trialHooks.exact = false
}

// rejectedByBound is how many fine-tune trials the bound rejected in the
// searches that reported to reg: counted as explored, never estimated.
func rejectedByBound(reg *obs.Registry) int {
	return int(reg.Counter(obs.FineTuneTrialsTotal + `{decided="bound"}`).Value())
}

// TestEstimateTracerChangesNoWork: attaching a tracer that observes
// estimates changes nothing a search computes — the same configurations
// explored and the same stage-cache hits and misses on a fresh model.
// One worker runs the stage-count tasks in turn, so two lookups of one
// key never race to count a miss each.
func TestEstimateTracerChangesNoWork(t *testing.T) {
	g, _ := model.GPT3("350M")
	cl := hardware.DGX1V100(2)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run := func(tr obs.Tracer) (int, [2]uint64) {
		pm := perfmodel.New(g, cl, 1)
		res, err := Search(g, cl, Options{TimeBudget: time.Hour, MaxIterations: 2, Seed: 1, Model: pm, Tracer: tr})
		if err != nil {
			t.Fatal(err)
		}
		var stats [2]uint64
		stats[0], stats[1] = pm.StageCacheStats()
		return res.Explored, stats
	}
	explored, stats := run(nil)
	auditor := obs.NewAuditor()
	if e, s := run(auditor); e != explored || s != stats {
		t.Errorf("with an auditor: explored %d, stage cache (hits, misses) %v; bare: %d, %v", e, s, explored, stats)
	}
	if auditor.Checked() == 0 || auditor.Err() != nil {
		t.Errorf("auditor checked %d estimates: %v", auditor.Checked(), auditor.Err())
	}
}

// TestBoundedTrialsMatchExact: a fine-tune trial rejected by its bound
// is one the exact comparison rejects. Over the determinism zoo and the
// extended-primitives rows (spot fleets included), a search whose
// trials are all estimated returns the same Result — explored count,
// bitwise scores, top-K hashes — and the same fine-tune winners in the
// same order. The fine-tune trial counters of a bounded search sum to
// the trials the exact search estimates, and on GPT-3 350M / 16 V100
// the bound rejects at least 80 % of them.
func TestBoundedTrialsMatchExact(t *testing.T) {
	if testing.Short() {
		t.Skip("54 searches")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one worker: one order of winners
	models, fleets := determinismZoo(t)
	type row struct {
		model zooModel
		fleet zooFleet
		opts  Options
	}
	var rows []row
	for _, m := range models {
		for _, f := range fleets {
			rows = append(rows, row{m, f, Options{}})
		}
	}
	for _, m := range models[1:3] {
		rows = append(rows, row{m, fleets[0], Options{ExtendedPrimitives: true}})
	}
	for _, r := range rows {
		g, err := r.model.build()
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%s on %s (extended %v)", r.model.name, r.fleet.name, r.opts.ExtendedPrimitives)
		bounded := runBounded(t, g, r.fleet.cl, r.opts, false)
		exact := runBounded(t, g, r.fleet.cl, r.opts, true)
		if exact.trials[1] != 0 || bounded.trials[0]+bounded.trials[1] != exact.trials[0] {
			t.Errorf("%s: trial counters %v bounded, %v exact: want the bounded pair to sum to the exact count", name, bounded.trials, exact.trials)
		}
		got, want := bounded, exact
		got.trials, want.trials = [2]int64{}, [2]int64{}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: bounded trials diverge from exact ones:\n got %+v\nwant %+v", name, got, want)
		}
		if r.model.name == "gpt3-350M" && r.fleet.name == "DGX1V100(2)" {
			share := float64(bounded.trials[1]) / float64(exact.trials[0])
			t.Logf("%s: the bound rejects %d of %d fine-tune trials (%.1f %%)", name, bounded.trials[1], exact.trials[0], 100*share)
			if share < 0.8 {
				t.Errorf("%s: the bound rejects %.1f %% of fine-tune trials, want at least 80 %%", name, 100*share)
			}
		}
	}
}

// TestObjectiveFloor: on spot capacity the objective's floor at t
// bounds its score at every t' ≥ t from below, over the whole cadence
// range — from t small enough that the recommended cadence is capped
// at maxRecommendedCadence to t large enough that it is 1, with t'
// both an ulp and a decade above t, and within 16 ulps of every t at
// which the recommended cadence steps — on fleets whose spot nodes
// carry random hazards and on configs with replicated and exposed
// stages.
func TestObjectiveFloor(t *testing.T) {
	g, err := model.GPT3("350M")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		cl := hardware.ReservedSpotV100(2, 1, 1, 1+rng.Float64()*20, 30+rng.Float64()*120)
		if !cl.HasSpot() {
			t.Fatal("no spot capacity")
		}
		o := newObjective(&cl)
		cfg := mustBalanced(t, g, cl.TotalDevices(), 1<<rng.Intn(3), 1)
		if rng.Intn(2) == 0 {
			// Replicate the last stage, so only the others are exposed.
			cfg.MutStage(cfg.NumStages()-1, func(st *config.Stage) {
				for j := range st.Ops {
					st.Ops[j].SetTiling(1, st.Devices)
				}
			})
		}
		// The cadence steps from k+1 to k where sqrt(2/(λ·t)) = k + ½.
		if _, lamRB := o.hazards(cfg); lamRB > 0 {
			for k := 1; k < maxRecommendedCadence; k++ {
				ts := 2 / (lamRB * (float64(k) + 0.5) * (float64(k) + 0.5))
				var near [33]float64
				near[16] = ts
				for i := 15; i >= 0; i-- {
					near[i] = math.Nextafter(near[i+1], 0)
					near[32-i] = math.Nextafter(near[31-i], math.Inf(1))
				}
				for i, t0 := range near {
					f := o.floor(cfg, t0)
					for _, t1 := range near[i:] {
						if sc := o.score(cfg, t1); !(f <= sc) {
							t.Fatalf("floor(%v) = %v above score(%v) = %v near the cadence step %d", t0, f, t1, sc, k)
						}
					}
				}
			}
		}
		for i := 0; i < 200; i++ {
			t0 := math.Pow(10, -4+8*rng.Float64()) // 1e-4 … 1e4 s
			f := o.floor(cfg, t0)
			for _, t1 := range []float64{t0, math.Nextafter(t0, math.Inf(1)), t0 * (1 + rng.Float64()), 10 * t0} {
				if sc := o.score(cfg, t1); !(f <= sc) {
					_, k := o.assess(cfg, t1)
					t.Fatalf("floor(%v) = %v above score(%v) = %v (cadence %d)", t0, f, t1, sc, k)
				}
			}
		}
	}
}

// BenchmarkFineTune times one fine-tune pass on the seed of a cold
// GPT-3 350M / 16-V100 search at one pipeline stage. Each op starts
// from a fresh memo and a fresh model — stage cache and operator
// records cold, as in a new search — sharing one profiling database.
func BenchmarkFineTune(b *testing.B) {
	g, err := model.GPT3("350M")
	if err != nil {
		b.Fatal(err)
	}
	cl := hardware.DGX1V100(2)
	prof := perfmodel.New(g, cl, 1).Prof
	s := newSearcher(g, cl, nil, Options{TimeBudget: time.Hour}.withDefaults(), 1, new(store))
	cfg, err := config.Balanced(g, cl.TotalDevices(), 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.pm = &perfmodel.Model{Graph: g, Cluster: cl, Prof: prof}
		clear(s.st.memo)
		if c := s.fineTune(cfg); c != nil {
			s.st.recycle(c)
		}
	}
}
