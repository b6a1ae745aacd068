package core

import (
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"aceso/internal/config"
	"aceso/internal/hardware"
	"aceso/internal/model"
	"aceso/internal/obs"
	"aceso/internal/perfmodel"
	"aceso/internal/pipesim"
)

// quickOpts returns search options small enough for unit tests but
// large enough to exercise the full machinery.
func quickOpts() Options {
	return Options{
		TimeBudget:  800 * time.Millisecond,
		StageCounts: []int{1, 2, 4},
		Seed:        1,
	}
}

func TestSearchImprovesOverInitial(t *testing.T) {
	g, _ := model.GPT3("350M")
	cl := hardware.DGX1V100(1).Restrict(4)
	res, err := Search(g, cl, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Best.Estimate.Feasible {
		t.Fatal("best config infeasible")
	}
	// Compare against each searched depth's initial configuration.
	pm := perfmodel.New(g, cl, 1)
	bestInit := 0.0
	for _, p := range []int{1, 2, 4} {
		init, err := config.Balanced(g, 4, p, 1)
		if err != nil {
			t.Fatal(err)
		}
		est := pm.Estimate(init)
		if est.Feasible && (bestInit == 0 || est.IterTime < bestInit) {
			bestInit = est.IterTime
		}
	}
	if bestInit > 0 && res.Best.Score > bestInit {
		t.Errorf("search result %.3f is worse than the best initial config %.3f",
			res.Best.Score, bestInit)
	}
	if res.Explored < 10 {
		t.Errorf("Explored = %d, suspiciously few", res.Explored)
	}
	if res.Iterations < 1 {
		t.Errorf("Iterations = %d", res.Iterations)
	}
}

func TestSearchFindsFeasibleUnderMemoryPressure(t *testing.T) {
	// GPT-3 2.6B on 8 GPUs does not fit without recomputation or deep
	// pipelining; the search must reach feasibility ("safety first").
	g, _ := model.GPT3("2.6B")
	cl := hardware.DGX1V100(1)
	opts := quickOpts()
	opts.TimeBudget = 2 * time.Second
	opts.StageCounts = []int{2, 4, 8}
	res, err := Search(g, cl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Best.Estimate.Feasible {
		t.Fatalf("no feasible config found (score %v)", res.Best.Score)
	}
	if res.Best.Estimate.PeakMem > cl.MemoryBytes {
		t.Error("best config exceeds device memory")
	}
}

func TestSearchTopKRankedAndDistinct(t *testing.T) {
	g, _ := model.GPT3("350M")
	cl := hardware.DGX1V100(1).Restrict(4)
	res, err := Search(g, cl, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TopK) < 2 {
		t.Fatalf("TopK has %d entries", len(res.TopK))
	}
	seen := map[uint64]bool{}
	for i, c := range res.TopK {
		h := c.Config.Hash()
		if seen[h] {
			t.Error("TopK contains duplicates")
		}
		seen[h] = true
		if i > 0 && res.TopK[i-1].Score > c.Score {
			t.Error("TopK not sorted")
		}
	}
	if res.Best.Config.Hash() != res.TopK[0].Config.Hash() {
		t.Error("Best != TopK[0]")
	}
}

func TestSearchBestConfigValid(t *testing.T) {
	g, _ := model.T5("770M")
	cl := hardware.DGX1V100(1).Restrict(4)
	res, err := Search(g, cl, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Best.Config.Validate(g, 4); err != nil {
		t.Fatalf("best config invalid: %v", err)
	}
	// And executable by the simulator.
	if _, err := pipesim.Simulate(testSearcher(t, g, 4).pm, res.Best.Config, 1); err != nil {
		t.Fatalf("best config not simulatable: %v", err)
	}
}

func TestSearchWithoutHeuristic2StillWorks(t *testing.T) {
	g, _ := model.GPT3("350M")
	cl := hardware.DGX1V100(1).Restrict(4)
	opts := quickOpts()
	opts.DisableHeuristic2 = true
	res, err := Search(g, cl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Best.Estimate.Feasible {
		t.Error("random-order search found no feasible config")
	}
}

func TestSearchRespectsMaxIterations(t *testing.T) {
	g, _ := model.GPT3("350M")
	cl := hardware.DGX1V100(1).Restrict(4)
	opts := quickOpts()
	opts.TimeBudget = 30 * time.Second // budget not the binding limit
	opts.MaxIterations = 2
	opts.StageCounts = []int{2}
	start := time.Now()
	res, err := Search(g, cl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 2 {
		t.Errorf("Iterations = %d, want ≤ 2", res.Iterations)
	}
	if time.Since(start) > 20*time.Second {
		t.Error("MaxIterations did not bound the search")
	}
}

func TestSearchDeterministicAcrossCachingLayers(t *testing.T) {
	// The caching layers (config hash memos, perfmodel stage cache) are
	// pure accelerations: a seeded, iteration-bounded search must return
	// the exact same result with them disabled.
	g, _ := model.GPT3("350M")
	cl := hardware.DGX1V100(1)
	run := func(disable bool) *Result {
		pm := perfmodel.New(g, cl, 3)
		pm.DisableStageCache = disable
		opts := Options{
			TimeBudget:    time.Hour, // iterations are the binding limit
			MaxIterations: 3,
			StageCounts:   []int{1, 2, 4},
			Seed:          3,
			Model:         pm,
		}
		res, err := Search(g, cl, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cached, full := run(false), run(true)
	if got, want := cached.Best.Config.Canonical(), full.Best.Config.Canonical(); got != want {
		t.Errorf("Best.Config differs with stage cache:\ncached: %s\nfull:   %s", got, want)
	}
	if cached.Best.Score != full.Best.Score {
		t.Errorf("Best.Score differs: %v vs %v", cached.Best.Score, full.Best.Score)
	}
	if cached.Explored != full.Explored {
		t.Errorf("Explored differs: %d vs %d", cached.Explored, full.Explored)
	}
	if len(cached.TopK) != len(full.TopK) {
		t.Fatalf("TopK length differs: %d vs %d", len(cached.TopK), len(full.TopK))
	}
	for i := range cached.TopK {
		if cached.TopK[i].Config.Hash() != full.TopK[i].Config.Hash() {
			t.Errorf("TopK[%d] differs with stage cache", i)
		}
	}
}

func TestSearchTraceCollection(t *testing.T) {
	g, _ := model.GPT3("350M")
	cl := hardware.DGX1V100(1).Restrict(4)
	opts := quickOpts()
	tr := obs.NewConvergence()
	events := obs.NewJSONLTracer()
	opts.Tracer = obs.MultiTracer(tr, events)
	res, err := Search(g, cl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(events.Events()) == 0 {
		t.Error("no iteration records")
	}
	conv := tr.Curve()
	if len(conv) == 0 {
		t.Fatal("no convergence points")
	}
	for i := 1; i < len(conv); i++ {
		if conv[i].IterTime >= conv[i-1].IterTime {
			t.Error("convergence curve must be strictly decreasing")
		}
		if conv[i].Elapsed < conv[i-1].Elapsed {
			t.Error("convergence timestamps must be monotone")
		}
	}
	// On a hazard-free fleet the score is the iteration time, so the
	// curve ends at the plan the search returns.
	if last := conv[len(conv)-1].IterTime; last != res.Best.Score {
		t.Errorf("curve ends at %v, best score is %v", last, res.Best.Score)
	}
	improving := 0
	for _, ev := range events.Events() {
		if ev.Improved {
			improving++
		}
	}
	tries, hops := tr.Histograms()
	for name, hist := range map[string][]int{"tries": tries, "hops": hops} {
		total := 0
		for _, v := range hist {
			total += v
		}
		if total != improving {
			t.Errorf("%s histogram sums to %d, want %d improving iterations", name, total, improving)
		}
	}
}

// TestConvergenceEndsAtBest: on a hazard-free fleet the convergence
// curve ends at the plan the search returns, also when that plan's
// estimate is the first of a key counted explored before — a recompute
// rung later picked — as on GPT-3 1.3B over one DGX-1 at four
// iterations.
func TestConvergenceEndsAtBest(t *testing.T) {
	g, err := model.GPT3("1.3B")
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewConvergence()
	res, err := Search(g, hardware.DGX1V100(1), Options{TimeBudget: time.Hour, MaxIterations: 4, Seed: 1, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if conv := tr.Curve(); len(conv) == 0 || conv[len(conv)-1].IterTime != res.Best.Score {
		t.Errorf("curve %v does not end at the best score %v", conv, res.Best.Score)
	}
}

func TestSearchInitializers(t *testing.T) {
	// Exp#7: imbalanced initial configurations must still converge to
	// a feasible result in the same ballpark as the balanced start.
	g, _ := model.GPT3("350M")
	cl := hardware.DGX1V100(1).Restrict(4)
	scores := map[string]float64{}
	for name, init := range map[string]Initializer{
		"balanced":      config.Balanced,
		"imbalance-op":  config.ImbalancedOps,
		"imbalance-gpu": config.ImbalancedGPUs,
	} {
		opts := quickOpts()
		opts.TimeBudget = 1500 * time.Millisecond
		opts.Initializer = init
		res, err := Search(g, cl, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Best.Estimate.Feasible {
			t.Fatalf("%s: infeasible result", name)
		}
		scores[name] = res.Best.Score
	}
	base := scores["balanced"]
	for name, sc := range scores {
		if sc > base*1.5 {
			t.Errorf("%s converged to %.3f, >1.5× balanced %.3f", name, sc, base)
		}
	}
}

func TestSearchErrorPaths(t *testing.T) {
	g, _ := model.GPT3("350M")
	cl := hardware.DGX1V100(1).Restrict(4)
	// Invalid cluster.
	bad := cl
	bad.MemoryBytes = 0
	if _, err := Search(g, bad, quickOpts()); err == nil {
		t.Error("invalid cluster accepted")
	}
	// Unsatisfiable stage counts.
	opts := quickOpts()
	opts.StageCounts = []int{64}
	if _, err := Search(g, cl, opts); err == nil {
		t.Error("stage count beyond devices accepted")
	}
	// Invalid graph.
	bg := model.Uniform(4, 1e9, 1e6, 1e5, 64)
	bg.GlobalBatch = 0
	if _, err := Search(bg, cl, quickOpts()); err == nil {
		t.Error("invalid graph accepted")
	}
}

func TestDefaultStageCounts(t *testing.T) {
	got := defaultStageCounts(32, 1000)
	if got[0] != 1 {
		t.Error("stage counts must include 1")
	}
	max := 0
	for _, p := range got {
		if p > max {
			max = p
		}
	}
	if max != 32 {
		t.Errorf("max stage count = %d, want 32", max)
	}
	// Bounded by ops.
	got = defaultStageCounts(32, 3)
	for _, p := range got {
		if p > 3 {
			t.Errorf("stage count %d exceeds op count 3", p)
		}
	}
}

func TestInsertTopK(t *testing.T) {
	g := model.Uniform(8, 1e9, 1e6, 1e5, 64)
	mk := func(mbs int, score float64) Candidate {
		c, _ := config.Balanced(g, 4, 2, mbs)
		return Candidate{Config: c, Score: score, key: c.Key()}
	}
	var list []Candidate
	list = insertTopK(list, mk(1, 3), 2)
	list = insertTopK(list, mk(2, 1), 2)
	list = insertTopK(list, mk(4, 2), 2)
	if len(list) != 2 || list[0].Score != 1 || list[1].Score != 2 {
		t.Errorf("insertTopK = %+v", list)
	}
	// Duplicate key ignored.
	list = insertTopK(list, mk(2, 0.5), 2)
	if list[0].Score != 1 {
		t.Error("duplicate config replaced existing entry")
	}
}

func TestFineTuneFindsDimOrTilingImprovements(t *testing.T) {
	// Start from a deliberately bad tiling (everything tp) on a model
	// where small ops shard poorly; fine-tuning should find a better
	// mixed tiling or dim assignment.
	g, _ := model.WideResNet("0.5B")
	s := testSearcher(t, g, 8)
	cfg := mustBalanced(t, g, 8, 1, 8) // tp=8 everywhere
	before := s.score(cfg, s.estimate(nil, cfg))
	ft := s.fineTune(cfg)
	if ft == nil {
		t.Fatal("fine-tune found nothing on an all-tp Wide-ResNet")
	}
	after := s.score(ft, s.estimate(nil, ft))
	if after >= before {
		t.Errorf("fine-tune did not improve: %.3f → %.3f", before, after)
	}
	if err := ft.Validate(g, 8); err != nil {
		t.Fatalf("fine-tuned config invalid: %v", err)
	}
}

func TestPoolPruneKeepsBest(t *testing.T) {
	g := model.Uniform(32, 1e9, 1e6, 1e5, 1<<20)
	s := testSearcher(t, g, 4)
	base, err := config.Balanced(g, 4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Fill the pool well past 2×cap with distinct configs.
	for n := 1; n <= 2*poolCap+10; n++ {
		c := recomputePattern(base, n)
		s.pool[c.Key()] = Candidate{Config: c, Score: float64(n), key: c.Key()}
	}
	if len(s.pool) != 2*poolCap+10 {
		t.Fatalf("setup produced %d distinct configs", len(s.pool))
	}
	s.prunePool()
	if len(s.pool) != poolCap/2 {
		t.Fatalf("pool size after prune = %d, want %d", len(s.pool), poolCap/2)
	}
	// The best-scoring entry must survive.
	found := false
	for _, c := range s.pool {
		if c.Score == 1 {
			found = true
		}
	}
	if !found {
		t.Error("prune dropped the best entry")
	}
}

// recomputePattern returns a clone of base with n encoded into stage
// 0's recompute bits: 16 ops there give 65536 distinct configurations.
func recomputePattern(base *config.Config, n int) *config.Config {
	c := base.Clone()
	c.MutStage(0, func(st *config.Stage) {
		for j := range st.Ops {
			st.Ops[j].Recompute = (n>>j)&1 == 1
		}
	})
	return c
}

// tiedCandidates returns n distinct equal-scored candidates, after
// checking that their Key order is not their Hash order — otherwise a
// tie-break on the wrong one of the two would pass unnoticed.
func tiedCandidates(t *testing.T, n int) []Candidate {
	t.Helper()
	g := model.Uniform(32, 1e9, 1e6, 1e5, 1<<20)
	base, err := config.Balanced(g, 4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]Candidate, n)
	for i := range out {
		c := recomputePattern(base, i+1)
		out[i] = Candidate{Config: c, Score: 7, key: c.Key()}
	}
	byHash := append([]Candidate(nil), out...)
	sort.Slice(byHash, func(a, b int) bool { return byHash[a].Config.Hash() < byHash[b].Config.Hash() })
	byKey := append([]Candidate(nil), out...)
	sort.Slice(byKey, func(a, b int) bool { return byKey[a].key < byKey[b].key })
	same := true
	for i := range byHash {
		same = same && byHash[i].key == byKey[i].key
	}
	if same {
		t.Fatal("Key order equals Hash order on the sample; the tie-break tests would be vacuous")
	}
	return out
}

func TestPrunePoolKeepsBestHalf(t *testing.T) {
	// Regression (PR 4): prunePool documented "drop the worst-scoring
	// half" but truncated only to poolCap, so a pool at its trigger size
	// re-pruned after nearly every subsequent insert. It must prune to
	// poolCap/2 (deterministic, hash-tiebroken).
	s := &searcher{pool: make(map[uint64]Candidate), st: new(store)}
	// Two-valued scores exercise the hash tiebreak across the cut: 2049
	// entries score 0, so exactly one of them — the highest canonical
	// hash — must go, with every score-1 entry.
	var zeros []Candidate
	for i, c := range tiedCandidates(t, poolCap+1) {
		c.Score = float64(i % 2)
		s.pool[c.key] = c
		if c.Score == 0 {
			zeros = append(zeros, c)
		}
	}
	sort.Slice(zeros, func(a, b int) bool { return zeros[a].Config.Hash() < zeros[b].Config.Hash() })
	s.prunePool()
	if len(s.pool) != poolCap/2 {
		t.Fatalf("pool size after prune = %d, want poolCap/2 = %d", len(s.pool), poolCap/2)
	}
	for _, want := range zeros[:poolCap/2] {
		if _, ok := s.pool[want.key]; !ok {
			t.Fatalf("score-0 config %016x is among the %d lowest hashes but was pruned", want.Config.Hash(), poolCap/2)
		}
	}
	// Pruning an at-or-under-target pool is a no-op.
	before := len(s.pool)
	s.prunePool()
	if len(s.pool) != before {
		t.Errorf("prune of small pool changed size %d → %d", before, len(s.pool))
	}
}

// TestTieBreakIsCanonicalHash: identity inside the search is
// Config.Key, but equal-scored candidates are ordered by the frozen
// Config.Hash everywhere an order is taken — Candidate.less (multiHop's
// ranking, insertTopK, the final merge), prunePool's cut and
// popBestUnexplored. Breaking ties on Key instead would reorder
// exploration; it fails here before it fails the explored pins.
func TestTieBreakIsCanonicalHash(t *testing.T) {
	cands := tiedCandidates(t, 64)
	byHash := append([]Candidate(nil), cands...)
	sort.Slice(byHash, func(a, b int) bool { return byHash[a].Config.Hash() < byHash[b].Config.Hash() })

	for i := range cands {
		for j := range cands {
			a, b := &cands[i], &cands[j]
			if got, want := a.less(b), a.Config.Hash() < b.Config.Hash(); got != want {
				t.Fatalf("less(%016x, %016x) = %v, want canonical-hash order %v", a.Config.Hash(), b.Config.Hash(), got, want)
			}
		}
	}

	var list []Candidate
	for _, c := range cands {
		list = insertTopK(list, c, 5)
	}
	for i := range list {
		if list[i].key != byHash[i].key {
			t.Fatalf("insertTopK rank %d = %016x, want %016x", i, list[i].Config.Hash(), byHash[i].Config.Hash())
		}
	}

	// prunePool keeps the poolCap/2 lowest hashes of an all-tied pool.
	big := tiedCandidates(t, poolCap+1)
	s := &searcher{pool: make(map[uint64]Candidate), st: new(store)}
	for _, c := range big {
		s.pool[c.key] = c
	}
	sort.Slice(big, func(a, b int) bool { return big[a].Config.Hash() < big[b].Config.Hash() })
	s.prunePool()
	for i, c := range big {
		if _, ok := s.pool[c.key]; ok != (i < poolCap/2) {
			t.Fatalf("prunePool: hash rank %d of %d tied entries, kept = %v", i, len(big), ok)
		}
	}

	// popBestUnexplored drains an all-tied pool in ascending hash order.
	s = &searcher{pool: make(map[uint64]Candidate), st: new(store)}
	for _, c := range cands {
		s.pool[c.key] = c
	}
	for i, want := range byHash {
		got := s.popBestUnexplored()
		if got != want.Config {
			t.Fatalf("popBestUnexplored #%d = %016x, want %016x", i, got.Hash(), want.Config.Hash())
		}
	}
	if s.popBestUnexplored() != nil {
		t.Error("popBestUnexplored on an empty pool must return nil")
	}
}

func TestSearchDeterministicWithPruning(t *testing.T) {
	// Pool restarts and explored counts must be identical across runs of
	// the same seed — pruning is part of the deterministic state.
	g, _ := model.GPT3("350M")
	cl := hardware.DGX1V100(1).Restrict(4)
	run := func() (Result, *obs.Registry) {
		reg := obs.NewRegistry()
		opts := Options{
			TimeBudget:    time.Hour, // MaxIterations terminates first
			StageCounts:   []int{2, 4},
			MaxIterations: 12,
			Seed:          7,
			Metrics:       reg,
		}
		res, err := Search(g, cl, opts)
		if err != nil {
			t.Fatal(err)
		}
		return *res, reg
	}
	a, ra := run()
	b, rb := run()
	if a.Explored != b.Explored || a.Iterations != b.Iterations {
		t.Errorf("explored/iterations differ across identical runs: %d/%d vs %d/%d",
			a.Explored, a.Iterations, b.Explored, b.Iterations)
	}
	for _, name := range []string{obs.PoolRestartsTotal, obs.PoolPrunesTotal, obs.CandidatesEstimatedTotal} {
		if va, vb := ra.Counter(name).Value(), rb.Counter(name).Value(); va != vb {
			t.Errorf("%s differs across identical runs: %d vs %d", name, va, vb)
		}
	}
}

// TestTieBreaksPerSearch counts how often one search of the pinned
// setting (GPT-3 2.6B, 16 V100, MaxIterations 4, seed 1; 24 701
// configurations, the search-deep workload's) pays for a canonical
// hash: hashLess is the only caller of Config.Hash inside the search,
// so its call count bounds the cold path. The count repeats exactly; a
// count in the thousands means an order is being taken on the hot loop.
func TestTieBreaksPerSearch(t *testing.T) {
	g, _ := model.GPT3("2.6B")
	var ties atomic.Int64
	storeHooks.tied = func() { ties.Add(1) }
	defer func() { storeHooks.tied = nil }()
	res, err := Search(g, hardware.DGX1V100(2), Options{TimeBudget: time.Hour, MaxIterations: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	n := ties.Load()
	t.Logf("explored %d configurations, %d score ties broken by canonical hash", res.Explored, n)
	if n == 0 || n > 1000 {
		t.Errorf("%d tie-breaks for %d explored configurations, want a few hundred", n, res.Explored)
	}
}
