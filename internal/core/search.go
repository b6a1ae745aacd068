package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"aceso/internal/config"
	"aceso/internal/hardware"
	"aceso/internal/model"
	"aceso/internal/obs"
	"aceso/internal/perfmodel"
)

// infeasibleScore is the base score of out-of-memory configurations;
// among infeasible configs, less memory excess scores better, so the
// search makes progress toward feasibility ("safety first").
const infeasibleScore = 1e9

// poolCap bounds the unexplored-configuration pool: long searches
// (the paper runs 200 s) would otherwise retain every candidate ever
// estimated. When the pool exceeds the cap it is pruned back to the
// best poolCap/2 entries — half the cap of insert headroom before the
// next prune, and the restart heuristic only ever wants the best few
// anyway.
const poolCap = 4096

// Initializer builds the starting configuration for one pipeline
// depth. Exp#7 swaps in imbalanced variants.
type Initializer func(g *model.Graph, devices, stages, mbs int) (*config.Config, error)

// Options tunes the Aceso search.
type Options struct {
	// TimeBudget bounds the search wall time (§3; default 2s).
	TimeBudget time.Duration
	// MaxHops bounds the multi-hop search depth (default 7, §5.1).
	MaxHops int
	// BranchFactor bounds how many ranked candidates each hop recurses
	// into (default 3).
	BranchFactor int
	// TopK is how many final candidates to return (default 5; §5.1
	// evaluates the top five in the runtime and keeps the fastest).
	TopK int
	// StageCounts lists the pipeline depths to search in parallel;
	// empty selects an automatic set (§4.3).
	StageCounts []int
	// InitMicroBatch is the starting microbatch size (default 1).
	InitMicroBatch int
	// MaxIterations bounds top-level iterations per stage count
	// (0 = unlimited; used to make tests deterministic).
	MaxIterations int
	// Seed drives every random choice (only used when Heuristic-2 is
	// disabled) and the profiler database.
	Seed int64
	// DisableHeuristic2 explores primitives in random order (the
	// ablation of Exp#5 / Figure 12).
	DisableHeuristic2 bool
	// DisableFineTune skips the op-level fine-tuning pass (§4.2).
	DisableFineTune bool
	// ExtendedPrimitives adds the extension primitives (ZeRO-1
	// optimizer-state sharding) to the searched space — beyond the
	// paper's Table 1, per §3.2.1's extensibility note.
	ExtendedPrimitives bool
	// Initializer overrides the default initial configuration, which
	// the cluster decides (objective.seeds).
	Initializer Initializer
	// Tracer receives structured observability events: one
	// obs.IterationEvent per top-level iteration (bottleneck stage and
	// resource proportions, accepted primitive, hops, backtracks,
	// dedup hits, pool restarts) and, when it is an obs.EstimateTracer,
	// one OnEstimate call per newly estimated configuration (the
	// breakdown auditor's hook). nil — the default — disables tracing;
	// the hot path then pays one pointer check per event site (DESIGN.md
	// §5d).
	Tracer obs.Tracer
	// Metrics, when non-nil, accumulates search counters in the given
	// registry: candidates estimated, dedup hits, primitives applied
	// per kind, the multi-hop depth histogram, per-iteration timings,
	// and the perfmodel stage-cache hit/miss snapshot. nil disables
	// metric collection entirely.
	Metrics *obs.Registry
	// Model optionally supplies a pre-built performance model (shared
	// profiling database); one is created when nil.
	Model *perfmodel.Model
}

func (o Options) withDefaults() Options {
	if o.TimeBudget <= 0 {
		o.TimeBudget = 2 * time.Second
	}
	if o.MaxHops <= 0 {
		o.MaxHops = 7
	}
	if o.BranchFactor <= 0 {
		o.BranchFactor = 3
	}
	if o.TopK <= 0 {
		o.TopK = 5
	}
	if o.InitMicroBatch <= 0 {
		o.InitMicroBatch = 1
	}
	return o
}

// Candidate pairs a configuration with its estimate and score.
type Candidate struct {
	Config   *config.Config
	Estimate *perfmodel.Estimate
	Score    float64

	// key is Config.Key(), captured at construction: the identity the
	// pool, the top-K list and the final merge deduplicate on.
	key uint64
}

// less is the canonical candidate order: score, then canonical hash.
func (c *Candidate) less(o *Candidate) bool {
	if c.Score != o.Score {
		return c.Score < o.Score
	}
	return hashLess(c.Config, o.Config)
}

// hashLess breaks a score tie. Identity inside the search is
// Config.Key; order is the frozen Config.Hash, because the exploration
// sequence (explored = 24 701, every committed plan fingerprint) depends
// on which of two equal-scored candidates goes first. Hash is the cold
// path — it builds canonical segments — so it is asked only here, on an
// actual tie: a few hundred times a search against tens of thousands of
// Key calls. Both configs must still be alive, which the store
// guarantees for every pool entry and per-depth candidate slice (see
// store.evict).
func hashLess(a, b *config.Config) bool {
	if storeHooks.tied != nil {
		storeHooks.tied()
	}
	return a.Hash() < b.Hash()
}

// SearchError describes the failure of one per-stage-count search
// worker. A panicking worker is isolated — its goroutine recovers,
// records the panic here, and the remaining workers finish — so a bug
// in one searcher degrades the result instead of killing the process.
type SearchError struct {
	StageCount int    // pipeline depth the worker searched
	Err        error  // non-panic failure (initializer, validation)
	PanicValue any    // non-nil when the worker panicked
	Stack      string // goroutine stack at the panic site
}

// Error implements the error interface.
func (e *SearchError) Error() string {
	if e.PanicValue != nil {
		return fmt.Sprintf("core: stage-count %d worker panicked: %v", e.StageCount, e.PanicValue)
	}
	return fmt.Sprintf("core: stage-count %d worker failed: %v", e.StageCount, e.Err)
}

// Unwrap exposes the wrapped non-panic cause for errors.Is/As.
func (e *SearchError) Unwrap() error { return e.Err }

// Result is the outcome of a search.
type Result struct {
	Best       Candidate
	TopK       []Candidate // ranked, deduplicated, ≤ Options.TopK
	Explored   int         // configurations estimated (Exp#4's metric)
	Iterations int         // top-level iterations across all workers
	Elapsed    time.Duration

	// Partial is true when the search was interrupted before every
	// worker converged — the context was canceled, a deadline or the
	// TimeBudget fired mid-search, or a worker died. Best/TopK then
	// hold the best-so-far rather than the converged outcome; they are
	// still valid, fully-estimated configurations.
	Partial bool
	// Diagnostics records per-worker failures (panics, initializer
	// errors) that did not prevent the remaining workers from
	// producing a result. Empty on a clean search.
	Diagnostics []*SearchError

	// RecommendedCadence is the checkpoint cadence (iterations per
	// checkpoint) minimizing the expected-time objective for Best on a
	// cluster with spot capacity — the elastic supervisor's
	// CheckpointEvery should track it. 0 on hazard-free clusters,
	// where the objective is plain iteration time.
	RecommendedCadence int
}

// defaultStageCounts picks the pipeline depths searched in parallel.
func defaultStageCounts(devices, ops int) []int {
	limit := min(devices, ops)
	var out []int
	for p := 1; p <= limit && p <= 8; p++ {
		out = append(out, p)
	}
	for _, p := range []int{12, 16, 24, 32} {
		if p <= limit {
			out = append(out, p)
		}
	}
	return out
}

// Search runs Aceso's iterative bottleneck-alleviation search for
// graph g over cluster cl (Algorithm 1), one task per candidate pipeline
// depth (§4.3) on a pool of GOMAXPROCS workers, deepest first, and
// returns the merged result.
func Search(g *model.Graph, cl hardware.Cluster, opts Options) (*Result, error) {
	return SearchContext(context.Background(), g, cl, opts)
}

// SearchContext is Search under a caller-supplied context: cancellation
// and the context deadline share one abort path with the TimeBudget
// (whichever fires first wins). The partial-result contract:
//
//   - Cancellation, deadline expiry and per-worker panics never lose
//     the best configuration found so far. Whenever at least one
//     worker produced a candidate, SearchContext returns a non-nil
//     Result (with Partial set) and a nil error — even if ctx was
//     already canceled on entry.
//   - A non-nil error is returned only when *no* candidate exists:
//     invalid inputs, or every worker failed before recording one.
//   - A panic inside one per-stage-count worker is recovered, reported
//     as a *SearchError in Result.Diagnostics, and the other workers
//     finish normally.
func SearchContext(ctx context.Context, g *model.Graph, cl hardware.Cluster, opts Options) (*Result, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := cl.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	stageCounts := opts.StageCounts
	if len(stageCounts) == 0 {
		stageCounts = defaultStageCounts(cl.TotalDevices(), len(g.Ops))
	}
	workers := max(1, runtime.GOMAXPROCS(0))
	// One store per worker, not per task: a worker runs its tasks
	// serially, so consecutive stage-count searches on the same worker
	// recycle each other's candidate memory (see store), and then helps
	// the tasks still running from the same store (help.go). The stores
	// are taken before anything else is built and handed over on the way
	// out, so that a loop of searches meets them again (see stores).
	ss := takeStores(workers)
	c := &crew{ss: ss, wake: make(chan struct{}, 1), over: make(chan struct{})}
	panicked := false
	defer func() {
		// A searcher that panicked may have died between recycling a
		// config and dropping its last reference: its stores are not
		// used again.
		if !panicked {
			handOver(ss)
		}
	}()
	pm := opts.Model
	if pm == nil {
		pm = perfmodel.New(g, cl, opts.Seed)
	}
	hits0, misses0 := pm.StageCacheStats()
	// What a candidate scores and where each pipeline starts, both
	// derived from cl (objective.go).
	obj := newObjective(&cl)
	seed := obj.seeds(g, pm, opts.Initializer)
	start := time.Now()
	ctx, cancel := context.WithTimeout(ctx, opts.TimeBudget)
	defer cancel()

	type workerOut struct {
		topK       []Candidate
		explored   int
		iterations int
		converged  bool
		err        *SearchError
	}
	outs := make([]workerOut, len(stageCounts))
	met := newSearchMeters(opts.Metrics)
	// Each task is one independent, deterministic per-stage-count
	// search. Tasks are handed out deepest first: the deepest starts at
	// once on worker 0 (whose store it therefore clones into on every
	// search in a loop), and each idle worker takes the deepest task not
	// yet started (DESIGN.md §5b, Scheduling); a worker out of tasks
	// helps the tasks still running. Tasks share only thread-safe caches
	// whose values are pure functions of their keys, and a helper runs
	// only pure halves of a task's trials, which the task commits in
	// order, so under MaxIterations the merged outcome is identical under
	// any schedule and any help. A clock instead stops each task where it
	// finds it — further along when helped — and a task that starts after
	// the deadline contributes only its seed.
	order := make([]int, len(stageCounts))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return stageCounts[order[a]] > stageCounts[order[b]]
	})
	runInOrder(workers, order, c, func(w, wi int) {
		p := stageCounts[wi]
		// Panic isolation: one buggy searcher (a bad primitive, a
		// poisoned estimate) must not take down its siblings.
		defer func() {
			if r := recover(); r != nil {
				outs[wi] = workerOut{err: &SearchError{
					StageCount: p,
					PanicValue: r,
					Stack:      string(debug.Stack()),
				}}
			}
		}()
		init, err := seed(g, cl.TotalDevices(), p, opts.InitMicroBatch)
		if err == nil {
			// The one full validation of a task: ValidateDelta checks each
			// candidate against what it was derived from, from here on.
			err = init.Validate(g, cl.TotalDevices())
		}
		if err != nil {
			outs[wi] = workerOut{err: &SearchError{StageCount: p, Err: err}}
			return
		}
		s := newSearcher(g, cl, pm, opts, p, &(*ss)[w])
		s.done, s.met, s.crew = ctx.Done(), met, c
		topK, iters, converged := s.run(init)
		outs[wi] = workerOut{topK: topK, explored: s.explored, iterations: iters, converged: converged}
	})

	panicked = c.failed.Load()
	for i := range outs {
		panicked = panicked || outs[i].err != nil && outs[i].err.PanicValue != nil
	}

	if opts.Metrics != nil {
		// Add the search's own lookups of the model's stage cache to the
		// registry: a model may be shared and outlive the search, and a
		// registry shared by many searches, each with its own model.
		hits, misses := pm.StageCacheStats()
		opts.Metrics.Counter(obs.StageCacheHitsTotal).Add(int64(hits - hits0))
		opts.Metrics.Counter(obs.StageCacheMissesTotal).Add(int64(misses - misses0))
	}

	res := &Result{}
	var all []Candidate
	ok := false
	allConverged := true
	for _, o := range outs {
		if o.err != nil {
			res.Diagnostics = append(res.Diagnostics, o.err)
			continue
		}
		ok = true
		allConverged = allConverged && o.converged
		all = append(all, o.topK...)
		res.Explored += o.explored
		res.Iterations += o.iterations
	}
	res.Partial = len(res.Diagnostics) > 0 || !allConverged || ctx.Err() != nil
	if !ok {
		if len(res.Diagnostics) > 0 {
			return nil, fmt.Errorf("core: no pipeline depth is searchable: %w", res.Diagnostics[0])
		}
		return nil, fmt.Errorf("core: no pipeline depth is searchable")
	}
	sort.SliceStable(all, func(a, b int) bool {
		return all[a].less(&all[b])
	})
	seen := make(map[uint64]bool)
	for _, c := range all {
		if seen[c.key] {
			continue
		}
		seen[c.key] = true
		res.TopK = append(res.TopK, c)
		if len(res.TopK) == opts.TopK {
			break
		}
	}
	if len(res.TopK) == 0 {
		return nil, fmt.Errorf("core: search produced no candidates")
	}
	publish(res.TopK)
	res.Best = res.TopK[0]
	if res.Best.Estimate != nil && res.Best.Estimate.Feasible {
		_, res.RecommendedCadence = obj.assess(res.Best.Config, res.Best.Estimate.IterTime)
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// searchMeters holds pre-resolved metric handles so the hot path pays
// one atomic add per event instead of a registry lookup. Built once
// per search when Options.Metrics is set; a nil *searchMeters disables
// metering.
type searchMeters struct {
	estimated  *obs.Counter
	dedup      *obs.Counter
	iterations *obs.Counter
	restarts   *obs.Counter
	prunes     *obs.Counter
	prims      map[string]*obs.Counter // every Table row; read-only, so workers share it
	trials     map[bool]*obs.Counter   // fine-tune trials, by whether their bound rejected them; read-only
	rungs      *obs.Counter
	hopDepth   *obs.Histogram
	iterTime   *obs.Histogram
}

// newSearchMeters resolves the search's metrics in reg.
func newSearchMeters(reg *obs.Registry) *searchMeters {
	if reg == nil {
		return nil
	}
	m := &searchMeters{
		estimated:  reg.Counter(obs.CandidatesEstimatedTotal),
		dedup:      reg.Counter(obs.DedupHitsTotal),
		iterations: reg.Counter(obs.IterationsTotal),
		restarts:   reg.Counter(obs.PoolRestartsTotal),
		prunes:     reg.Counter(obs.PoolPrunesTotal),
		rungs:      reg.Counter(obs.RecomputeRungsTotal),
		prims:      make(map[string]*obs.Counter),
		hopDepth:   reg.Histogram(obs.MultiHopDepth, 1, 2, 3, 4, 5, 6, 7, 8),
		iterTime:   reg.Histogram(obs.IterationSeconds, obs.SecondsBuckets...),
	}
	m.trials = map[bool]*obs.Counter{
		false: reg.Counter(obs.Labeled(obs.FineTuneTrialsTotal, "decided", "exact")),
		true:  reg.Counter(obs.Labeled(obs.FineTuneTrialsTotal, "decided", "bound")),
	}
	for i := range Table {
		name := Table[i].Name
		m.prims[name] = reg.Counter(obs.Labeled(obs.PrimitiveAppliedTotal, "primitive", name))
	}
	return m
}

// searcher is the per-stage-count search state. A search node's own
// state — base, estimate, batch, candidates — is its trial, one per
// multi-hop depth, in st.
type searcher struct {
	graph   *model.Graph
	cluster hardware.Cluster
	memNorm float64 // min per-device memory (infeasibility normalizer)
	pm      *perfmodel.Model
	opts    Options
	done    <-chan struct{} // the search context's: cancellation or its deadline

	pool     map[uint64]Candidate // unexplored configs by Config.Key (Algorithm 1)
	explored int
	rng      *rand.Rand

	// st owns every candidate's memory and the task's memo of visited
	// keys and estimates (see store); it is the worker's, shared by the
	// searchers run serially on it.
	st *store

	// Reusable scratch, hoisted out of the hot path: pruneBuf prunePool's
	// sort buffer, opksBuf the op# primitives' shift sizes.
	pruneBuf poolEntries
	opksBuf  []int
	crew     *crew // the search's helpers (help.go); nil runs every move live

	// obj scores feasible candidates: nominal iteration time, or
	// expected time on spot capacity (objective.go).
	obj objective

	// Observability (nil when disabled — every use is pointer-guarded
	// so the tracing-off hot path pays only the nil checks).
	tracer obs.Tracer
	met    *searchMeters
	// Per-top-level-iteration tallies, reset in run()'s loop and
	// flushed into the IterationEvent. Plain ints: each searcher is
	// single-goroutine.
	itEstimated  int
	itDedup      int
	itBacktracks int
}

// newSearcher builds the searcher of one stage-count task: what every
// task shares (graph, cluster, model, options), the task's own pool and
// RNG, and the store of the worker it runs on, which begins the task.
// SearchContext hands it the search context's done channel and the
// meters; a searcher without one never expires.
func newSearcher(g *model.Graph, cl hardware.Cluster, pm *perfmodel.Model, opts Options, stages int, st *store) *searcher {
	s := &searcher{
		graph:   g,
		cluster: cl,
		memNorm: cl.MinDeviceMemory(),
		pm:      pm,
		opts:    opts,
		pool:    make(map[uint64]Candidate, 1024),
		rng:     rand.New(rand.NewSource(opts.Seed + int64(stages)*7919)),
		st:      st,
		tracer:  opts.Tracer,
	}
	s.obj = newObjective(&s.cluster)
	st.begin()
	return s
}

// expired reports whether the search must stop: its context was
// canceled or passed its deadline, which folds in the TimeBudget. A
// non-blocking receive, cheap enough for the per-candidate hot path.
func (s *searcher) expired() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// estimate memoizes performance-model evaluations by configuration key
// in the task's memo and counts unique explored configurations. The
// batch of t, the node cfg was made in, serves the call, sharing the
// base's per-stage metrics; the resulting estimate is bitwise identical
// to the full walk (see perfmodel.Batch), which serves a nil t: seeds
// and memo hits. A key explored with no estimate held — released, or a
// recompute rung — is estimated when asked, uncounted, and traced only
// the first time.
//
// On a pure half's node (t.rec set) the memo is not read: the estimate
// is made and recorded, and the commit half notes it (commit).
func (s *searcher) estimate(t *trial, cfg *config.Config) *perfmodel.Estimate {
	k := cfg.Key()
	if t != nil && t.rec != nil {
		e := t.batch.Estimate(cfg)
		t.record(step{kind: stepEst, key: k, est: e})
		return e
	}
	en := s.st.memo[k]
	if en.est != nil {
		return en.est
	}
	var e *perfmodel.Estimate
	if t != nil {
		e = t.batch.Estimate(cfg)
	} else {
		e = s.pm.EstimateIn(cfg, &s.st.ests)
	}
	s.note(k, en, cfg, e)
	return e
}

// note takes e, cfg's estimate, into the memo entry en of its key k,
// which holds none: it counts k if new and traces a first estimate.
func (s *searcher) note(k uint64, en entry, cfg *config.Config, e *perfmodel.Estimate) {
	if !en.explored {
		s.count(k)
	} else if storeHooks.again != nil {
		storeHooks.again(e, !en.estimated)
	}
	if t, ok := s.tracer.(obs.EstimateTracer); ok && !en.estimated {
		t.OnEstimate(cfg, e)
	}
	en.est, en.explored, en.estimated = e, true, true
	s.st.memo[k] = en
}

// count counts k, a newly explored key.
func (s *searcher) count(k uint64) {
	s.explored++
	s.itEstimated++
	if s.met != nil {
		s.met.estimated.Inc()
	}
	if storeHooks.explored != nil {
		storeHooks.explored(k)
	}
}

// explore counts k explored with no estimate unless it is: it reports which.
func (s *searcher) explore(k uint64) bool {
	en := s.st.memo[k]
	if en.explored {
		return false
	}
	en.explored = true
	s.st.memo[k] = en
	s.count(k)
	return true
}

// rung explores k, a recompute rung's key climbed on t, and counts it a
// rung if new.
func (s *searcher) rung(t *trial, k uint64) {
	if !t.record(step{kind: stepRung, key: k}) && s.explore(k) && s.met != nil {
		s.met.rungs.Inc()
	}
}

// take visits k, counting a dedup hit when k was visited already.
func (s *searcher) take(k uint64) bool {
	if s.st.visit(k) {
		return true
	}
	s.itDedup++
	if s.met != nil {
		s.met.dedup.Inc()
	}
	return false
}

// loses reports whether the fine-tune trial c certainly scores no
// better than best, by t's bound (perfmodel.Batch.Bound) on c's
// iteration time or peak memory, through the objective's floor, and
// counts the trial as decided by the bound or by the estimate. A
// poisoned score is never below an honest best. A losing key is
// explored with no estimate, whoever observes the search.
func (s *searcher) loses(t *trial, c *config.Config, best float64) bool {
	k := c.Key()
	en := s.st.memo[k]
	var lo, hi perfmodel.Estimate
	lost := !trialHooks.exact && en.est == nil && best <= infeasibleScore*poisonedPenalty &&
		t.batch.Bound(c, &lo, &hi) && lo.Feasible == hi.Feasible
	if lost && lo.Feasible {
		lost = s.obj.floor(c, lo.IterTime) >= best
	} else if lost {
		lost = s.score(c, &lo) >= best
	}
	if s.met != nil {
		s.met.trials[lost].Inc()
	}
	if lost {
		s.explore(k)
	}
	return lost
}

// score maps an estimate to a single comparable figure: the objective's
// value when feasible (iteration time; hazard-adjusted expected time on
// spot capacity — the placement matters, hence the config argument); a
// large penalty plus the memory excess otherwise so that approaching
// feasibility still registers as progress. Non-finite estimates
// (poisoned profiles that slipped past input validation) collapse to a
// worst-possible finite score — NaN must never reach the comparators,
// where every ordering test against it is false.
func (s *searcher) score(cfg *config.Config, e *perfmodel.Estimate) float64 {
	if e.Feasible {
		t := s.obj.score(cfg, e.IterTime)
		if t >= 0 && !math.IsInf(t, 0) && !math.IsNaN(t) {
			return t
		}
		return infeasibleScore * poisonedPenalty
	}
	pen := infeasibleScore * (1 + e.PeakMem/s.memNorm)
	if pen >= infeasibleScore && !math.IsInf(pen, 0) && !math.IsNaN(pen) {
		return pen
	}
	return infeasibleScore * poisonedPenalty
}

// poisonedPenalty ranks non-finite-scored configs below every honest
// infeasible one while keeping the score itself finite.
const poisonedPenalty = 1e6

// run executes Algorithm 1 for one pipeline depth and returns its
// local top-K candidates, iteration count, and whether it converged
// (exhausted its pool or iteration budget) rather than being cut off
// by the deadline. The initial configuration is recorded before the
// first expiry check, so run always returns at least one candidate —
// the best-so-far guarantee that SearchContext's partial-result
// contract rests on.
func (s *searcher) run(init *config.Config) ([]Candidate, int, bool) {
	cur := init
	s.st.visit(init.Key())
	var topK []Candidate
	record := func(cfg *config.Config) {
		e := s.estimate(nil, cfg)
		cand := Candidate{Config: cfg, Estimate: e, Score: s.score(cfg, e), key: cfg.Key()}
		topK = insertTopK(topK, cand, s.opts.TopK)
	}
	record(cur)

	iters := 0
	converged := false
	observing := s.tracer != nil || s.met != nil
	for !s.expired() {
		if s.opts.MaxIterations > 0 && iters >= s.opts.MaxIterations {
			converged = true
			break
		}
		iters++
		s.itEstimated, s.itDedup, s.itBacktracks = 0, 0, 0
		// Iteration boundary: every multiHop frame of the previous
		// iteration is gone, so configs evicted from the pool during it
		// can no longer be aliased by candidate slices — recycle them.
		s.st.settle()
		var t0 time.Time
		if s.met != nil {
			t0 = time.Now()
		}
		curEst := s.estimate(nil, cur)
		initScore := s.score(cur, curEst)

		var found *config.Config
		var prim string
		hops := 0
		tries := 0
		lastBN := -1
		bns := Bottlenecks(curEst)
		for _, bn := range bns {
			tries++
			lastBN = bn.Stage
			found, hops, prim = s.multiHop(cur, curEst, bn, 0, initScore)
			// Top-level multiHop frames are gone and an improving
			// candidate is returned before it is ever pooled, so
			// nothing evicted can be aliased here — settle eagerly
			// instead of waiting for the iteration boundary.
			s.st.settle()
			if found != nil || s.expired() {
				break
			}
		}

		improved := found != nil
		if improved {
			if !s.opts.DisableFineTune {
				if ft := s.fineTune(found); ft != nil {
					// The pre-fine-tune config is dead: multiHop returned
					// it before pooling it, and it is not yet in topK.
					s.st.recycle(found)
					found = ft
				}
			}
			cur = found
			record(cur)
		}
		// No improvement reachable from cur: restart from the most
		// promising unexplored configuration (Algorithm 1 line 13).
		var next *config.Config
		if !improved {
			next = s.popBestUnexplored()
		}

		if observing {
			s.observeIteration(init.NumStages(), iters, improved, lastBN,
				curEst, prim, hops, tries, next != nil, topK, t0)
		}

		if improved {
			continue
		}
		if next == nil {
			converged = true // exhausted for this stage count
			break
		}
		cur = next
	}
	s.st.end(s.pool)
	return topK, iters, converged
}

// observeIteration flushes one top-level iteration into the Tracer and
// metrics registry. Kept out of run()'s loop body so the disabled path
// stays a single branch.
func (s *searcher) observeIteration(stageCount, iter int, improved bool, bnStage int,
	curEst *perfmodel.Estimate, prim string, hops, tries int, restarted bool,
	topK []Candidate, t0 time.Time) {
	if s.met != nil {
		s.met.iterations.Inc()
		s.met.iterTime.Observe(time.Since(t0).Seconds())
		if restarted {
			s.met.restarts.Inc()
		}
		if improved {
			s.met.hopDepth.Observe(float64(hops))
		}
	}
	if s.tracer == nil {
		return
	}
	ev := obs.IterationEvent{
		StageCount:      stageCount,
		Iter:            iter,
		Improved:        improved,
		BottleneckStage: bnStage,
		Primitive:       prim,
		Hops:            hops,
		BottleneckTries: tries,
		Backtracks:      s.itBacktracks,
		DedupHits:       s.itDedup,
		Estimated:       s.itEstimated,
		PoolRestart:     restarted,
		PoolSize:        len(s.pool),
	}
	ev.CompProportion, ev.CommProportion, ev.MemProportion = StageProportions(curEst, bnStage)
	if len(topK) > 0 {
		ev.BestScore = topK[0].Score
	}
	s.tracer.OnIteration(ev)
}

// multiHop is Algorithm 2: explore primitive groups for the bottleneck
// in Heuristic-2 order; return the first configuration scoring better
// than initScore, recursing up to MaxHops, along with the name of the
// primitive that produced it (the final hop's primitive).
//
// est must be cfg's estimate. The node is depth hop's trial: every
// candidate of it, and its recompute ladders' picks, is estimated
// against cfg.
func (s *searcher) multiHop(cfg *config.Config, est *perfmodel.Estimate, bn Bottleneck, hop int, initScore float64) (*config.Config, int, string) {
	if hop >= s.opts.MaxHops || s.expired() {
		return nil, 0, ""
	}
	resources := bn.Resources
	if s.opts.DisableHeuristic2 {
		resources = append([]Resource(nil), resources...)
		s.rng.Shuffle(len(resources), func(i, j int) {
			resources[i], resources[j] = resources[j], resources[i]
		})
	}
	t := s.st.trial(s.pm, hop, cfg, est)
	for _, res := range resources {
		prims := Eligible(res, s.opts.ExtendedPrimitives)
		if s.opts.DisableHeuristic2 {
			prims = append([]*Primitive(nil), prims...)
			s.rng.Shuffle(len(prims), func(i, j int) {
				prims[i], prims[j] = prims[j], prims[i]
			})
		}
		c, name, stop := s.batch(t, prims, bn.Stage, hop, initScore)
		if c != nil {
			return c, hop + 1, name
		}
		if stop {
			return nil, 0, ""
		}
		cands := t.cands
		// Heuristic-2: best estimated performance first.
		if s.opts.DisableHeuristic2 {
			s.rng.Shuffle(len(cands), func(i, j int) {
				cands[i], cands[j] = cands[j], cands[i]
			})
		} else {
			sortCands(cands, func(a, b Candidate) bool { return a.less(&b) })
		}
		for i := 0; i < min(s.opts.BranchFactor, len(cands)); i++ {
			nb, ok := topBottleneck(t, cands[i].Estimate)
			if !ok {
				continue
			}
			if r, h, pn := s.multiHop(cands[i].Config, cands[i].Estimate, nb, hop+1, initScore); r != nil {
				return r, h, pn
			}
			if s.expired() {
				return nil, 0, ""
			}
			// The branch was explored to exhaustion without beating
			// initScore — the search backtracks to the next candidate.
			s.itBacktracks++
		}
	}
	return nil, 0, ""
}

// batch tries, in order, the moves prims make on t for stage: the first
// candidate scoring below initScore is returned with its primitive's
// name, every other is pooled and kept in t.cands, and stop reports an
// expired search. The moves are made up front and published to helpers
// (publish); the rungs a primitive counted while making them are counted
// when its first move is due, as if it were made then.
func (s *searcher) batch(t *trial, prims []*Primitive, stage, hop int, initScore float64) (found *config.Config, name string, stop bool) {
	t.moves, t.gen.steps, t.segs, t.rec = t.moves[:0], t.gen.steps[:0], t.segs[:0], &t.gen
	for _, prim := range prims {
		prim.apply(s, t, stage)
		t.segs = append(t.segs, segment{prim, len(t.moves), len(t.gen.steps)})
	}
	t.rec = nil
	j, i, g := s.publish(t, hop), 0, 0
	defer func() { s.retract(j, i) }()
	cands := t.cands[:0]
	defer func() { t.cands = cands }() // retain grown capacity across nodes
	for _, sg := range t.segs {
		for ; g < sg.steps; g++ {
			s.rung(t, t.gen.steps[g].key)
		}
		var pc *obs.Counter
		if s.met != nil {
			pc = s.met.prims[sg.prim.Name]
		}
		for ; i < sg.moves; i++ {
			// A deadline or cancellation that fires mid-hop must abort
			// promptly, not after this primitive's whole candidate batch
			// has been estimated.
			if s.expired() {
				return nil, "", true
			}
			c, e, sc := s.next(t, j, i)
			if c == nil {
				continue
			}
			if pc != nil {
				pc.Inc()
			}
			if sc < initScore {
				i++
				return c, sg.prim.Name, false
			}
			cand := Candidate{Config: c, Estimate: e, Score: sc, key: c.Key()}
			s.pool[cand.key] = cand
			if len(s.pool) > poolCap {
				s.prunePool()
			}
			cands = append(cands, cand)
		}
		if s.expired() {
			return nil, "", true
		}
	}
	return nil, "", false
}

// try is the one trial of multiHop (fine false) and fineTune: it
// applies m to t's scratch, runs the loop's checks in its order — in
// multiHop validate, attach recompute on the scratch, visit; in
// fineTune, within t's budget, visit, validate, bound against best —
// and undoes m and the ladders. A candidate that passes is estimated
// and scored, and returned when kept: always in multiHop, below best in
// fineTune, which rebases t on it. It is the scratch's clone; nothing
// else is copied.
func (s *searcher) try(t *trial, m *move, fine bool, best float64) (*config.Config, *perfmodel.Estimate, float64) {
	if fine && t.budget <= 0 || !m.apply(t.scratch) {
		return nil, nil, 0
	}
	// The base is valid — the task's seed, or a candidate that passed
	// these checks, give or take Recompute flags, which no invariant
	// reads — so ValidateDelta checks only the stages m rewrote.
	c, devs, ok := t.scratch, s.cluster.TotalDevices(), false
	if fine {
		// An invalid key stays visited, which only skips its next trial
		// (validity goes with the key).
		t.budget--
		ok = s.st.visit(c.Key()) && c.ValidateDelta(s.graph, devs, t.base) == nil && !s.loses(t, c, best)
	} else if c.ValidateDelta(s.graph, devs, t.base) == nil {
		s.attachRecompute(t)
		ok = s.take(c.Key())
	}
	var e *perfmodel.Estimate
	var sc float64
	if ok {
		e = s.estimate(t, c)
		sc = s.score(c, e)
		if ok = !fine || sc < best; ok {
			c = s.st.clone(c)
		}
	}
	t.undo(m)
	if !ok {
		return nil, nil, 0
	}
	if fine {
		// The node and its scratch follow the new base.
		s.st.rebase(s.pm, t, c, e)
		t.undo(m)
	}
	return c, e, sc
}

// attachRecompute implements the §4.3 combination "attach inc/dec-rc
// to all other primitives": after any reconfiguration, greedily add
// recomputation in over-memory stages (largest activations first)
// until they fit. Under-used recomputation removal is left to explicit
// dec-rc hops.
//
// Each over-memory stage of t's scratch climbs its ladder (climbRC) in
// place, into t.climbed, and keeps the first rung that fits the stage —
// unmarking the rungs climbed past it — else the ladder's top. Only the
// pick is estimated; the key it supersedes is released.
func (s *searcher) attachRecompute(t *trial) {
	c, e := t.scratch, s.estimate(t, t.scratch)
	for si := 0; si < len(c.Stages) && !e.Feasible; si++ {
		if e.Stages[si].PeakMem <= e.Stages[si].CapMem {
			continue
		}
		rank := rcRank(s, t, c, si, false)
		if len(rank) == 0 {
			continue
		}
		prev, pick := c.Key(), rank
		if k, fit := climbRC(s, t, c, e, si, rank); fit == 0 {
			setRC(c, si, rank[k:], true)
		} else if pick = rank[:fit]; fit < k {
			setRC(c, si, rank[fit:k], false)
		}
		if t.rec != nil {
			t.record(step{kind: stepPick, stage: si, lo: len(t.rec.ops), hi: len(t.rec.ops) + len(pick)})
			t.rec.ops = append(t.rec.ops, pick...)
		}
		e = s.estimate(t, c)
		if !t.record(step{kind: stepRelease, key: prev}) {
			s.st.release(prev)
		}
		t.climbed = append(t.climbed, si)
	}
}

// poolEntry is prunePool's sort record; poolEntries implements
// sort.Interface on the pointer so sort.Sort neither boxes a slice
// header nor goes through reflection — with the buffer hoisted into
// the searcher, a prune allocates nothing in steady state (pinned by
// TestPruneInsertAllocs).
type poolEntry struct {
	key   uint64
	score float64
	cfg   *config.Config
}

type poolEntries []poolEntry

func (p *poolEntries) Len() int { return len(*p) }
func (p *poolEntries) Less(a, b int) bool {
	s := *p
	if s[a].score != s[b].score {
		return s[a].score < s[b].score
	}
	return hashLess(s[a].cfg, s[b].cfg)
}
func (p *poolEntries) Swap(a, b int) {
	s := *p
	s[a], s[b] = s[b], s[a]
}

// prunePool drops the worst-scoring entries of an oversized pool,
// keeping the best poolCap/2 (deterministic: ties broken by hash). The
// half-cap target leaves insert headroom so the pool is not re-pruned
// on nearly every insert once it first fills. Evicted configs are not
// recycled at once (see store.evict): candidate slices of multiHop
// frames still on the stack may alias them until the iteration ends.
func (s *searcher) prunePool() {
	keep := poolCap / 2
	if len(s.pool) <= keep {
		return
	}
	all := s.pruneBuf[:0]
	for k, c := range s.pool {
		all = append(all, poolEntry{k, c.Score, c.Config})
	}
	s.pruneBuf = all
	sort.Sort(&s.pruneBuf)
	all = s.pruneBuf
	for _, e := range all[keep:] {
		delete(s.pool, e.key)
		s.st.evict(e.cfg)
	}
	if s.met != nil {
		s.met.prunes.Inc()
	}
}

// popBestUnexplored removes and returns the best-scoring unexplored
// configuration (deterministic: ties broken by hash).
func (s *searcher) popBestUnexplored() *config.Config {
	var best Candidate
	for _, c := range s.pool {
		if best.Config == nil || c.less(&best) {
			best = c
		}
	}
	if best.Config == nil {
		return nil
	}
	delete(s.pool, best.key)
	return best.Config
}

// insertTopK keeps a ranked, key-deduplicated list of the k best
// candidates. The list is always sorted (score, then hash), so the
// new candidate is spliced in at its position rather than re-sorting
// the whole slice per insertion.
func insertTopK(list []Candidate, c Candidate, k int) []Candidate {
	pos := len(list)
	for i := range list {
		if list[i].key == c.key {
			return list
		}
		if pos == len(list) && c.less(&list[i]) {
			pos = i
		}
	}
	if pos >= k {
		return list // ranks below the kept k
	}
	list = append(list, Candidate{})
	copy(list[pos+1:], list[pos:])
	list[pos] = c
	if len(list) > k {
		list = list[:k]
	}
	return list
}
