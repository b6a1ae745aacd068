package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"sync/atomic"
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
// anyway. (Historically the prune truncated to poolCap with a 2×cap
// trigger, so a hot pool re-pruned after every poolCap inserts while
// holding twice the memory the cap promised.)
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
// store.evict). tieBreaks counts the calls for TestTieBreaksPerSearch.
func hashLess(a, b *config.Config) bool {
	tieBreaks.Add(1)
	return a.Hash() < b.Hash()
}

var tieBreaks atomic.Int64

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
	limit := devices // don't shadow the max builtin
	if ops < limit {
		limit = ops
	}
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
// graph g over cluster cl (Algorithm 1), with one goroutine per
// candidate pipeline depth (§4.3), and returns the merged result.
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
	workers := runtime.GOMAXPROCS(0)
	if workers > len(stageCounts) {
		workers = len(stageCounts)
	}
	if workers < 1 {
		workers = 1
	}
	// One store per worker, not per task: a worker runs its tasks
	// serially, so consecutive stage-count searches on the same worker
	// recycle each other's candidate memory (see store). The stores are
	// taken before anything else is built and handed over on the way
	// out, so that a loop of searches meets them again (see stores).
	ss := takeStores(workers)
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
	// What a candidate scores and where each pipeline starts, both
	// derived from cl (objective.go).
	obj := newObjective(&cl)
	seed := obj.seeds(g, pm, opts.Initializer)
	start := time.Now()
	deadline := start.Add(opts.TimeBudget)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	ctx, cancel := context.WithDeadline(ctx, deadline)
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
	// yet started. The deepest pipeline sets the makespan of GPT-3
	// 2.6B's search. In a cold GPT-3 350M one on 16 V100s, no task
	// dominates: p=7, 8 and 12 take 1.5–1.8 ms of 6.5–6.9 ms on 2 vCPUs,
	// and p=1, handed out last, 1.4 ms since fine-tuning bounds its
	// losing trials (DESIGN.md §5b, Scheduling).
	// Scheduling cannot change any task's result (tasks share only
	// thread-safe caches whose values are pure functions of their keys),
	// so the merged outcome is identical under any schedule.
	order := make([]int, len(stageCounts))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return stageCounts[order[a]] > stageCounts[order[b]]
	})
	runInOrder(workers, order, func(w, wi int) {
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
		s.deadline, s.done, s.met = deadline, ctx.Done(), met
		topK, iters, converged := s.run(init)
		outs[wi] = workerOut{topK: topK, explored: s.explored, iterations: iters, converged: converged}
	})

	for i := range outs {
		panicked = panicked || outs[i].err != nil && outs[i].err.PanicValue != nil
	}

	if opts.Metrics != nil {
		// Mirror the performance model's own stage-cache counters into
		// the registry. Set (not Add): a shared Model accumulates across
		// searches and this snapshot reflects its lifetime totals.
		hits, misses := pm.StageCacheStats()
		opts.Metrics.Counter(obs.StageCacheHitsTotal).Set(int64(hits))
		opts.Metrics.Counter(obs.StageCacheMissesTotal).Set(int64(misses))
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
	prims      map[string]*obs.Counter // every Table and ExtensionTable row; read-only, so workers share it
	trials     map[bool]*obs.Counter   // fine-tune trials, by whether their bound rejected them; read-only
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
		prims:      make(map[string]*obs.Counter),
		hopDepth:   reg.Histogram(obs.MultiHopDepth, 1, 2, 3, 4, 5, 6, 7, 8),
		iterTime:   reg.Histogram(obs.IterationSeconds, obs.SecondsBuckets...),
	}
	m.trials = map[bool]*obs.Counter{
		false: reg.Counter(obs.FineTuneTrialsTotal + `{decided="exact"}`),
		true:  reg.Counter(obs.FineTuneTrialsTotal + `{decided="bound"}`),
	}
	for _, tbl := range [][]Primitive{Table, ExtensionTable} {
		for i := range tbl {
			name := tbl[i].Name
			m.prims[name] = reg.Counter(fmt.Sprintf("%s{primitive=%q}", obs.PrimitiveAppliedTotal, name))
		}
	}
	return m
}

// searcher is the per-stage-count search state.
type searcher struct {
	graph    *model.Graph
	cluster  hardware.Cluster
	memNorm  float64 // min per-device memory (infeasibility normalizer)
	pm       *perfmodel.Model
	opts     Options
	deadline time.Time
	done     <-chan struct{} // context cancellation, shared with the deadline

	pool     map[uint64]Candidate // unexplored configs by Config.Key (Algorithm 1)
	explored int
	rng      *rand.Rand

	// st owns every candidate's memory and the task's memo of visited
	// keys and estimates (see store); it is the worker's, shared by the
	// searchers run serially on it.
	st *store

	// batches is the stack of batched estimators, one per active
	// multiHop/fineTune base; batch is its top (nil = full path). The
	// slots — and their key slices — are reused across pushes at the
	// same depth, so a push is allocation-free in steady state.
	batches []perfmodel.Batch
	batch   *perfmodel.Batch

	// Reusable scratch, hoisted out of the hot path: candsAt[hop] backs
	// multiHop's per-resource candidate list at recursion depth hop,
	// bnBufAt[hop] the Bottleneck resource list built for depth hop+1,
	// pruneBuf prunePool's sort buffer, rcBuf the saved-activation
	// ranking of the rc primitives and attachRecompute (never live
	// across nested calls: estimates do not re-enter them), rcKeys the
	// keys of attachRecompute's rungs. trials receives multiHop's apply
	// results, each consumed before the next apply.
	candsAt  [][]Candidate
	bnBufAt  [][]Resource
	pruneBuf poolEntries
	rcBuf    []rcCand
	rcKeys   []uint64
	opksBuf  []int
	trials   []*config.Config

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
// The deadline is TimeBudget from now; SearchContext replaces it with
// the search's own, with the context's cancellation and the meters.
func newSearcher(g *model.Graph, cl hardware.Cluster, pm *perfmodel.Model, opts Options, stages int, st *store) *searcher {
	s := &searcher{
		graph:    g,
		cluster:  cl,
		memNorm:  cl.MinDeviceMemory(),
		pm:       pm,
		opts:     opts,
		deadline: time.Now().Add(opts.TimeBudget),
		pool:     make(map[uint64]Candidate, 1024),
		rng:      rand.New(rand.NewSource(opts.Seed + int64(stages)*7919)),
		st:       st,
		tracer:   opts.Tracer,
	}
	s.obj = newObjective(&s.cluster)
	st.begin()
	return s
}

// expired reports whether the search must stop: the context was
// canceled (or its deadline — which already folds in the TimeBudget —
// fired), or the wall clock passed the budget. Both checks are cheap
// enough for the per-candidate hot path.
func (s *searcher) expired() bool {
	if s.done != nil {
		select {
		case <-s.done:
			return true
		default:
		}
	}
	return time.Now().After(s.deadline)
}

// pushBatch makes (cfg, est) the base for batched estimation until the
// matching popBatch. Stack slots are reused, so steady-state pushes
// allocate nothing.
func (s *searcher) pushBatch(cfg *config.Config, est *perfmodel.Estimate) {
	if n := len(s.batches); n < cap(s.batches) {
		s.batches = s.batches[:n+1]
	} else {
		s.batches = append(s.batches, perfmodel.Batch{})
	}
	b := &s.batches[len(s.batches)-1]
	s.pm.BeginBatch(b, cfg, est, &s.st.ests)
	s.batch = b
}

// popBatch restores the enclosing base (nil at the outermost level).
func (s *searcher) popBatch() {
	s.batches = s.batches[:len(s.batches)-1]
	if n := len(s.batches); n > 0 {
		s.batch = &s.batches[n-1]
	} else {
		s.batch = nil
	}
}

// estimate memoizes performance-model evaluations by configuration key
// in the task's memo and counts unique explored configurations. Inside a
// multiHop/fineTune node the active batch estimator serves the call,
// sharing the base configuration's per-stage metrics; the resulting
// estimate is bitwise identical to the full path (see perfmodel.Batch).
// A released key is computed again — to the same bits — and not counted
// again.
func (s *searcher) estimate(cfg *config.Config) *perfmodel.Estimate {
	k := cfg.Key()
	en := s.st.memo[k]
	if en.est != nil {
		return en.est
	}
	var e *perfmodel.Estimate
	if s.batch != nil {
		e = s.batch.Estimate(cfg)
	} else {
		e = s.pm.EstimateIn(cfg, &s.st.ests)
	}
	again := en.explored
	en.est, en.explored = e, true
	s.st.memo[k] = en
	if again {
		if storeHooks.again != nil {
			storeHooks.again(e)
		}
		return e
	}
	s.count()
	if t, ok := s.tracer.(obs.EstimateTracer); ok {
		t.OnEstimate(cfg, e)
	}
	return e
}

// count counts one newly explored key.
func (s *searcher) count() {
	s.explored++
	s.itEstimated++
	if s.met != nil {
		s.met.estimated.Inc()
	}
}

// loses reports whether the fine-tune trial c certainly scores no
// better than best, by the batch base's bound (perfmodel.Batch.Bound)
// on c's iteration time or peak memory, through the objective's floor.
// A poisoned score is never below an honest best. A losing key is
// counted as estimate counts it and left explored with no estimate, as
// a released key is; an obs.EstimateTracer still sees it estimated.
func (s *searcher) loses(c *config.Config, best float64) bool {
	k := c.Key()
	en := s.st.memo[k]
	var lo, hi perfmodel.Estimate
	lost := !trialHooks.exact && en.est == nil && best <= infeasibleScore*poisonedPenalty &&
		s.batch.Bound(c, &lo, &hi) && lo.Feasible == hi.Feasible
	if lost && lo.Feasible {
		lost = s.obj.floor(c, lo.IterTime) >= best
	} else if lost {
		lost = s.score(c, &lo) >= best
	}
	if !lost {
		return false
	}
	if _, ok := s.tracer.(obs.EstimateTracer); ok {
		s.estimate(c)
	} else if !en.explored {
		en.explored = true
		s.st.memo[k] = en
		s.count()
	}
	return true
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
	s.st.visit(init)
	var topK []Candidate
	record := func(cfg *config.Config) {
		e := s.estimate(cfg)
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
		curEst := s.estimate(cur)
		initScore := s.score(cur, curEst)

		var found *config.Config
		var prim string
		hops := 0
		tries := 0
		lastBN := -1
		bns := Bottlenecks(curEst, s.cluster.MemoryBytes)
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
// est must be cfg's estimate; it anchors the node's batched estimator,
// which every candidate of this node is evaluated against
// (attachRecompute's rungs against the candidate they extend).
func (s *searcher) multiHop(cfg *config.Config, est *perfmodel.Estimate, bn Bottleneck, hop int, initScore float64) (*config.Config, int, string) {
	if hop >= s.opts.MaxHops || s.expired() {
		return nil, 0, ""
	}
	s.pushBatch(cfg, est)
	defer s.popBatch()
	resources := bn.Resources
	if s.opts.DisableHeuristic2 {
		resources = append([]Resource(nil), resources...)
		s.rng.Shuffle(len(resources), func(i, j int) {
			resources[i], resources[j] = resources[j], resources[i]
		})
	}
	for len(s.candsAt) <= hop {
		s.candsAt = append(s.candsAt, nil)
	}
	for _, res := range resources {
		prims := Eligible(res)
		if s.opts.ExtendedPrimitives {
			prims = EligibleExtended(res)
		}
		if s.opts.DisableHeuristic2 {
			prims = append([]*Primitive(nil), prims...)
			s.rng.Shuffle(len(prims), func(i, j int) {
				prims[i], prims[j] = prims[j], prims[i]
			})
		}
		// Per-depth scratch: frames at other depths use their own slot,
		// and the recursion below finishes before this slot is reused.
		cands := s.candsAt[hop][:0]
		for _, prim := range prims {
			var pc *obs.Counter
			if s.met != nil {
				pc = s.met.prims[prim.Name]
			}
			batch := prim.apply(s, cfg, bn.Stage, s.trials[:0])
			s.trials = batch
			for ci, c := range batch {
				// A deadline or cancellation that fires mid-hop must
				// abort promptly, not after this primitive's whole
				// candidate batch has been estimated.
				if s.expired() {
					return nil, 0, ""
				}
				if c == nil {
					continue
				}
				// cfg is valid — the task's seed, or a candidate that passed
				// here or in fineTune, give or take Recompute flags, which
				// no invariant reads — so only rewritten stages are checked.
				if err := c.ValidateDelta(s.graph, s.cluster.TotalDevices(), cfg); err != nil {
					s.st.recycle(c)
					continue
				}
				if rc := s.attachRecompute(c); rc != c {
					// The candidate was superseded by its recompute
					// variant before anything retained it.
					s.st.release(c.Key())
					s.st.recycle(c)
					c = rc
				}
				if !s.st.visit(c) {
					s.itDedup++
					if s.met != nil {
						s.met.dedup.Inc()
					}
					continue
				}
				k := c.Key()
				if pc != nil {
					pc.Inc()
				}
				e := s.estimate(c)
				sc := s.score(c, e)
				if sc < initScore {
					// The rest of the batch was never pooled or
					// estimated — recycle it on the way out.
					for _, rest := range batch[ci+1:] {
						s.st.recycle(rest)
					}
					return c, hop + 1, prim.Name
				}
				cand := Candidate{Config: c, Estimate: e, Score: sc, key: k}
				s.pool[k] = cand
				if len(s.pool) > poolCap {
					s.prunePool()
				}
				cands = append(cands, cand)
			}
			if s.expired() {
				s.candsAt[hop] = cands
				return nil, 0, ""
			}
		}
		s.candsAt[hop] = cands // retain grown capacity across nodes
		// Heuristic-2: best estimated performance first.
		if s.opts.DisableHeuristic2 {
			s.rng.Shuffle(len(cands), func(i, j int) {
				cands[i], cands[j] = cands[j], cands[i]
			})
		} else {
			// Insertion sort: stable like sort.SliceStable (equal-key
			// order preserved) without the reflection-based swapper's
			// per-call allocations; candidate lists are small.
			for i := 1; i < len(cands); i++ {
				for j := i; j > 0 && cands[j].less(&cands[j-1]); j-- {
					cands[j], cands[j-1] = cands[j-1], cands[j]
				}
			}
		}
		limit := s.opts.BranchFactor
		if limit > len(cands) {
			limit = len(cands)
		}
		for i := 0; i < limit; i++ {
			nb, ok := s.topBottleneck(hop, cands[i].Estimate)
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

// attachRecompute implements the §4.3 combination "attach inc/dec-rc
// to all other primitives": after any reconfiguration, greedily add
// recomputation in over-memory stages (largest activations first)
// until they fit. Under-used recomputation removal is left to explicit
// dec-rc hops.
//
// Each over-memory stage climbs its ladder (climbRC) on one scratch
// clone, estimated against the config it extends, and keeps the first
// rung that fits the stage (a clone if the walk climbs on), else the
// ladder's top.
func (s *searcher) attachRecompute(cfg *config.Config) *config.Config {
	e := s.estimate(cfg)
	if e.Feasible {
		return cfg
	}
	out := cfg
	for si := range out.Stages {
		if e.Stages[si].PeakMem <= e.Stages[si].CapMem {
			continue
		}
		rank := rcRank(s, out, si, false)
		if len(rank) == 0 {
			continue
		}
		s.pushBatch(out, e)
		c := s.st.clone(out)
		keys := s.rcKeys[:0]
		var pick *config.Config
		k := climbRC(s, c, si, rank, func(re *perfmodel.Estimate, more bool) {
			keys = append(keys, c.Key())
			if pick == nil && re.Stages[si].PeakMem <= re.Stages[si].CapMem {
				if pick = c; more {
					pick = s.st.clone(c)
				}
			}
		})
		if pick == nil {
			setRC(c, si, rank[k:], true)
			pick = c
		}
		e = s.estimate(pick)
		s.popBatch()
		s.rcKeys = keys
		// Unpicked rungs and the superseded intermediate are dead —
		// never pooled, never returned.
		pk := pick.Key()
		for _, key := range keys {
			if key != pk {
				s.st.release(key)
			}
		}
		if c != pick {
			s.st.recycle(c)
		}
		if out != cfg {
			s.st.release(out.Key())
			s.st.recycle(out)
		}
		if out = pick; e.Feasible {
			break
		}
	}
	return out
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
