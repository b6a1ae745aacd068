package main

// The traced run. It runs the workload in alternating untraced and
// traced slices and reads two kinds of per-layer numbers.
//
// Attribution comes from the spans of the traced ops alone: the client's
// round trip, the handler inside it and the handler's writes to the
// connection; the search call, its task per pipeline depth and, inside a
// task, the initializer, the first estimate and every top-level
// iteration. Those spans are on the op's own path and nest; a span's
// self time is its duration less the union of its children.
//
// What happens inside an iteration or inside the handler cannot be seen
// from outside the program. For those layers the run gives unit costs:
// each layer's public functions called from here on the workload's own
// inputs. A unit cost says what one call costs, not how much of an op
// it is; README.md says which end-to-end metric each should move.
//
// Every workload prints every name; a metric the workload is not mapped
// to is 0.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"aceso/internal/collective"
	"aceso/internal/config"
	"aceso/internal/core"
	"aceso/internal/hardware"
	"aceso/internal/model"
	"aceso/internal/obs"
	"aceso/internal/perfmodel"
	"aceso/internal/plancache"
	"aceso/internal/planserver"
	"aceso/internal/profiler"
)

// perLayer lists the metrics of a traced run, as BENCHMARK.json does.
var perLayer = []metricDef{
	{name: "model.build_s", unit: "s"},
	{name: "hardware.build_s", unit: "s"},
	{name: "hardware.range_scale_ns", unit: "ns"},
	{name: "collective.allreduce_ns", unit: "ns"},
	{name: "profiler.new_s", unit: "s"},
	{name: "profiler.optime_hit_ns", unit: "ns"},
	{name: "profiler.optime_miss_ns", unit: "ns"},
	{name: "profiler.entries", unit: "count"},
	{name: "perfmodel.new_s", unit: "s"},
	{name: "perfmodel.estimate_cold_s", unit: "s"},
	{name: "perfmodel.estimate_warm_ns", unit: "ns"},
	{name: "perfmodel.batch_estimate_ns", unit: "ns"},
	{name: "perfmodel.stage_cache_hit_ratio", unit: "ratio"},
	{name: "config.initial_s", unit: "s"},
	{name: "config.clone_ns", unit: "ns"},
	{name: "config.hash_stage_ns", unit: "ns"},
	{name: "config.hash_full_ns", unit: "ns"},
	{name: "core.search_s", unit: "s"},
	{name: "core.explored", unit: "count"},
	{name: "core.iterations", unit: "count"},
	{name: "core.dedup_hits", unit: "count"},
	{name: "core.primitives_applied", unit: "count"},
	{name: "core.multihop_depth_mean", unit: "count"},
	{name: "core.explored_per_s", unit: "1/s"},
	{name: "core.stagecount_slowest_s", unit: "s"},
	{name: "core.stagecount_sum_s", unit: "s"},
	{name: "core.critical_share", unit: "ratio"},
	{name: "core.replan_s", unit: "s"},
	{name: "core.best_iter_s", unit: "s/iter"},
	{name: "plancache.graph_hash_s", unit: "s"},
	{name: "plancache.cluster_hash_s", unit: "s"},
	{name: "plancache.get_ns", unit: "ns"},
	{name: "plancache.put_evict_ns", unit: "ns"},
	{name: "plancache.hit_ratio", unit: "ratio"},
	{name: "plancache.warm_ratio", unit: "ratio"},
	{name: "plancache.evictions", unit: "count"},
	{name: "planserver.decode_s", unit: "s"},
	{name: "planserver.encode_s", unit: "s"},
	{name: "planserver.handler_hit_s", unit: "s"},
	{name: "planserver.handler_miss_s", unit: "s"},
	{name: "planserver.http_share", unit: "ratio"},
	{name: "planserver.search_share", unit: "ratio"},
	{name: "planserver.response_bytes", unit: "bytes"},
	{name: "planserver.requests_200", unit: "count"},
	{name: "planserver.cache_hits_exact", unit: "count"},
	{name: "planserver.cache_hits_warm", unit: "count"},
	{name: "planserver.cache_misses", unit: "count"},
	{name: "planserver.shed", unit: "count"},
	{name: "bench.traced_op_s_p50", unit: "s"},
	{name: "bench.unattributed_share", unit: "ratio"},
	{name: "bench.trace_overhead_share", unit: "ratio"},
}

// taskSpan is the name of a search task's span, less its pipeline depth.
const taskSpan = "core.task/p="

// ledger is what a workload's instance fills in after a traced run.
type ledger struct {
	m, diag map[string]float64
	// The spans of set-up, of the traced slices and of the end-of-run
	// checks, self times computed.
	setup, ops, after []span
	p                 *prober
	quick             bool
}

// ---------------------------------------------------------------------------
// reading spans
// ---------------------------------------------------------------------------

// spanTimes returns the duration of every span called name, or with
// self its self time.
func spanTimes(spans []span, name string, self bool) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		if self {
			out = append(out, s.SelfS)
		} else {
			out = append(out, s.EndS-s.StartS)
		}
	}
	return out
}

// perOp folds the durations of the spans whose name starts with prefix
// into one value per op.
func perOp(spans []span, prefix string, fold func(acc, d float64) float64) []float64 {
	byOp := make(map[int]float64)
	for _, s := range spans {
		if strings.HasPrefix(s.Name, prefix) {
			byOp[s.Op] = fold(byOp[s.Op], s.EndS-s.StartS)
		}
	}
	out := make([]float64, 0, len(byOp))
	for _, v := range byOp {
		out = append(out, v)
	}
	return out
}

func add(acc, d float64) float64 { return acc + d }

// opened returns the spans opened after the first lo and up to the
// first hi that the tracer saw (tracer.mark counts them).
func opened(spans []span, lo, hi int) []span {
	var out []span
	for _, s := range spans {
		if s.ID > lo && s.ID <= hi {
			out = append(out, s)
		}
	}
	return out
}

// unattributed is the share of the ops' time that lies in no span named
// for a call into a layer: the self time of the benchmark's own spans,
// over the duration of the root spans.
func unattributed(spans []span) float64 {
	total, own := 0.0, 0.0
	for _, s := range spans {
		if s.Parent == 0 {
			total += s.EndS - s.StartS
		}
		if strings.HasPrefix(s.Name, "bench.") {
			own += s.SelfS
		}
	}
	if total == 0 {
		return 0
	}
	return own / total
}

// ---------------------------------------------------------------------------
// unit-cost probes
// ---------------------------------------------------------------------------

// sink keeps the compiler from removing a probe's calls.
var sink float64

// prober times calls inside spans that hang off one root span.
type prober struct {
	tr    *tracer
	root  int
	reps  int           // repetitions whose median is reported
	slice time.Duration // how long one repetition of a small call loops
}

// once times one call.
func (p *prober) once(name string, fn func()) float64 {
	sp := p.tr.begin(name, p.root, -1)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	p.tr.end(sp, 1)
	return d.Seconds()
}

// perCall is for calls too short to time singly: each repetition loops
// fn for p.slice inside one span, and the median time per call is
// returned. fn gets a counter that keeps rising across repetitions.
func (p *prober) perCall(name string, fn func(i int)) float64 {
	var per []float64
	n := 0
	for rep := 0; rep < p.reps; rep++ {
		sp := p.tr.begin(name, p.root, -1)
		t0, first := time.Now(), n
		for time.Since(t0) < p.slice {
			for k := 0; k < 16; k++ {
				fn(n)
				n++
			}
		}
		d := time.Since(t0)
		p.tr.end(sp, n-first)
		per = append(per, d.Seconds()/float64(n-first))
	}
	return median(per)
}

// medianOf runs fn p.reps times and returns the median of its results.
func (p *prober) medianOf(fn func() float64) float64 {
	var v []float64
	for rep := 0; rep < p.reps; rep++ {
		v = append(v, fn())
	}
	return median(v)
}

// requestPath times what the plan handler does around the cache lookup
// — decode, what planserver's prepare does, encode — call by call for
// each request, and reports the median over the requests. plans[i] is
// the plan the server returned for refs[i] (nil: not planned here).
func (p *prober) requestPath(refs []planserver.PlanRequest, plans [][]byte, m map[string]float64) error {
	bodies, err := marshalAll(refs)
	if err != nil {
		return err
	}
	var decode, encode, mbuild, hbuild, ghash, chash []float64
	for rep := 0; rep < p.reps; rep++ {
		for i := range refs {
			var pr planserver.PlanRequest
			var g *model.Graph
			var target hardware.Cluster
			decode = append(decode, p.once("planserver.decode", func() { err = json.Unmarshal(bodies[i], &pr) }))
			if err != nil {
				return err
			}
			mbuild = append(mbuild, p.once("model.Build", func() { g, err = pr.Model.Build() }))
			if err != nil {
				return err
			}
			hbuild = append(hbuild, p.once("hardware.Build", func() {
				var faults *hardware.FaultSpec
				if target, faults, err = pr.Cluster.Build(); err == nil && faults != nil {
					target, err = target.Degrade(*faults)
				}
			}))
			if err != nil {
				return err
			}
			ghash = append(ghash, p.once("plancache.GraphHash", func() { sink += float64(plancache.GraphHash(g) & 1) }))
			chash = append(chash, p.once("plancache.ClusterHash", func() { sink += float64(plancache.ClusterHash(&target) & 1) }))
			if i < len(plans) && plans[i] != nil {
				resp := planserver.PlanResponse{Cache: "hit", Key: "0000000000000000-0000000000000000-0000000000000000", Plan: plans[i]}
				encode = append(encode, p.once("planserver.encode", func() { err = json.NewEncoder(io.Discard).Encode(&resp) }))
				if err != nil {
					return err
				}
			}
		}
	}
	m["planserver.decode_s"] = median(decode)
	m["planserver.encode_s"] = median(encode)
	m["model.build_s"] = median(mbuild)
	m["hardware.build_s"] = median(hbuild)
	m["plancache.graph_hash_s"] = median(ghash)
	m["plancache.cluster_hash_s"] = median(chash)
	return nil
}

// cache times the plan cache alone, at the server's default size.
func (p *prober) cache(m map[string]float64) {
	const size = 256
	c := plancache.New(size)
	for i := 0; i < size; i++ {
		c.Put(&plancache.Entry{Key: plancache.Key{Graph: uint64(i)}})
	}
	m["plancache.get_ns"] = 1e9 * p.perCall("plancache.Get", func(i int) {
		if _, ok := c.Get(plancache.Key{Graph: uint64(i % size)}); !ok {
			sink++
		}
	})
	m["plancache.put_evict_ns"] = 1e9 * p.perCall("plancache.Put/evict", func(i int) {
		c.Put(&plancache.Entry{Key: plancache.Key{Graph: uint64(size + i)}})
	})
}

// searchPath times the calls of a search's inner loop on b's graph and
// cluster and on cfg, a configuration of that search: the cluster
// accessors and collectives the performance model prices a stage with,
// the profiling database, the performance model and the configuration
// operations.
func (p *prober) searchPath(b *built, cfg *config.Config, m map[string]float64) {
	g, cl, seed := b.g, b.target, b.opts.Seed
	total := cl.TotalDevices()

	// Every aligned power-of-two device range.
	type window struct{ first, size int }
	var windows []window
	for size := 1; size <= total; size *= 2 {
		for first := 0; first+size <= total; first += size {
			windows = append(windows, window{first, size})
		}
	}
	m["hardware.range_scale_ns"] = 1e9 * p.perCall("hardware.RangeFLOPSScale+RangeMemory", func(i int) {
		w := windows[i%len(windows)]
		sink += cl.RangeFLOPSScale(w.first, w.size, g.Precision) + cl.RangeMemory(w.first, w.size)
	})
	type group struct {
		bytes       float64
		first, size int
	}
	var groups []group
	for size := 2; size <= min(total, 64); size *= 2 {
		for _, first := range []int{0, size} {
			if first+size <= total {
				for _, bytes := range []float64{1e5, 1e7, 1e9} {
					groups = append(groups, group{bytes, first, size})
				}
			}
		}
	}
	m["collective.allreduce_ns"] = 1e9 * p.perCall("collective.AllReduceAt", func(i int) {
		g := groups[i%len(groups)]
		sink += collective.AllReduceAt(&cl, g.bytes, g.first, g.size, collective.PlacementFor(&cl, g.first, g.size))
	})

	// The profiling database: construction, a lookup of a key it holds
	// and one of a key it has to compute and store.
	m["profiler.new_s"] = p.medianOf(func() float64 {
		return p.once("profiler.New", func() { sink += float64(profiler.New(cl, seed).Entries()) })
	})
	prof, ops := profiler.New(cl, seed), g.Ops
	opTime := func(i int) {
		sink += prof.OpTime(&ops[i%len(ops)], 1, 0, 1+i/len(ops), 1, false, g.Precision)
	}
	m["profiler.optime_miss_ns"] = 1e9 * p.perCall("profiler.OpTime/miss", opTime)
	stored := prof.Entries()
	m["profiler.optime_hit_ns"] = 1e9 * p.perCall("profiler.OpTime/hit", func(i int) { opTime(i % stored) })

	pm := perfmodel.New(g, cl, seed)
	sink += pm.Estimate(cfg).IterTime
	m["perfmodel.estimate_warm_ns"] = 1e9 * p.perCall("perfmodel.Estimate/warm", func(int) { sink += pm.Estimate(cfg).IterTime })

	// Batch.Estimate of neighbours that differ from the base in one
	// stage, each on its first evaluation, as the multi-hop search
	// meets them: the other stages are copied from the base estimate.
	m["perfmodel.batch_estimate_ns"] = 1e9 * p.medianOf(func() float64 {
		clones := make([]*config.Config, min(256, len(g.Ops)))
		for i := range clones {
			c := cfg.Clone()
			op := i * len(g.Ops) / len(clones)
			c.MutOp(c.StageOf(op), op, func(o *config.OpSetting) { o.Recompute = !o.Recompute })
			clones[i] = c
		}
		fresh := perfmodel.New(g, cl, seed)
		var batch perfmodel.Batch
		fresh.BeginBatch(&batch, cfg, fresh.Estimate(cfg), nil)
		return p.once("perfmodel.Batch.Estimate", func() {
			for _, c := range clones {
				sink += batch.Estimate(c).IterTime
			}
		}) / float64(len(clones))
	})

	var arena config.Arena
	arena.Put(cfg.Clone())
	m["config.clone_ns"] = 1e9 * p.perCall("config.CloneIn", func(int) { arena.Put(cfg.CloneIn(&arena)) })
	c := cfg.Clone()
	m["config.hash_stage_ns"] = 1e9 * p.perCall("config.InvalidateStage+Hash", func(i int) {
		c.InvalidateStage(i % c.NumStages())
		sink += float64(c.Hash() & 1)
	})
	m["config.hash_full_ns"] = 1e9 * p.perCall("config.Invalidate+Hash", func(int) {
		c.Invalidate()
		sink += float64(c.Hash() & 1)
	})
}

// ---------------------------------------------------------------------------
// search-deep, search-scale
// ---------------------------------------------------------------------------

// registryValues flattens a metrics registry into series → value.
func registryValues(reg *obs.Registry) (map[string]float64, error) {
	raw, err := json.Marshal(reg)
	if err != nil {
		return nil, err
	}
	var out map[string]float64
	return out, json.Unmarshal(raw, &out)
}

// searchCounts reads the search counters of vals, a registry's or a
// /metrics scrape's series, as means over n searches.
func searchCounts(vals map[string]float64, n float64, m map[string]float64) {
	applied := 0.0
	for series, v := range vals {
		if strings.HasPrefix(series, obs.PrimitiveAppliedTotal) {
			applied += v
		}
	}
	m["core.dedup_hits"] = vals[obs.DedupHitsTotal] / n
	m["core.primitives_applied"] = applied / n
	m["core.multihop_depth_mean"] = vals[obs.MultiHopDepth+"_sum"] / max(1, vals[obs.MultiHopDepth+"_count"])
}

func (s *searchInst) ledger(l *ledger) error {
	if s.res == nil {
		return errors.New("no traced search ran")
	}
	m := l.m
	m["core.search_s"] = median(spanTimes(l.ops, "core.SearchContext", false))
	m["perfmodel.new_s"] = median(spanTimes(l.ops, "perfmodel.New", false))
	m["config.initial_s"] = median(perOp(l.ops, "config.Balanced", add))
	m["perfmodel.estimate_cold_s"] = median(perOp(l.ops, "perfmodel.Estimate/first", add))
	// The search runs its tasks side by side, so the slowest one is a
	// floor under the whole search.
	m["core.stagecount_slowest_s"] = median(perOp(l.ops, taskSpan, math.Max))
	m["core.stagecount_sum_s"] = median(perOp(l.ops, taskSpan, add))
	m["core.critical_share"] = m["core.stagecount_slowest_s"] / m["core.search_s"]
	deepest := 0
	for _, sp := range l.ops {
		if depth, ok := strings.CutPrefix(sp.Name, taskSpan); ok {
			if _, seen := l.diag["core.stagecount_s."+depth]; !seen {
				l.diag["core.stagecount_s."+depth] = median(spanTimes(l.ops, sp.Name, false))
				d, _ := strconv.Atoi(depth)
				deepest = max(deepest, d)
			}
		}
	}
	l.diag["core.iteration_s_p50"] = median(spanTimes(l.ops, "core.iteration", false))

	vals, err := registryValues(s.reg)
	if err != nil {
		return err
	}
	searchCounts(vals, 1, m)
	hits, misses := s.pm.StageCacheStats()
	m["core.explored"] = float64(s.res.Explored)
	m["core.iterations"] = float64(s.res.Iterations)
	m["core.explored_per_s"] = m["core.explored"] / m["core.search_s"]
	m["profiler.entries"] = float64(s.pm.Prof.Entries())
	m["perfmodel.stage_cache_hit_ratio"] = float64(hits) / float64(max(1, hits+misses))

	// Unit costs on the start of the deepest task, the slowest one.
	cfg, err := config.Balanced(s.b.g, s.b.target.TotalDevices(), deepest, 1)
	if err != nil {
		return fmt.Errorf("start of the deepest task: %w", err)
	}
	l.p.searchPath(s.b, cfg, m)
	return nil
}

// ---------------------------------------------------------------------------
// serve-hit, serve-miss
// ---------------------------------------------------------------------------

// scrape reads the server's /metrics once.
func (s *server) scrape() (map[string]float64, error) {
	resp, err := http.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}

// serverCounters reads what the server counted — one /metrics scrape
// and the cache's own statistics — and holds the scrape against the
// generator's tallies. It returns the scrape.
func serverCounters(s *serveInst, m map[string]float64) (map[string]float64, error) {
	vals, err := s.scrape()
	if err != nil {
		return nil, err
	}
	m["planserver.requests_200"] = vals[obs.ServeRequestsTotal+`{code="200"}`]
	m["planserver.cache_hits_exact"] = vals[obs.ServeCacheHitsTotal+`{kind="exact"}`]
	m["planserver.cache_hits_warm"] = vals[obs.ServeCacheHitsTotal+`{kind="warm"}`]
	m["planserver.cache_misses"] = vals[obs.ServeCacheMissesTotal]
	m["planserver.shed"] = vals[obs.ServeShedTotal]
	st := s.srv.Cache().Stats()
	m["plancache.hit_ratio"] = float64(st.Hits) / float64(max(1, st.Hits+st.Misses))
	m["plancache.warm_ratio"] = float64(st.WarmHits) / float64(max(1, st.Misses))
	m["plancache.evictions"] = float64(st.Evictions)
	t := &s.tally
	for _, c := range []struct {
		name       string
		got, tally int64
	}{
		{"planserver.requests_200", int64(m["planserver.requests_200"]), t.ok},
		{"planserver.cache_hits_exact", int64(m["planserver.cache_hits_exact"]), t.hit},
		{"planserver.cache_hits_warm", int64(m["planserver.cache_hits_warm"]), t.warm},
		{"planserver.cache_misses", int64(m["planserver.cache_misses"]), t.warm + t.miss},
		{"planserver.shed", int64(m["planserver.shed"]), 0},
	} {
		if c.got != c.tally {
			return nil, fmt.Errorf("%s is %d on /metrics, the generator counted %d", c.name, c.got, c.tally)
		}
	}
	return vals, nil
}

// kindCheck prints serve-miss's kinds in order of median cost with the
// percentile at which each hands over to the next. If a boundary
// between two kinds of clearly different cost sat near the median or
// the 95th percentile, the reported quantile would sit in the gap
// between two modes and jump with a handful of samples.
func kindCheck(spans []span, diag map[string]float64) {
	type kindCost struct {
		kind string
		p50  float64
		n    int
	}
	var kinds []kindCost
	total := 0
	for k, kind := range missKinds {
		var d []float64
		for _, s := range spans {
			if s.Name == "bench.RoundTrip" && s.Op%len(missKinds) == k {
				d = append(d, s.EndS-s.StartS)
			}
		}
		diag["planserver.miss_s_p50."+kind] = median(d)
		kinds = append(kinds, kindCost{kind, median(d), len(d)})
		total += len(d)
	}
	if total == 0 {
		return
	}
	sort.Slice(kinds, func(a, b int) bool { return kinds[a].p50 < kinds[b].p50 })
	fmt.Printf("  miss kinds by traced median cost (a boundary inside 40-60 %% or 92-98 %% matters only across a cost gap):\n")
	cum := 0
	for i, k := range kinds {
		cum += k.n
		line := fmt.Sprintf("    %-7s p50 %.4f s  n %d", k.kind, k.p50, k.n)
		if i+1 < len(kinds) {
			at := float64(cum) / float64(total)
			inBand := (at >= 0.40 && at <= 0.60) || (at >= 0.92 && at <= 0.98)
			line += fmt.Sprintf("  | boundary at %.0f %%, next kind costs %+.0f %%, in band: %v",
				100*at, 100*(kinds[i+1].p50/k.p50-1), inBand)
		}
		fmt.Println(line)
	}
}

// replay runs the search step of a miss for each request, in order and
// the way planserver's runSearch does it: the most recent plan for the
// same model and options is the donor of the next, through Replan when
// the request has faults and through WarmOptions when it has none, each
// on a performance model of its own. It returns the first request and
// the plan found for it.
func (p *prober) replay(refs []planserver.PlanRequest, m map[string]float64) (*built, *config.Config, error) {
	ctx := context.Background()
	donors := make(map[string]*config.Config)
	reg := obs.NewRegistry()
	var first *built
	var firstPlan *config.Config
	var all, warm, news, entries []float64
	var hits, misses uint64
	explored := 0
	for i := range refs {
		b, err := build(refs[i])
		if err != nil {
			return nil, nil, err
		}
		family := fmt.Sprintf("%+v %+v", refs[i].Model, refs[i].Options)
		donor := donors[family]
		opts := b.opts
		opts.Metrics = reg
		news = append(news, p.once("perfmodel.New", func() { opts.Model = perfmodel.New(b.g, b.target, opts.Seed) }))
		var res *core.Result
		d := p.once("core.Replan", func() {
			if b.faults != nil {
				res, err = core.Replan(ctx, b.g, b.healthy, *b.faults, donor, opts)
			} else {
				res, err = core.SearchContext(ctx, b.g, b.target, core.WarmOptions(b.g, donor, b.target.TotalDevices(), opts))
			}
		})
		if fail := checkResult(b, res, err); fail != "" {
			return nil, nil, fmt.Errorf("replay of probe request %d: %s", i, fail)
		}
		donors[family] = res.Best.Config
		if i == 0 {
			first, firstPlan = b, res.Best.Config
		}
		all = append(all, d)
		if donor != nil {
			warm = append(warm, d)
		}
		h, ms := opts.Model.StageCacheStats()
		hits, misses = hits+h, misses+ms
		entries = append(entries, float64(opts.Model.Prof.Entries()))
		explored += res.Explored
	}
	m["perfmodel.new_s"] = median(news)
	m["core.search_s"] = median(all)
	m["core.replan_s"] = median(warm)
	m["core.explored_per_s"] = float64(explored) / sum(all)
	m["profiler.entries"] = median(entries)
	m["perfmodel.stage_cache_hit_ratio"] = float64(hits) / float64(max(1, hits+misses))
	return first, firstPlan, nil
}

func (s *serveInst) ledger(l *ledger) error {
	m := l.m
	vals, err := serverCounters(s, m)
	if err != nil {
		return err
	}
	// The handler's own time is its span less its writes to the
	// connection. Hits are the ops themselves in hit mode and the
	// end-of-run re-requests in miss mode; misses are set-up's planning
	// requests and the ops themselves.
	hits, misses, refs, plans := l.ops, l.setup, s.reqs, s.want
	if s.order == nil {
		hits, misses, refs, plans = l.after, l.ops, nil, nil
		// The probes take the last requests answered and the plans the
		// server returned for them, a spot request first: classes, hazard
		// and the risk objective.
		for _, a := range s.latest(len(s.recent)) {
			refs, plans = append(refs, s.reqs[a.i]), append(plans, a.plan)
		}
		if len(refs) == 0 {
			return errors.New("no measured miss to probe")
		}
		for i := range refs {
			if len(refs[i].Cluster.Classes) > 0 {
				refs[0], refs[i] = refs[i], refs[0]
				plans[0], plans[i] = plans[i], plans[0]
				break
			}
		}
	}
	if l.quick {
		refs = refs[:min(len(refs), 4)]
	}
	m["planserver.handler_hit_s"] = median(spanTimes(hits, "planserver.Handler", true))
	m["planserver.handler_miss_s"] = median(spanTimes(misses, "planserver.Handler", true))
	m["planserver.http_share"] = 1 - median(spanTimes(l.ops, "planserver.Handler", true))/median(spanTimes(l.ops, "bench.RoundTrip", false))
	m["planserver.response_bytes"] = median(s.sizes)
	l.p.cache(m)
	if s.order != nil {
		return l.p.requestPath(refs, plans, m)
	}

	kindCheck(l.ops, l.diag)
	if err := l.p.requestPath(refs, plans, m); err != nil {
		return err
	}
	b, cfg, err := l.p.replay(refs, m)
	if err != nil {
		return err
	}
	l.p.searchPath(b, cfg, m)
	m["planserver.search_share"] = m["core.search_s"] / m["planserver.handler_miss_s"]
	// What the measured searches did, from the plans they returned and
	// the server's own registry.
	searches := vals[obs.ServeCacheMissesTotal]
	searchCounts(vals, max(1, searches), m)
	m["core.explored"] = sum(s.explored) / float64(max(1, len(s.explored)))
	m["core.iterations"] = sum(s.iterations) / float64(max(1, len(s.iterations)))
	return nil
}

// ---------------------------------------------------------------------------
// the traced run
// ---------------------------------------------------------------------------

// alternateSlices runs the workload in rounds of one untraced and one
// traced slice, seconds/12 each, so that a drift of the machine's speed
// during the run is not read as tracing overhead.
func alternateSlices(inst instance, seconds float64, tr *tracer) (untraced, traced *phase, err error) {
	sv, _ := inst.(*serveInst)
	untraced, traced = &phase{}, &phase{}
	for round := 0; round < 4; round++ {
		for _, into := range []*phase{untraced, traced} {
			var with *tracer
			if into == traced {
				with = tr
			}
			if sv != nil {
				sv.tr.Store(with)
			}
			ph, err := runPhase(inst, phaseLength(seconds/12), with)
			if sv != nil {
				sv.tr.Store(nil)
			}
			if err != nil {
				return nil, nil, err
			}
			into.samples = append(into.samples, ph.samples...)
			into.reasons = append(into.reasons, ph.reasons...)
		}
	}
	return untraced, traced, nil
}

// runTraced is one per-layer run. It sets the workload up once, runs it
// in alternating slices, checks it, and lets the instance fill in the
// ledger.
func runTraced(w *workload, e env) (*result, error) {
	tr := newTracer()
	inst, err := setUp(w, e, tr)
	if err != nil {
		return nil, err
	}
	mark1 := tr.mark()
	untraced, traced, err := alternateSlices(inst, e.seconds, tr)
	if err != nil {
		return nil, err
	}
	mark2 := tr.mark()
	samples := append(untraced.samples, traced.samples...)
	failed := countFailed(w.name, samples, append(untraced.reasons, traced.reasons...))
	iterTimes, checkErr := inst.finish(tr)
	mark3 := tr.mark()

	p := &prober{tr: tr, reps: 5, slice: 20 * time.Millisecond}
	if e.quick {
		p.reps, p.slice = 1, time.Millisecond
	}
	spans := tr.finish()
	l := &ledger{
		m: make(map[string]float64), diag: make(map[string]float64),
		setup: opened(spans, 0, mark1), ops: opened(spans, mark1, mark2), after: opened(spans, mark2, mark3),
		p: p, quick: e.quick,
	}
	m := l.m
	m["bench.traced_op_s_p50"] = median(durations(traced.samples))
	m["bench.trace_overhead_share"] = m["bench.traced_op_s_p50"]/median(durations(untraced.samples)) - 1
	m["bench.unattributed_share"] = unattributed(l.ops)
	m["core.best_iter_s"] = geomean(iterTimes)
	l.diag["bench.untraced_op_s_p50"] = median(durations(untraced.samples))
	l.diag["bench.traced_op_s_p95"] = quantile(durations(traced.samples), 0.95)
	for name, v := range selfByName(l.ops) {
		l.diag["self_s."+name] = v
	}

	p.root = tr.begin("bench.probes", 0, -1)
	if checkErr == nil {
		checkErr = inst.ledger(l)
	}
	tr.end(p.root, 1)
	if err := inst.close(); err != nil {
		return nil, err
	}

	spans = tr.finish()
	if err := checkNesting(spans); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	path, err := writeTrace(e.out, &traceFile{Workload: w.name, Seed: e.seed, Diagnostics: l.diag, Spans: spans})
	if err != nil {
		return nil, err
	}

	res := &result{
		Correct:   checkErr == nil && failed == 0 && len(samples) > 0,
		Attempted: len(samples),
		Failed:    failed,
		Metrics:   make(map[string]metric),
	}
	if checkErr != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: end-of-run check: %v\n", w.name, checkErr)
	}
	fmt.Printf("%s  seed %d  traced  %d ops (%d failed), %d spans → %s  GOMAXPROCS %d\n",
		w.name, e.seed, len(samples), failed, len(spans), path, runtime.GOMAXPROCS(0))
	for _, d := range perLayer {
		res.Metrics[d.name] = metric{m[d.name], d.unit}
		fmt.Printf("  %-34s %14.6g %s\n", d.name, m[d.name], d.unit)
	}
	names := make([]string, 0, len(l.diag))
	for k := range l.diag {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  (diagnostic) %-32s %12.6g\n", k, l.diag[k])
	}
	return res, nil
}
