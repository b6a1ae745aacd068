// Package perfmodel implements Aceso's performance model (§3.3): given
// a parallel configuration it predicts per-stage computation time,
// communication time and memory consumption, and composes them into a
// full-iteration time under 1F1B pipeline scheduling.
//
// Memory follows Eq. 1:
//
//	Memory_i = M_param_i + M_act_i · (p − i) + M_opt_i  (+ extra)
//
// where the extra term deliberately over-estimates framework/allocator
// overhead as the largest per-operator working set in the stage
// ("safety first": an over-estimate can cost throughput, an
// under-estimate crashes training).
//
// Iteration time follows Eq. 2: per stage,
//
//	T_stage_i = T_warmup_i + T_steady_i + T_cooldown_i
//
// with warm-up the forward of one microbatch through stages 0..i,
// cool-down the corresponding backward, and steady state (N−1)
// back-to-back microbatches; the pipeline finishes with the slowest
// stage.
package perfmodel

import (
	"fmt"
	"math"
	"sync/atomic"

	"aceso/internal/collective"
	"aceso/internal/config"
	"aceso/internal/hardware"
	"aceso/internal/memo"
	"aceso/internal/model"
	"aceso/internal/profiler"
)

// Optimizer state bytes per parameter beyond the weights themselves.
// FP16 training keeps fp16 gradients plus fp32 master weights and Adam
// moments (2+4+4+4); FP32 keeps fp32 gradients and moments (4+4+4).
const (
	optBytesPerParamFP16 = 14
	optBytesPerParamFP32 = 12
)

// actStashFactor scales per-op saved activations: besides its output,
// an operator's backward needs its inputs, masks and intermediate
// tensors (Megatron-LM stashes ≈34·s·h bytes per transformer layer
// versus ≈12·s·h of op outputs). Attention/working buffers (WorkElems)
// are counted once, unscaled.
const actStashFactor = 2.5

// StageMetrics is the predicted resource consumption of one pipeline
// stage, per device (stages are internally symmetric; §3.1).
type StageMetrics struct {
	// Per-microbatch times (seconds).
	FwdTime float64 // forward compute + collectives + boundary recv
	BwdTime float64 // backward compute + collectives + recompute + boundary send
	TPComm  float64 // tensor-parallel collective share of Fwd+Bwd
	P2P     float64 // stage-boundary share of Fwd+Bwd
	Recomp  float64 // recomputation share of Bwd
	// ReshardComm is the data-parallel resample traffic share of
	// Fwd+Bwd: when a stage changes its dp degree mid-stage, samples
	// redistribute across the whole stage group. It is data-parallel
	// reshard traffic, not a tensor-parallel collective, so it gets its
	// own bucket (booking it into TPComm would distort the
	// Heuristic-2 resource proportions).
	ReshardComm float64

	// Per-iteration times.
	DPSync    float64 // gradient all-reduce across data-parallel groups
	StageTime float64 // Eq. 2 total for this stage

	// Memory (bytes per device).
	ParamMem float64
	OptMem   float64
	ActPerMB float64 // activation stash per in-flight microbatch
	ExtraMem float64 // allocator over-estimate (max op working set)
	PeakMem  float64 // Eq. 1 total

	// CapMem is the usable memory of the stage's most constrained
	// device (equal to Cluster.MemoryBytes on a healthy cluster; less
	// when a fault spec derates a device in the stage's range). Filled
	// by Estimate, not cached with the stage metrics.
	CapMem float64

	// Devices is the stage's device count, copied from the evaluated
	// stage so an Estimate knows how many devices its configuration
	// actually spans (configurations from shrink/projection paths may
	// span less than the full cluster).
	Devices int
}

// CompTime returns the pure-compute share of one microbatch.
func (s *StageMetrics) CompTime() float64 {
	return s.FwdTime + s.BwdTime - s.TPComm - s.P2P - s.Recomp - s.ReshardComm
}

// CommTime returns the communication share of one microbatch,
// including the per-microbatch amortization of the gradient sync.
func (s *StageMetrics) CommTime(microbatches int) float64 {
	t := s.TPComm + s.P2P + s.ReshardComm
	if microbatches > 0 {
		t += s.DPSync / float64(microbatches)
	}
	return t
}

// Estimate is the performance model's verdict on one configuration.
type Estimate struct {
	Stages   []StageMetrics
	IterTime float64 // seconds per training iteration
	PeakMem  float64 // max over stages, bytes per device
	Feasible bool    // every stage fits in device memory
	OOMStage int     // index of worst over-memory stage, -1 if feasible

	Microbatches int
	// Devices is the summed device count of the evaluated stages — the
	// devices the configuration actually spans, which may be less than
	// the cluster total (elastic shrink/projection paths).
	Devices int
}

// Throughput returns samples/second (0 for infeasible configs).
func (e *Estimate) Throughput(globalBatch int) float64 {
	if !e.Feasible || e.IterTime <= 0 {
		return 0
	}
	return float64(globalBatch) / e.IterTime
}

// stageKey identifies one memoized stage evaluation: the stage's
// semantic sub-hash plus every evalStage input that is not part of the
// stage itself. Two evaluations with equal keys are identical — the
// profiler is deterministic — so the cache never changes results, only
// skips recomputation.
type stageKey struct {
	sub         uint64
	microBatch  int
	firstDev    int
	inflight    int
	prevDevices int
}

// Hash implements memo.Key. sub is already a hash of the stage; the
// pipeline-context fields are small integers, spread over one word.
func (k stageKey) Hash() uint64 {
	return memo.Mix(k.sub, uint64(k.microBatch)^uint64(k.firstDev)<<16^
		uint64(k.inflight)<<32^uint64(k.prevDevices)<<48)
}

// stageCacheCap bounds the stage-metrics memo. Entries are ~150 bytes;
// the cap keeps a long search under ~40 MB of cache. Values are pure
// functions of the key, so the occasional wholesale reset on overflow
// is invisible to results.
const stageCacheCap = 1 << 18

// Model evaluates configurations for one (graph, cluster) pair. It is
// safe for concurrent use: the per-stage metrics memo below is shared
// by core.Search's per-pipeline-depth worker goroutines, so identical
// stages reached by different workers are evaluated once.
type Model struct {
	Graph   *model.Graph
	Cluster hardware.Cluster
	Prof    *profiler.Profiler

	// DisableStageCache forces every Estimate to recompute all stages
	// from scratch — the reference path for equivalence tests.
	DisableStageCache bool

	scache memo.SnapMap[stageKey, StageMetrics]

	// Cache effectiveness counters, exposed through StageCacheStats for
	// the observability layer (internal/obs). Always on: two atomic
	// adds are noise next to the map+lock they instrument.
	scHits   atomic.Uint64
	scMisses atomic.Uint64

	id    atomic.Uint64 // see ident
	terms atomic.Int32  // 0 unchecked, 1 sound, 2 not: see termsSound
}

// models numbers Models on first use (Model.ident).
var models atomic.Uint64

// ident returns m's number, assigned on first use. Operator records
// name their model by it rather than by pointer, so that a pooled arena
// keeps no finished search's model, stage cache or database reachable.
func (m *Model) ident() uint64 {
	if id := m.id.Load(); id != 0 {
		return id
	}
	m.id.CompareAndSwap(0, models.Add(1))
	return m.id.Load()
}

// New builds a performance model backed by a profiler database.
func New(g *model.Graph, c hardware.Cluster, seed int64) *Model {
	return &Model{
		Graph:   g,
		Cluster: c,
		Prof:    profiler.New(c, seed),
	}
}

// StageCacheStats returns the cumulative stage-cache hit and miss
// counts over the model's lifetime (both zero while DisableStageCache
// bypasses the cache).
func (m *Model) StageCacheStats() (hits, misses uint64) {
	return m.scHits.Load(), m.scMisses.Load()
}

// stageMetrics fills sm with the metrics of st under key, its pipeline
// context, consulting the shared memo. An Estimate of a
// Clone-plus-one-mutation neighbor therefore recomputes only the
// mutated stage; every other stage is a lookup. A miss is evaluated
// with a's operator records (nil prices every operator).
func (m *Model) stageMetrics(sm *StageMetrics, st *config.Stage, key stageKey, a *EstArena) {
	if m.DisableStageCache {
		*sm = m.evalStage(st, key, nil)
	} else if m.scache.Load(key, sm) {
		m.scHits.Add(1)
	} else {
		m.scMisses.Add(1)
		*sm = m.evalStage(st, key, a)
		if m.scache.Len() >= stageCacheCap {
			// Values are pure functions of keys, so a wholesale reset on
			// overflow changes no results, only recomputation counts.
			m.scache.Reset()
		}
		m.scache.Store(key, *sm)
	}
}

// optBytes returns optimizer-state bytes per parameter.
func optBytes(p hardware.Precision) float64 {
	if p == hardware.FP32 {
		return optBytesPerParamFP32
	}
	return optBytesPerParamFP16
}

// Estimate predicts the execution of cfg. cfg must be valid for the
// model's graph and cluster.
func (m *Model) Estimate(cfg *config.Config) *Estimate {
	return m.EstimateIn(cfg, nil)
}

// EstimateIn is Estimate with the result carved out of a (a nil arena
// degrades to plain allocation). The search hot path passes its
// per-searcher arena; every other caller goes through Estimate.
func (m *Model) EstimateIn(cfg *config.Config, a *EstArena) *Estimate {
	return m.walk(cfg, a, nil, nil)
}

// walk is the one stage walk behind every estimate. It builds each
// stage's memo key, copies the stage from base when baseKeys holds the
// same key at its index and evaluates it through stageMetrics
// otherwise, folds feasibility, the OOM stage, peak memory and devices,
// and composes Eq. 2. Copying is exact: StageMetrics is a pure function
// of the key, and CapMem one of (firstDev, Devices), which the key
// pins. base is nil outside a Batch; DisableStageCache copies nothing.
func (m *Model) walk(cfg *config.Config, a *EstArena, base *Estimate, baseKeys []stageKey) *Estimate {
	p := cfg.NumStages()
	n := cfg.NumMicrobatches(m.Graph.GlobalBatch)
	if base == nil || m.DisableStageCache || len(baseKeys) != p {
		baseKeys = nil
	}

	est := a.alloc(p)
	est.OOMStage = -1
	// A degenerate configuration whose microbatch (times dp) exceeds the
	// global batch performs zero microbatches — zero work. Historically
	// this returned a finite-IterTime Feasible estimate (all-warm-up, no
	// steady state) that the search could score as a "win" while the
	// simulator rejected the same config outright. Zero work is not a
	// plan; mark it infeasible so no consumer ranks it.
	est.Feasible = n > 0
	est.Microbatches = n

	firstDev, prevDevices := 0, 0
	for si := range cfg.Stages {
		st := &cfg.Stages[si]
		// Eq. 1: earlier stages stash more in-flight microbatches.
		key := stageKey{st.SubHash(), cfg.MicroBatch, firstDev, min(p-si, n), prevDevices}
		sm := &est.Stages[si]
		if baseKeys != nil && key == baseKeys[si] {
			*sm = base.Stages[si]
		} else {
			m.stageMetrics(sm, st, key, a)
			sm.CapMem = m.Cluster.RangeMemory(firstDev, st.Devices)
		}
		firstDev += st.Devices
		prevDevices = st.Devices
		est.Devices += st.Devices
		if sm.PeakMem > sm.CapMem {
			est.Feasible = false
			if est.OOMStage < 0 || sm.PeakMem > est.Stages[est.OOMStage].PeakMem {
				est.OOMStage = si
			}
		}
		if sm.PeakMem > est.PeakMem {
			est.PeakMem = sm.PeakMem
		}
	}

	m.composeIterTime(est, n)
	return est
}

// evalStage predicts one pipeline stage's per-microbatch times and
// memory under the pipeline context of k: the stage's first global
// device rank, the number of stashed microbatches (Eq. 1's p−i) and the
// preceding stage's device count (0 for the first stage). Each operator
// adds its terms through addOps, in operator order. With an arena, an
// operator whose record in a holds the same inputs is not priced again;
// the sums read the same prices in the same order either way.
func (m *Model) evalStage(st *config.Stage, k stageKey, a *EstArena) StageMetrics {
	x := m.pricer(k.firstDev, st.Devices, k.microBatch, a)
	var sm StageMetrics
	x.addOps(&sm, st, st.Start, st.End, stageEntry)
	sm.ActPerMB += m.stash(st, k.microBatch)
	// Stage-boundary transfer from the previous stage.
	if k.prevDevices > 0 {
		in := &m.Graph.Ops[st.Start-1]
		lanes := min(k.prevDevices, st.Devices)
		bytes := in.ActElems * float64(k.microBatch) * x.bpe / float64(lanes)
		pl := collective.PlacementFor(&m.Cluster, k.firstDev-1, 2)
		t := m.Prof.P2P(bytes, k.firstDev-1, pl)
		m.checkTerms(t)
		sm.FwdTime += t
		sm.BwdTime += t
		sm.P2P += 2 * t
	}
	sm.PeakMem = peakMem(&sm, k.inflight)
	sm.Devices = st.Devices
	return sm
}

// peakMem is Eq. 1 over a stage's memory terms.
func peakMem(sm *StageMetrics, inflight int) float64 {
	return sm.ParamMem + sm.OptMem + sm.ActPerMB*float64(inflight) + sm.ExtraMem
}

// pricer is what the operators of one stage evaluation read besides
// themselves: the model, the stage's first device, device count and
// microbatch, the precision and straggler derate, and the arena's
// operator records under the model's number (nil prices every operator).
type pricer struct {
	m                             *Model
	firstDev, devices, microBatch int
	prec                          hardware.Precision
	bpe, derate                   float64
	id                            uint64
	recs                          []opRecord
	fresh                         opRecord // the record of an operator priced without an arena
	// borrow reads the records but prices a mismatch into fresh, so a
	// trial's window leaves the records of its base as they were.
	borrow bool
}

func (m *Model) pricer(firstDev, devices, microBatch int, a *EstArena) pricer {
	prec := m.Graph.Precision
	// Straggler semantics: the stage's SPMD ranks advance in lockstep,
	// so every kernel runs at the pace of the range's slowest device
	// (1 on a healthy cluster).
	x := pricer{m: m, firstDev: firstDev, devices: devices, microBatch: microBatch, prec: prec,
		bpe: prec.BytesPerElem(), derate: m.Cluster.RangeFLOPSScale(firstDev, devices, prec)}
	if a != nil && firstDev+devices <= math.MaxInt32 && microBatch <= math.MaxInt32 {
		if len(a.ops) < len(m.Graph.Ops) {
			a.ops = make([]opRecord, len(m.Graph.Ops))
		}
		x.id, x.recs = m.ident(), a.ops
	}
	return x
}

// opChain is what an operator's terms read of the operator before it in
// its stage: the layout, tp and dp of that operator's output (dp 0 at
// the stage's first operator) and its per-sample output bytes.
type opChain struct {
	layout model.Layout
	tp, dp int
	act    float64
}

// stageEntry is the chain a stage's first operator reads.
var stageEntry = opChain{layout: model.Replicated, tp: 1}

// flow is operator op's control flow under set and incoming chain in:
// its compute shards, whether its input needs an all-gather relayout,
// and the chain its successor reads.
func flow(op *model.Op, set *config.OpSetting, in opChain) (shards int, relayout bool, out opChain) {
	dim := op.Dims[set.Dim]
	shards, out = 1, opChain{dim.Out, set.TP, set.DP, op.ActElems}
	switch dim.Name {
	case model.DimNone.Name:
		out.layout = model.Replicated
		if set.SeqPar && set.TP > 1 {
			// Sequence parallelism splits the replicated region's
			// tokens across the tp group.
			shards = set.TP
		}
	case model.DimPass.Name:
		// Layout-polymorphic: follows the incoming layout.
		if in.layout == model.Split && set.TP == in.tp {
			shards, out.layout = set.TP, model.Split
		} else {
			out.layout = in.layout
		}
	default:
		if set.TP > 1 {
			shards = set.TP
		}
		// Relayout: a Split activation feeding an op that expects
		// Replicated input costs an all-gather.
		relayout = dim.In == model.Replicated && in.layout == model.Split && in.tp > 1
	}
	return shards, relayout, out
}

// addOps adds the terms of st's operators [from, to), entered with
// chain in, to sm in operator order, and returns the chain operator to
// reads. It is the one per-operator body of the model: evalStage and
// Batch.Bound both add through it. Pricing — every lookup an operator
// makes — is read from its record when the record holds the same
// inputs; the terms are then added in the order the lookups were made.
func (x *pricer) addOps(sm *StageMetrics, st *config.Stage, from, to int, in opChain) opChain {
	m, prec, bpe := x.m, x.prec, x.bpe
	for j := from; j < to; j++ {
		set := st.Setting(j)
		op := &m.Graph.Ops[j]
		dim := op.Dims[set.Dim]
		samples := x.microBatch / set.DP
		shards, relayout, out := flow(op, set, in)
		// Changing the dp degree mid-stage redistributes samples across the
		// whole stage group. This is data-parallel reshard traffic, not a
		// tensor-parallel collective.
		reshard := in.dp != 0 && set.DP != in.dp
		// Tensor-parallel collectives (Megatron f/g conjugates):
		// row-parallel all-reduces its output in forward; the paired
		// column-parallel all-reduces gradients in backward.
		tpOut := set.TP > 1 && dim.AllReduceOut
		tpIn := set.TP > 1 && !dim.AllReduceOut && dim.In == model.Replicated && dim.Out == model.Split
		paramBytes := op.Params * bpe / float64(set.TP)
		dpSync := set.DP > 1 && op.Params > 0

		key := opInputs{x.id, int32(x.firstDev), int32(x.devices), int32(x.microBatch), int32(set.TP), int32(set.DP), int32(set.Dim),
			int32(in.tp), int32(in.dp), set.ZeRO, set.SeqPar, in.layout == model.Split}
		r := &x.fresh
		if x.recs != nil && (!x.borrow || x.recs[j].in == key) {
			r = &x.recs[j]
		}
		if r == &x.fresh || r.in != key {
			r.in = key
			if priceHook != nil {
				priceHook()
			}
			firstDev := x.firstDev
			tpPlace := collective.PlacementFor(&m.Cluster, firstDev, set.TP)
			if relayout {
				r.relayout = m.Prof.AllGather(in.act*float64(samples)*bpe, firstDev, in.tp, tpPlace)
			}
			if reshard {
				r.reshard = m.Prof.AllGather(in.act*float64(x.microBatch)*bpe/float64(x.devices), firstDev, x.devices,
					collective.PlacementFor(&m.Cluster, firstDev, x.devices))
			}
			r.fwd = m.Prof.OpTime(op, set.TP, set.Dim, samples, shards, false, prec) / x.derate
			r.bwd = m.Prof.OpTime(op, set.TP, set.Dim, samples, shards, true, prec) / x.derate
			if tpOut || tpIn {
				// Column-parallel all-reduces the input gradient, whose
				// per-sample size is the previous activation.
				elems := op.ActElems
				if tpIn {
					elems = in.act
				}
				r.tp = m.Prof.AllReduce(elems*float64(samples)*bpe, firstDev, set.TP, tpPlace)
			}
			if dpSync {
				dpPlace := collective.PlacementFor(&m.Cluster, firstDev, x.devices)
				r.dp = m.Prof.AllReduce(paramBytes, firstDev, set.DP, dpPlace)
				if set.ZeRO {
					// Each rank updates its optimizer shard; the refreshed
					// parameters all-gather back.
					r.zero = m.Prof.AllGather(paramBytes, firstDev, set.DP, dpPlace)
				}
			}
			m.checkTerms(r.relayout, r.reshard, r.fwd, r.bwd, r.tp, r.dp, r.zero)
		}

		if relayout {
			sm.FwdTime += r.relayout
			sm.BwdTime += r.relayout // mirrored reduce-scatter in backward
			sm.TPComm += 2 * r.relayout
		}
		if reshard {
			sm.FwdTime += r.reshard
			sm.BwdTime += r.reshard
			sm.ReshardComm += 2 * r.reshard
		}
		sm.FwdTime += r.fwd
		sm.BwdTime += r.bwd
		if set.Recompute {
			sm.BwdTime += r.fwd
			sm.Recomp += r.fwd
		}
		if tpOut {
			sm.FwdTime += r.tp
			sm.TPComm += r.tp
			if set.Recompute {
				sm.BwdTime += r.tp
				sm.Recomp += r.tp
			}
		} else if tpIn {
			sm.BwdTime += r.tp
			sm.TPComm += r.tp
		}

		// Memory.
		sm.ParamMem += paramBytes
		opt := op.Params * optBytes(prec) / float64(set.TP)
		if set.ZeRO {
			// ZeRO-1: optimizer states shard across the dp group.
			opt /= float64(set.DP)
		}
		sm.OptMem += opt

		saved, working := stashed(op, set, shards, out.layout, samples, bpe)
		if set.Recompute {
			saved = 0
		}
		sm.ActPerMB += saved
		if working > sm.ExtraMem {
			sm.ExtraMem = working
		}

		// Data-parallel gradient sync (per iteration).
		if dpSync {
			sm.DPSync += r.dp
			if set.ZeRO {
				sm.DPSync += r.zero
			}
		}
		in = out
	}
	return in
}

// stashed returns operator op's activation stash per microbatch as if
// not recomputed, and its working set, under set, shards and layout.
func stashed(op *model.Op, set *config.OpSetting, shards int, layout model.Layout, samples int, bpe float64) (saved, working float64) {
	share := 1.0
	if layout == model.Split {
		share = float64(shards)
	} else if set.SeqPar && set.TP > 1 {
		share = float64(set.TP) // sequence-parallel regions stash 1/tp of the tokens
	}
	return actStashFactor*op.ActElems*float64(samples)*bpe/share + op.WorkElems*float64(samples)*bpe/float64(shards),
		(op.ActElems/share + op.WorkElems/float64(shards)) * float64(samples) * bpe
}

// StashTerms appends to buf[:0] the stash of each operator of stage si
// of cfg as if it were not recomputed, in operator order, then the
// stage's input stash: what RecomputePeak reads. It prices nothing.
func (m *Model) StashTerms(cfg *config.Config, si int, buf []float64) []float64 {
	st, in, terms := &cfg.Stages[si], stageEntry, buf[:0]
	for j := st.Start; j < st.End; j++ {
		set, op := st.Setting(j), &m.Graph.Ops[j]
		shards, _, out := flow(op, set, in)
		saved, _ := stashed(op, set, shards, out.layout, cfg.MicroBatch/set.DP, m.Graph.Precision.BytesPerElem())
		terms, in = append(terms, saved), out
	}
	return append(terms, m.stash(st, cfg.MicroBatch))
}

// RecomputePeak returns stage si's peak memory in a config that differs
// from e's only in st's Recompute flags, given its StashTerms: bit-equal
// to its estimate's, for evalStage sums the same terms in the same order.
func (e *Estimate) RecomputePeak(si int, st *config.Stage, terms []float64) float64 {
	sm := e.Stages[si]
	sm.ActPerMB = 0
	for j, t := range terms {
		if j == len(st.Ops) || !st.Ops[j].Recompute {
			sm.ActPerMB += t
		}
	}
	return peakMem(&sm, min(len(e.Stages)-si, e.Microbatches))
}

// stash returns the stage's input stash: the boundary activation is
// always kept so recomputation can restart from it.
func (m *Model) stash(st *config.Stage, microBatch int) float64 {
	if st.Start == 0 {
		return 0
	}
	return m.Graph.Ops[st.Start-1].ActElems * float64(microBatch/st.Ops[0].DP) * m.Graph.Precision.BytesPerElem()
}

// checkTerms marks the model's terms unsound when a price is negative or
// not finite. Prices are made rarely: records and the stage cache reuse
// them.
func (m *Model) checkTerms(prices ...float64) {
	for _, v := range prices {
		if !(v >= 0 && v <= math.MaxFloat64) {
			m.terms.Store(2)
		}
	}
}

// termsSound reports whether every term the model adds is finite and
// nonnegative, as Batch.Bound's rounding argument needs: its graph
// validates and no price it made was negative or not finite.
func (m *Model) termsSound() bool {
	if m.terms.Load() == 0 {
		v := int32(1)
		if m.Graph.Validate() != nil {
			v = 2
		}
		m.terms.CompareAndSwap(0, v)
	}
	return m.terms.Load() == 1
}

// composeIterTime fills StageTime and IterTime from the per-stage
// metrics under 1F1B scheduling (Eq. 2). The warm-up prefix sums are
// staged through the StageTime fields themselves instead of scratch
// slices, keeping the per-estimate hot path allocation-free; the
// addition order matches the historical two-slice form exactly
// (warm + steady + cool + sync, left-associated), so StageTime is
// bitwise unchanged.
func (m *Model) composeIterTime(est *Estimate, n int) {
	p := len(est.Stages)
	var warm float64
	for i := 0; i < p; i++ {
		warm += est.Stages[i].FwdTime
		est.Stages[i].StageTime = warm
	}
	steadyN := float64(n - 1)
	if steadyN < 0 {
		steadyN = 0
	}
	var cool float64
	for i := p - 1; i >= 0; i-- {
		sm := &est.Stages[i]
		cool += sm.BwdTime
		sm.StageTime = sm.StageTime + steadyN*(sm.FwdTime+sm.BwdTime) + cool + sm.DPSync
		if sm.StageTime > est.IterTime {
			est.IterTime = sm.StageTime
		}
	}
}

// ValidateEstimate rejects estimates containing non-finite or negative
// times or memories — the symptom of poisoned profiler entries or
// hand-constructed graphs/clusters that slipped past input validation.
// The search's comparators silently mis-order on NaN (every comparison
// is false), so a poisoned estimate must fail loudly here instead.
func ValidateEstimate(e *Estimate) error {
	if e == nil {
		return fmt.Errorf("perfmodel: nil estimate")
	}
	bad := func(what string, v float64) error {
		return fmt.Errorf("perfmodel: estimate has non-finite or negative %s (%v)", what, v)
	}
	if math.IsNaN(e.IterTime) || math.IsInf(e.IterTime, 0) || e.IterTime < 0 {
		return bad("IterTime", e.IterTime)
	}
	if math.IsNaN(e.PeakMem) || math.IsInf(e.PeakMem, 0) || e.PeakMem < 0 {
		return bad("PeakMem", e.PeakMem)
	}
	for i := range e.Stages {
		s := &e.Stages[i]
		for _, f := range [...]struct {
			name string
			v    float64
		}{
			{"FwdTime", s.FwdTime}, {"BwdTime", s.BwdTime}, {"StageTime", s.StageTime},
			{"TPComm", s.TPComm}, {"P2P", s.P2P}, {"Recomp", s.Recomp},
			{"ReshardComm", s.ReshardComm},
			{"DPSync", s.DPSync}, {"ParamMem", s.ParamMem}, {"OptMem", s.OptMem},
			{"ActPerMB", s.ActPerMB}, {"ExtraMem", s.ExtraMem}, {"PeakMem", s.PeakMem},
		} {
			if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v < 0 {
				return fmt.Errorf("perfmodel: stage %d has non-finite or negative %s (%v)", i, f.name, f.v)
			}
		}
	}
	return nil
}
