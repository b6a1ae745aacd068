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

// stageMetrics returns the metrics of st under key, its pipeline
// context, consulting the shared memo. An Estimate of a
// Clone-plus-one-mutation neighbor therefore recomputes only the
// mutated stage; every other stage is a lookup.
func (m *Model) stageMetrics(st *config.Stage, key stageKey) StageMetrics {
	if m.DisableStageCache {
		return m.evalStage(st, key)
	}
	if sm, ok := m.scache.Load(key); ok {
		m.scHits.Add(1)
		return sm
	}
	m.scMisses.Add(1)
	sm := m.evalStage(st, key)
	if m.scache.Len() >= stageCacheCap {
		// Values are pure functions of keys, so a wholesale reset on
		// overflow changes no results, only recomputation counts.
		m.scache.Reset()
	}
	m.scache.Store(key, sm)
	return sm
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
			*sm = m.stageMetrics(st, key)
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
// preceding stage's device count (0 for the first stage).
func (m *Model) evalStage(st *config.Stage, k stageKey) StageMetrics {
	microBatch, firstDev, prevDevices := k.microBatch, k.firstDev, k.prevDevices
	g := m.Graph
	prec := g.Precision
	bpe := prec.BytesPerElem()
	// Straggler semantics: the stage's SPMD ranks advance in lockstep,
	// so every kernel runs at the pace of the range's slowest device
	// (1 on a healthy cluster).
	derate := m.Cluster.RangeFLOPSScale(firstDev, st.Devices, prec)
	var sm StageMetrics
	{
		// Layout tracking across the stage for relayout collectives.
		curLayout := model.Replicated
		curTP := 1
		prevDP := 0
		var prevActBytes float64 // per-sample output bytes of previous op

		for j := st.Start; j < st.End; j++ {
			op := &g.Ops[j]
			set := st.Setting(j)
			dim := op.Dims[set.Dim]
			samples := microBatch / set.DP
			tpPlace := collective.PlacementFor(&m.Cluster, firstDev, set.TP)

			// Effective compute sharding.
			shards := 1
			outLayout := dim.Out
			switch dim.Name {
			case model.DimNone.Name:
				shards = 1
				outLayout = model.Replicated
				if set.SeqPar && set.TP > 1 {
					// Sequence parallelism splits the replicated
					// region's tokens across the tp group.
					shards = set.TP
				}
			case model.DimPass.Name:
				// Layout-polymorphic: follows the incoming layout.
				if curLayout == model.Split && set.TP == curTP {
					shards = set.TP
					outLayout = model.Split
				} else {
					shards = 1
					outLayout = curLayout
				}
			default:
				if set.TP > 1 {
					shards = set.TP
				}
				// Relayout: a Split activation feeding an op that
				// expects Replicated input costs an all-gather.
				if dim.In == model.Replicated && curLayout == model.Split && curTP > 1 {
					t := m.Prof.AllGather(prevActBytes*float64(samples)*bpe, firstDev, curTP, tpPlace)
					sm.FwdTime += t
					sm.BwdTime += t // mirrored reduce-scatter in backward
					sm.TPComm += 2 * t
				}
			}
			// Changing the dp degree mid-stage redistributes samples
			// across the whole stage group. This is data-parallel
			// reshard traffic, not a tensor-parallel collective.
			if prevDP != 0 && set.DP != prevDP {
				t := m.Prof.AllGather(prevActBytes*float64(microBatch)*bpe/float64(st.Devices), firstDev, st.Devices,
					collective.PlacementFor(&m.Cluster, firstDev, st.Devices))
				sm.FwdTime += t
				sm.BwdTime += t
				sm.ReshardComm += 2 * t
			}

			fwd := m.Prof.OpTime(op, set.TP, set.Dim, samples, shards, false, prec) / derate
			bwd := m.Prof.OpTime(op, set.TP, set.Dim, samples, shards, true, prec) / derate
			sm.FwdTime += fwd
			sm.BwdTime += bwd
			if set.Recompute {
				sm.BwdTime += fwd
				sm.Recomp += fwd
			}

			// Tensor-parallel collectives (Megatron f/g conjugates):
			// row-parallel all-reduces its output in forward; the
			// paired column-parallel all-reduces gradients in backward.
			if set.TP > 1 {
				arBytes := op.ActElems * float64(samples) * bpe
				switch {
				case dim.AllReduceOut:
					t := m.Prof.AllReduce(arBytes, firstDev, set.TP, tpPlace)
					sm.FwdTime += t
					sm.TPComm += t
					if set.Recompute {
						sm.BwdTime += t
						sm.Recomp += t
					}
				case dim.In == model.Replicated && dim.Out == model.Split:
					// Column-parallel: backward all-reduces the input
					// gradient (per-sample size = previous activation).
					t := m.Prof.AllReduce(prevActBytes*float64(samples)*bpe, firstDev, set.TP, tpPlace)
					sm.BwdTime += t
					sm.TPComm += t
				}
			}

			// Memory.
			paramBytes := op.Params * bpe / float64(set.TP)
			sm.ParamMem += paramBytes
			opt := op.Params * optBytes(prec) / float64(set.TP)
			if set.ZeRO {
				// ZeRO-1: optimizer states shard across the dp group.
				opt /= float64(set.DP)
			}
			sm.OptMem += opt

			actShare := 1.0
			if outLayout == model.Split {
				actShare = float64(shards)
			} else if set.SeqPar && set.TP > 1 {
				// Sequence-parallel regions stash 1/tp of the tokens.
				actShare = float64(set.TP)
			}
			saved := actStashFactor*op.ActElems*float64(samples)*bpe/actShare +
				op.WorkElems*float64(samples)*bpe/float64(shards)
			if set.Recompute {
				saved = 0
			}
			sm.ActPerMB += saved
			working := (op.ActElems/actShare + op.WorkElems/float64(shards)) * float64(samples) * bpe
			if working > sm.ExtraMem {
				sm.ExtraMem = working
			}

			// Data-parallel gradient sync (per iteration).
			if set.DP > 1 && op.Params > 0 {
				dpPlace := collective.PlacementFor(&m.Cluster, firstDev, st.Devices)
				sm.DPSync += m.Prof.AllReduce(paramBytes, firstDev, set.DP, dpPlace)
				if set.ZeRO {
					// Each rank updates its optimizer shard; the
					// refreshed parameters all-gather back.
					sm.DPSync += m.Prof.AllGather(paramBytes, firstDev, set.DP, dpPlace)
				}
			}

			curLayout = outLayout
			curTP = set.TP
			prevActBytes = op.ActElems
			prevDP = set.DP
		}

		// Stage input stash: the boundary activation is always kept so
		// recomputation can restart from it.
		if st.Start > 0 {
			in := &g.Ops[st.Start-1]
			firstSet := st.Setting(st.Start)
			sm.ActPerMB += in.ActElems * float64(microBatch/firstSet.DP) * bpe
		}

		// Stage-boundary transfer from the previous stage.
		if prevDevices > 0 {
			in := &g.Ops[st.Start-1]
			lanes := prevDevices
			if st.Devices < lanes {
				lanes = st.Devices
			}
			bytes := in.ActElems * float64(microBatch) * bpe / float64(lanes)
			pl := collective.PlacementFor(&m.Cluster, firstDev-1, 2)
			t := m.Prof.P2P(bytes, firstDev-1, pl)
			sm.FwdTime += t
			sm.BwdTime += t
			sm.P2P += 2 * t
		}
	}

	sm.PeakMem = sm.ParamMem + sm.OptMem + sm.ActPerMB*float64(k.inflight) + sm.ExtraMem
	sm.Devices = st.Devices
	return sm
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
