// Package pipesim is the execution substrate of this reproduction: a
// discrete-event simulator of the 1F1B pipeline schedule that plays
// the role of the paper's Megatron-LM runtime on real GPUs.
//
// Where the performance model (internal/perfmodel) composes closed-form
// expressions (Eq. 1–2), the simulator actually *schedules* every
// forward and backward task of every microbatch on every stage,
// honoring cross-stage data dependencies and per-stage serialization,
// and it layers deterministic second-order effects the analytic model
// ignores — per-stage execution skew (kernel-level behaviour the
// profiled averages miss), per-task framework overhead, and a caching
// allocator whose retained blocks differ from the model's conservative
// over-estimate. The gap between prediction and simulation is what
// Exp#8/#9 measure; without an independent substrate those experiments
// would be circular (DESIGN.md §2).
//
// The second-order effects are parameterized by an Effects struct:
// DefaultEffects is the realistic runtime, ModelFaithful zeroes every
// deviation so the simulator realizes exactly the model's assumptions.
// The model-faithful mode is what internal/diffcheck cross-checks
// Eq. 1–2 against: with effects off, any model/simulator divergence is
// a bug on one of the two sides, not a modeling gap (DESIGN.md §5e).
package pipesim

import (
	"fmt"
	"hash/fnv"

	"aceso/internal/config"
	"aceso/internal/perfmodel"
)

const (
	// taskOverhead is the per-task host-side cost (scheduler, Python
	// dispatch, NCCL enqueue) the analytic model does not see.
	taskOverhead = 60e-6
	// skewAmp is the amplitude of per-stage execution skew: real
	// kernels deviate from profiled averages by a few percent, biased
	// slightly slow (cache effects, clock throttling).
	skewAmp  = 0.05
	skewBias = 0.015
	// memSkewAmp/memSkewBias drive the *memory* perturbation (padding,
	// stream-ordered frees). Memory has its own keyed skew stream and
	// its own, smaller bias: allocator jitter is not kernel-time jitter,
	// and the historical bug of reusing the time stream (offset by
	// +1000) both applied the time-oriented bias to memory and collided
	// with compute-skew indices for deep pipelines.
	memSkewAmp  = 0.02
	memSkewBias = 0.005
	// allocRetain is the fraction of the model's worst-case allocator
	// reserve that a caching allocator actually holds on to. The model
	// intentionally over-estimates (§3.3); the simulator realizes less.
	allocRetain = 0.45
	// actSlack is the fraction of predicted per-microbatch activation
	// the runtime actually stashes (some buffers are reused in place).
	actSlack = 0.93
)

// Effects parameterizes every second-order deviation the simulator
// layers on top of the analytic model. The zero value is meaningless;
// construct with DefaultEffects (the realistic runtime) or
// ModelFaithful (all deviations off — the diffcheck oracle mode).
type Effects struct {
	// TaskOverhead is the per-task host-side cost added to every
	// forward and backward task (seconds).
	TaskOverhead float64
	// SkewAmp/SkewBias shape the multiplicative execution-time skew:
	// each (stage, direction) draws a deterministic multiplier
	// 1 + SkewBias + SkewAmp·(u − 0.5) with u uniform in [0, 1).
	SkewAmp  float64
	SkewBias float64
	// MemSkewAmp/MemSkewBias shape the multiplicative memory
	// perturbation, drawn from a dedicated "mem"-keyed stream.
	MemSkewAmp  float64
	MemSkewBias float64
	// AllocRetain scales the model's allocator over-estimate
	// (StageMetrics.ExtraMem); 1 realizes the model's assumption.
	AllocRetain float64
	// ActSlack scales the per-microbatch activation stash
	// (StageMetrics.ActPerMB); 1 realizes the model's assumption.
	ActSlack float64
}

// DefaultEffects returns the realistic runtime: overhead, skew and an
// allocator that retains less than the model's conservative reserve.
func DefaultEffects() Effects {
	return Effects{
		TaskOverhead: taskOverhead,
		SkewAmp:      skewAmp,
		SkewBias:     skewBias,
		MemSkewAmp:   memSkewAmp,
		MemSkewBias:  memSkewBias,
		AllocRetain:  allocRetain,
		ActSlack:     actSlack,
	}
}

// ModelFaithful returns the effects knob that makes the simulator
// realize exactly the performance model's assumptions: no overhead, no
// skew, the full activation stash and the full allocator reserve. In
// this mode the simulated per-stage peak memory equals Eq. 1
// term-for-term and the makespan differs from Eq. 2 only by genuine
// scheduling structure (see internal/diffcheck's signed band).
func ModelFaithful() Effects {
	return Effects{AllocRetain: 1, ActSlack: 1}
}

// validate rejects knobs outside their meaningful ranges.
func (fx Effects) validate() error {
	switch {
	case fx.TaskOverhead < 0:
		return fmt.Errorf("pipesim: TaskOverhead %v < 0", fx.TaskOverhead)
	case fx.SkewAmp < 0 || fx.MemSkewAmp < 0:
		return fmt.Errorf("pipesim: negative skew amplitude")
	case fx.AllocRetain < 0 || fx.AllocRetain > 1:
		return fmt.Errorf("pipesim: AllocRetain %v outside [0, 1]", fx.AllocRetain)
	case fx.ActSlack < 0 || fx.ActSlack > 1:
		return fmt.Errorf("pipesim: ActSlack %v outside [0, 1]", fx.ActSlack)
	}
	return nil
}

// Schedule selects the pipeline execution order.
type Schedule int

const (
	// OneFOneB is 1F1B (PipeDream-flush): stage i keeps at most p−i
	// microbatches in flight — the premise of the paper's Eq. 1.
	OneFOneB Schedule = iota
	// GPipe runs all forwards, then all backwards: identical compute,
	// but every stage stashes all N microbatches. Used by the ablation
	// benches to show why the memory model assumes 1F1B.
	GPipe
)

// Result is the outcome of simulating one training iteration.
type Result struct {
	IterTime float64 // makespan of the iteration (seconds)
	PeakMem  float64 // worst per-device memory across stages (bytes)
	OOM      bool    // true when some stage exceeded device memory

	StageTime    []float64 // per-stage busy-until time
	StagePeakMem []float64 // per-stage simulated peak memory
	PeakInflight []int     // per-stage max concurrently stashed microbatches
	StageBusy    []float64 // per-stage busy fraction of the makespan
	StageOOM     []bool    // per-stage memory verdict against CapMem
}

// BubbleFraction returns the mean pipeline idleness: 1 − average
// stage busy fraction.
func (r *Result) BubbleFraction() float64 {
	if len(r.StageBusy) == 0 {
		return 0
	}
	var sum float64
	for _, b := range r.StageBusy {
		sum += b
	}
	return 1 - sum/float64(len(r.StageBusy))
}

// timeSkew returns the deterministic execution-skew multiplier for one
// stage of one configuration. The stream keying (seed|stage|direction|
// config hash) predates the Effects struct and is kept byte-compatible
// so fixed-seed simulations reproduce across versions.
func (fx Effects) timeSkew(seed int64, cfg *config.Config, stage int, backward bool) float64 {
	if fx.SkewAmp == 0 && fx.SkewBias == 0 {
		return 1
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%v|%d", seed, stage, backward, cfg.Hash())
	u := float64(h.Sum64()%(1<<20)) / float64(1<<20)
	return 1 + fx.SkewBias + fx.SkewAmp*(u-0.5)
}

// memSkew returns the deterministic memory-perturbation multiplier for
// one stage. Memory draws from its own "mem"-keyed stream: the
// historical implementation reused the time stream at index stage+1000,
// which collided with compute-skew indices for deep pipelines and
// applied the time-oriented bias to memory.
func (fx Effects) memSkew(seed int64, cfg *config.Config, stage int) float64 {
	if fx.MemSkewAmp == 0 && fx.MemSkewBias == 0 {
		return 1
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "mem|%d|%d|%d", seed, stage, cfg.Hash())
	u := float64(h.Sum64()%(1<<20)) / float64(1<<20)
	return 1 + fx.MemSkewBias + fx.MemSkewAmp*(u-0.5)
}

// ExpectedStageMem composes the memory the simulator charges one stage:
// Eq. 1's terms with the effects knobs applied, times the stage's
// deterministic memory-skew multiplier. Exported so the differential
// harness (and tests) can assert the simulator's memory accounting
// term-for-term against an independently computed in-flight count.
func ExpectedStageMem(sm *perfmodel.StageMetrics, peakInflight int, fx Effects, seed int64, cfg *config.Config, stage int) float64 {
	mem := sm.ParamMem + sm.OptMem +
		sm.ActPerMB*fx.ActSlack*float64(peakInflight) +
		sm.ExtraMem*fx.AllocRetain
	return mem * fx.memSkew(seed, cfg, stage)
}

// Simulate executes one training iteration of cfg under the 1F1B
// schedule with the default (realistic) effects and returns the
// observed time and memory. The configuration must be valid for pm's
// graph and cluster.
func Simulate(pm *perfmodel.Model, cfg *config.Config, seed int64) (*Result, error) {
	return SimulateEffects(pm, cfg, seed, OneFOneB, DefaultEffects())
}

// SimulateEffects is Simulate with an explicit pipeline schedule and
// effects knob — the entry point of the differential-validation
// harness, which runs the simulator in ModelFaithful mode against the
// analytic model.
func SimulateEffects(pm *perfmodel.Model, cfg *config.Config, seed int64, sched Schedule, fx Effects) (*Result, error) {
	if err := fx.validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(pm.Graph, pm.Cluster.TotalDevices()); err != nil {
		return nil, fmt.Errorf("pipesim: %w", err)
	}
	est := pm.Estimate(cfg)
	p := cfg.NumStages()
	n := est.Microbatches
	if n <= 0 {
		return nil, fmt.Errorf("pipesim: no microbatches (mbs %d > batch %d?)",
			cfg.MicroBatch, pm.Graph.GlobalBatch)
	}

	// Per-stage task durations with simulator-side effects applied.
	fwd := make([]float64, p)
	bwd := make([]float64, p)
	for i := 0; i < p; i++ {
		fwd[i] = est.Stages[i].FwdTime*fx.timeSkew(seed, cfg, i, false) + fx.TaskOverhead
		bwd[i] = est.Stages[i].BwdTime*fx.timeSkew(seed, cfg, i, true) + fx.TaskOverhead
	}

	// Build each stage's 1F1B task order: w warm-up forwards, then
	// alternating (forward, backward) pairs, then the cool-down
	// backwards. Stage p-1 has no warm-up; stage 0 warms up p-1 deep.
	type task struct {
		mb      int
		forward bool
	}
	order := make([][]task, p)
	for i := 0; i < p; i++ {
		w := p - 1 - i
		if w > n {
			w = n
		}
		if sched == GPipe {
			w = n // all forwards first
		}
		tasks := make([]task, 0, 2*n)
		for m := 0; m < w; m++ {
			tasks = append(tasks, task{m, true})
		}
		for m := w; m < n; m++ {
			tasks = append(tasks, task{m, true})
			tasks = append(tasks, task{m - w, false})
		}
		for m := n - w; m < n; m++ {
			tasks = append(tasks, task{m, false})
		}
		order[i] = tasks
	}

	// List-schedule: repeatedly advance any stage whose next task has
	// its cross-stage dependency satisfied. fwdDone/bwdDone hold
	// completion times; stageFree is per-stage serialization.
	fwdDone := make([][]float64, p)
	bwdDone := make([][]float64, p)
	for i := range fwdDone {
		fwdDone[i] = make([]float64, n)
		bwdDone[i] = make([]float64, n)
		for m := 0; m < n; m++ {
			fwdDone[i][m] = -1
			bwdDone[i][m] = -1
		}
	}
	stageFree := make([]float64, p)
	busy := make([]float64, p)
	next := make([]int, p)
	inflight := make([]int, p)
	peakInflight := make([]int, p)

	remaining := 0
	for i := range order {
		remaining += len(order[i])
	}
	for remaining > 0 {
		progressed := false
		for i := 0; i < p; i++ {
			for next[i] < len(order[i]) {
				t := order[i][next[i]]
				// Dependency readiness.
				ready := 0.0
				ok := true
				if t.forward {
					if i > 0 {
						ready = fwdDone[i-1][t.mb]
						ok = ready >= 0
					}
				} else {
					if i < p-1 {
						ready = bwdDone[i+1][t.mb]
						ok = ready >= 0
					} else {
						// The last stage's backward follows its own forward.
						ready = fwdDone[i][t.mb]
						ok = ready >= 0
					}
				}
				if !ok {
					break
				}
				start := stageFree[i]
				if ready > start {
					start = ready
				}
				if t.forward {
					end := start + fwd[i]
					fwdDone[i][t.mb] = end
					stageFree[i] = end
					busy[i] += fwd[i]
					inflight[i]++
					if inflight[i] > peakInflight[i] {
						peakInflight[i] = inflight[i]
					}
				} else {
					end := start + bwd[i]
					bwdDone[i][t.mb] = end
					stageFree[i] = end
					busy[i] += bwd[i]
					inflight[i]--
				}
				next[i]++
				remaining--
				progressed = true
			}
		}
		if !progressed {
			return nil, fmt.Errorf("pipesim: schedule deadlock (internal error)")
		}
	}

	res := &Result{
		StageTime:    make([]float64, p),
		StagePeakMem: make([]float64, p),
		PeakInflight: peakInflight,
		StageBusy:    make([]float64, p),
		StageOOM:     make([]bool, p),
	}
	for i := 0; i < p; i++ {
		t := stageFree[i] + est.Stages[i].DPSync
		res.StageTime[i] = t
		// The gradient all-reduce occupies the stage's devices just like
		// compute does: it extends StageTime, so it must count as busy
		// time too, or every dp>1 stage reads as artificially idle and
		// BubbleFraction overstates pipeline bubbles.
		busy[i] += est.Stages[i].DPSync
		if t > res.IterTime {
			res.IterTime = t
		}
		mem := ExpectedStageMem(&est.Stages[i], peakInflight[i], fx, seed, cfg, i)
		res.StagePeakMem[i] = mem
		if mem > res.PeakMem {
			res.PeakMem = mem
		}
		// Fault- and class-aware capacity: a derated or lower-class
		// device shrinks its stage's budget (CapMem ==
		// Cluster.MemoryBytes on healthy homogeneous hardware).
		if mem > est.Stages[i].CapMem {
			res.StageOOM[i] = true
			res.OOM = true
		}
	}
	for i := 0; i < p; i++ {
		if res.IterTime > 0 {
			res.StageBusy[i] = busy[i] / res.IterTime
		}
	}
	return res, nil
}
