// Package diffcheck is the differential-validation harness: it
// confronts the closed-form performance model (internal/perfmodel,
// Eq. 1–2) with the discrete-event simulator (internal/pipesim) on
// randomized (graph, cluster, fault-spec, config) tuples and asserts
// that the two substrates agree wherever they model the same thing.
//
// The confrontation runs in pipesim's model-faithful mode (effects
// zeroed), where every second-order deviation is off and the contract
// is exact: simulated in-flight counts must equal Eq. 1's min(p−i, n),
// per-stage memory must reproduce Eq. 1 term-for-term (bitwise — the
// knobs multiply by exactly 1.0), OOM verdicts must agree per stage
// against the fault-derated CapMem, GPipe must stash at least as much
// as 1F1B, and the simulated makespan must fall inside a *signed* band
// around Eq. 2's closed form whose bounds are provable scheduling
// facts, not tuned tolerances (DESIGN.md §5e). With the realistic
// effects on, the time contract relaxes to a calibration band derived
// from the effects constants; the memory contract stays exact via
// pipesim.ExpectedStageMem.
//
// Any violation is auto-shrunk — ops, stages, microbatches, devices
// dropped greedily while the violation still reproduces — into a
// minimal Tuple that serializes to JSON and replays with ReplayTuple.
package diffcheck

import (
	"fmt"
	"math/rand"

	"aceso/internal/chaos"
	"aceso/internal/config"
	"aceso/internal/hardware"
	"aceso/internal/model"
	"aceso/internal/perfmodel"
)

// Tuple is one self-contained differential trial: everything needed to
// rebuild the (graph, cluster, config) triple deterministically. The
// JSON form is the repro format acesobench writes per violation.
type Tuple struct {
	// Synthetic workload shape: Ops operators of FwdFLOPs/Params/Act
	// base cost; Slope > 0 makes op i (1+i·Slope)× as expensive
	// (model.Skewed), 0 selects model.Uniform.
	Ops         int     `json:"ops"`
	FwdFLOPs    float64 `json:"fwd_flops"`
	Params      float64 `json:"params"`
	Act         float64 `json:"act"`
	Slope       float64 `json:"slope,omitempty"`
	GlobalBatch int     `json:"global_batch"`

	// Cluster shape: Devices healthy V100s, optionally degraded by
	// Fault (dead devices shrink the logical cluster; deratings shrink
	// per-stage CapMem). Hetero, when non-empty, switches to a mixed
	// A100+V100 fleet instead: one entry per 8-device node, 0 = A100,
	// 1 = V100, restricted to exactly Devices devices.
	Devices int                 `json:"devices"`
	Hetero  []int               `json:"hetero,omitempty"`
	Fault   *hardware.FaultSpec `json:"fault,omitempty"`

	// Configuration: a Balanced(stages, micro_batch) start, then
	// deterministic MutSeed-driven mutations (per-op tp/dp re-splits,
	// sharding dims, recomputation, ZeRO, sequence parallelism) so the
	// corpus covers the heterogeneous configs the search emits, not
	// just the balanced initializers.
	Stages     int   `json:"stages"`
	MicroBatch int   `json:"micro_batch"`
	MutSeed    int64 `json:"mut_seed,omitempty"`

	// Seed drives the simulator's deterministic skew streams.
	Seed int64 `json:"seed"`
}

// Build rebuilds the trial's model and configuration. It fails on
// tuples whose shape is unconstructible (stages exceeding ops, a fault
// spec killing devices a Balanced split needs, a microbatch that does
// not divide the batch) — the generator retries and the shrinker
// treats a failed build as "does not reproduce".
func (t *Tuple) Build() (*perfmodel.Model, *config.Config, error) {
	var g *model.Graph
	if t.Slope > 0 {
		g = model.Skewed(t.Ops, t.FwdFLOPs, t.Params, t.Act, t.Slope, t.GlobalBatch)
	} else {
		g = model.Uniform(t.Ops, t.FwdFLOPs, t.Params, t.Act, t.GlobalBatch)
	}
	if err := g.Validate(); err != nil {
		return nil, nil, fmt.Errorf("diffcheck: graph: %w", err)
	}
	var cl hardware.Cluster
	if len(t.Hetero) > 0 {
		cl = hardware.Mixed(8, t.Hetero, hardware.A100Class(), hardware.V100Class()).Restrict(t.Devices)
	} else {
		cl = hardware.DGX1V100((t.Devices + 7) / 8).Restrict(t.Devices)
	}
	if err := cl.Validate(); err != nil {
		return nil, nil, fmt.Errorf("diffcheck: cluster: %w", err)
	}
	if t.Fault != nil {
		deg, err := cl.Degrade(*t.Fault)
		if err != nil {
			return nil, nil, fmt.Errorf("diffcheck: fault spec: %w", err)
		}
		cl = deg
	}
	cfg, err := config.Balanced(g, cl.TotalDevices(), t.Stages, t.MicroBatch)
	if err != nil {
		return nil, nil, fmt.Errorf("diffcheck: config: %w", err)
	}
	if t.MutSeed != 0 {
		mutate(cfg, g, t.MutSeed)
	}
	if err := cfg.Validate(g, cl.TotalDevices()); err != nil {
		return nil, nil, fmt.Errorf("diffcheck: mutated config: %w", err)
	}
	pm := perfmodel.New(g, cl, 1)
	return pm, cfg, nil
}

// mutate applies deterministic validity-preserving mutations: per-op
// tp/dp re-splits (tp·dp fixed to the stage's devices, dp constrained
// to divide the microbatch), sharding-dim choices, recomputation
// flips, and the extension primitives where legal.
func mutate(cfg *config.Config, g *model.Graph, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for si := range cfg.Stages {
		devs := cfg.Stages[si].Devices
		start, end := cfg.Stages[si].Start, cfg.Stages[si].End
		for op := start; op < end; op++ {
			if rng.Intn(2) == 0 {
				continue
			}
			// Legal (tp, dp) splits: tp a power-of-two divisor of the
			// stage's devices with dp = devs/tp dividing the microbatch.
			var splits [][2]int
			for tp := 1; tp <= devs; tp *= 2 {
				dp := devs / tp
				if tp*dp == devs && cfg.MicroBatch%dp == 0 {
					splits = append(splits, [2]int{tp, dp})
				}
			}
			if len(splits) == 0 {
				continue
			}
			pickIdx := rng.Intn(len(splits))
			dims := len(g.Ops[op].Dims)
			dim := rng.Intn(dims)
			rc := rng.Intn(3) == 0
			zero := rng.Intn(4) == 0
			seqpar := rng.Intn(4) == 0
			cfg.MutOp(si, op, func(s *config.OpSetting) {
				s.TP, s.DP = splits[pickIdx][0], splits[pickIdx][1]
				s.Dim = dim
				s.Recompute = rc
				s.ZeRO = zero && s.DP > 1
				s.SeqPar = seqpar && s.TP > 1
			})
		}
	}
}

// RandomTuple draws a buildable tuple from rng, retrying shapes the
// constructors reject (odd device splits after dead devices, stages
// deeper than the op list). The bias toward small shapes keeps the
// 5k-trial smoke gate inside its time budget while still reaching
// multi-node clusters and 16-deep pipelines.
func RandomTuple(rng *rand.Rand) Tuple {
	for {
		t := Tuple{
			Ops:         1 + rng.Intn(24),
			FwdFLOPs:    1e8 * (1 + 99*rng.Float64()), // 1e8 .. 1e10
			Params:      1e5 * (1 + 99*rng.Float64()),
			Act:         1e4 * (1 + 99*rng.Float64()),
			GlobalBatch: 1 << rng.Intn(7), // 1 .. 64
			Devices:     1 << rng.Intn(5), // 1 .. 16
			Seed:        rng.Int63(),
		}
		if rng.Intn(3) == 0 {
			t.Slope = rng.Float64() * 2
		}
		t.Stages = 1 << rng.Intn(5) // 1 .. 16
		t.MicroBatch = 1 << rng.Intn(4)
		if rng.Intn(2) == 0 {
			t.MutSeed = rng.Int63()
		}
		if rng.Intn(4) == 0 {
			// Mixed fleet: random per-node class assignment over the
			// nodes the device count needs.
			nodes := (t.Devices + 7) / 8
			t.Hetero = make([]int, nodes)
			for i := range t.Hetero {
				t.Hetero[i] = rng.Intn(2)
			}
		}
		if rng.Intn(3) == 0 {
			spec := chaos.RandomValidFaultSpec(rng, t.Devices)
			if len(spec.Devices) > 0 || spec.InterBWScale != 0 {
				t.Fault = &spec
			}
		}
		if _, _, err := t.Build(); err == nil {
			return t
		}
	}
}

// RandomHeteroTuple draws a buildable tuple guaranteed to sit on a
// mixed-class cluster — the hetero slice of the diff smoke, where the
// class-aware model and simulator must agree with zero violations.
func RandomHeteroTuple(rng *rand.Rand) Tuple {
	for {
		t := RandomTuple(rng)
		if len(t.Hetero) == 0 {
			nodes := (t.Devices + 7) / 8
			t.Hetero = make([]int, nodes)
			for i := range t.Hetero {
				t.Hetero[i] = rng.Intn(2)
			}
			if _, _, err := t.Build(); err != nil {
				continue
			}
		}
		hasBoth := false
		for _, k := range t.Hetero {
			if k != t.Hetero[0] {
				hasBoth = true
			}
		}
		// Single-node (or single-class) layouts are still heterogeneous
		// in the model's eyes only when both classes appear; bias toward
		// genuinely mixed fleets but keep uniform-class layouts too.
		if hasBoth || rng.Intn(4) == 0 {
			return t
		}
	}
}
