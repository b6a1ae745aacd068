package chaos

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"time"

	"aceso/internal/comm"
	"aceso/internal/config"
	"aceso/internal/elastic"
	"aceso/internal/hardware"
	"aceso/internal/model"
	"aceso/internal/runtime"
	"aceso/internal/tensor"
)

// DefaultElasticTrials is the elastic trial count when Options leaves
// both Trials and Duration unset. Each trial actually trains a model
// and usually runs a replan search, so the default is smaller than the
// search harness's.
const DefaultElasticTrials = 16

// RunElastic hammers the elastic training loop end to end: every trial
// draws a random model, a random valid parallelization, a random fault
// (iteration × device rank) and a random checkpoint cadence, then runs
// train → kill → Replan → reshard → resume and checks the runtime
// invariants — no panic, no deadlock (a *comm.CollectiveTimeoutError
// surfacing from the driver means a rank hung until the deadline saved
// it), a strictly monotone optimizer step counter, finite losses, and
// a final step count equal to the requested iterations.
func RunElastic(o Options) *Report {
	start := time.Now()
	rep := &Report{}
	deadline := time.Time{}
	if o.Duration > 0 {
		deadline = start.Add(o.Duration)
	}
	trials := o.Trials
	if trials <= 0 && o.Duration <= 0 {
		trials = DefaultElasticTrials
	}
	for i := 0; trials <= 0 || i < trials; i++ {
		if !deadline.IsZero() && time.Now().After(deadline) {
			break
		}
		seed := o.Seed + int64(i)*1000003
		v := ReplayElasticTrial(i, seed, rep)
		rep.Trials++
		if v != nil {
			rep.Violations = append(rep.Violations, *v)
		}
		if o.Log != nil && (i+1)%8 == 0 {
			o.Log("chaos-elastic: %d trials, %d recovered runs, %d typed errors, %d violations",
				rep.Trials, rep.Plans, rep.TypedErrs, len(rep.Violations))
		}
	}
	rep.Elapsed = time.Since(start)
	return rep
}

// elasticShape is one randomly drawn trial topology.
type elasticShape struct {
	stages, tp, dp int
}

// drawShape picks a valid (stages × tp × dp) decomposition for a graph
// with ops operators and hidden width dim.
func drawShape(rng *rand.Rand, ops, dim int) elasticShape {
	shapes := []elasticShape{
		{1, 1, 1}, {2, 1, 1}, {1, 2, 1}, {1, 1, 2},
		{2, 2, 1}, {2, 1, 2}, {1, 2, 2}, {2, 2, 2},
	}
	for {
		s := shapes[rng.Intn(len(shapes))]
		if s.stages <= ops && dim%s.tp == 0 {
			return s
		}
	}
}

// ReplayElasticTrial runs one elastic chaos trial. Exported so a
// violation from a long run is replayable in isolation.
func ReplayElasticTrial(trial int, seed int64, rep *Report) (viol *Violation) {
	defer func() {
		if r := recover(); r != nil {
			viol = &Violation{
				Trial: trial, Seed: seed, Kind: "panic",
				Detail: fmt.Sprintf("%v\n%s", r, debug.Stack()),
			}
		}
	}()
	fail := func(kind, format string, args ...any) *Violation {
		return &Violation{Trial: trial, Seed: seed, Kind: kind,
			Detail: fmt.Sprintf(format, args...)}
	}
	rng := rand.New(rand.NewSource(seed))

	dim := 4 << rng.Intn(2)   // 4 or 8
	layers := 2 + rng.Intn(3) // 2..4
	batch := 8 << rng.Intn(2) // 8 or 16
	g, err := model.MLP(layers, dim, batch)
	if err != nil {
		rep.TypedErrs++
		return nil
	}
	shape := drawShape(rng, len(g.Ops), dim)
	total := shape.stages * shape.tp * shape.dp
	mb := batch / (1 << rng.Intn(2)) // batch or batch/2 microbatch rows
	cfg, err := config.Balanced(g, total, shape.stages, mb)
	if err != nil {
		rep.TypedErrs++
		return nil
	}
	for i := range cfg.Stages {
		for j := range cfg.Stages[i].Ops {
			cfg.Stages[i].Ops[j] = config.OpSetting{
				TP: shape.tp, DP: shape.dp, Dim: rng.Intn(2),
				Recompute: rng.Intn(4) == 0,
			}
			if g.Ops[cfg.Stages[i].Start+j].Kind != model.KindMatMul {
				cfg.Stages[i].Ops[j].Dim = 0
			}
		}
	}
	if err := cfg.Validate(g, total); err != nil {
		rep.TypedErrs++
		return nil
	}
	cl := hardware.DGX1V100(1).Restrict(total)

	p := runtime.InitParams(g, seed)
	p.Opt = runtime.Adam
	x := tensor.New(batch, dim)
	y := tensor.New(batch, dim)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
		y.Data[i] = rng.NormFloat64()
	}

	iters := 2 + rng.Intn(3) // 2..4
	var fault *runtime.FaultPlan
	if total > 1 { // killing the only device leaves nothing to replan onto
		fault = &runtime.FaultPlan{
			Rank:      rng.Intn(total),
			Iteration: rng.Intn(iters),
		}
	}

	repElastic, err := elastic.Train(context.Background(), g, cl, cfg, p, x, y, iters, fault,
		elastic.Options{
			LR:              0.05,
			CheckpointEvery: 1 + rng.Intn(2),
			CommDeadline:    20 * time.Second,
			SearchBudget:    100 * time.Millisecond,
			Seed:            seed,
		})
	if err != nil {
		var te *comm.CollectiveTimeoutError
		if errors.As(err, &te) {
			// The deadline rescued a hung World: without it this trial
			// would have deadlocked. That is a runtime bug, not an
			// acceptable rejection.
			return fail("deadlock", "collective timeout escaped recovery: %v", err)
		}
		rep.TypedErrs++
		return nil
	}

	if repElastic.FinalStep != iters {
		return fail("lost-steps", "final step %d, want %d (faults=%d reshards=%d)",
			repElastic.FinalStep, iters, repElastic.FaultsInjected, repElastic.Reshards)
	}
	if len(repElastic.Losses) != iters {
		return fail("lost-steps", "%d losses for %d iterations", len(repElastic.Losses), iters)
	}
	for i, l := range repElastic.Losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			return fail("non-finite", "loss[%d] = %v", i, l)
		}
	}
	for i := 1; i < len(repElastic.Steps); i++ {
		if repElastic.Steps[i] <= repElastic.Steps[i-1] {
			return fail("non-monotone-step", "steps %v", repElastic.Steps)
		}
	}
	if fault != nil && repElastic.FaultsInjected != 1 {
		return fail("lost-steps", "planned fault did not fire (injected=%d)", repElastic.FaultsInjected)
	}
	rep.Plans++
	return nil
}
