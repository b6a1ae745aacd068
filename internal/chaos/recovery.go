package chaos

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"time"

	"aceso/internal/comm"
	"aceso/internal/config"
	"aceso/internal/elastic"
	"aceso/internal/hardware"
	"aceso/internal/model"
	"aceso/internal/runtime"
	"aceso/internal/tensor"
)

// LR is the learning rate of every recovery workload.
const LR = 0.05

// maxCadence pins the supervisor's checkpoint-cadence cap for recovery
// trials, so the work-loss bound is a closed formula.
const maxCadence = 4

// RejoinTol bounds the divergence between a supervised run and its
// uninterrupted reference: reconfigurations are semantics-preserving,
// so only float re-association noise is tolerated.
const RejoinTol = 1e-9

// Shape is a (stages × tp × dp) decomposition of a plan.
type Shape struct {
	Stages, TP, DP int
}

// Devices is the device count the shape fills.
func (s Shape) Devices() int { return s.Stages * s.TP * s.DP }

// MLPJob builds the recovery workloads' common prelude: an MLP, a
// balanced plan of the given shape with every operator at (TP, DP) and
// microbatch mb, one batch drawn from rng, and Adam parameters
// initialised from seed. The caller sets Iters.
func MLPJob(rng *rand.Rand, cl hardware.Cluster, layers, dim, batch int, shape Shape, mb int, seed int64) (elastic.Job, error) {
	g, err := model.MLP(layers, dim, batch)
	if err != nil {
		return elastic.Job{}, err
	}
	cfg, err := config.Balanced(g, shape.Devices(), shape.Stages, mb)
	if err != nil {
		return elastic.Job{}, err
	}
	for i := range cfg.Stages {
		for j := range cfg.Stages[i].Ops {
			cfg.Stages[i].Ops[j] = config.OpSetting{TP: shape.TP, DP: shape.DP}
		}
	}
	if err := cfg.Validate(g, shape.Devices()); err != nil {
		return elastic.Job{}, err
	}
	x, y := tensor.New(batch, dim), tensor.New(batch, dim)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
		y.Data[i] = rng.NormFloat64()
	}
	p := runtime.InitParams(g, seed)
	p.Opt = runtime.Adam
	return elastic.Job{Graph: g, Cluster: cl, Config: cfg, Params: p, X: x, Y: y}, nil
}

// Reference trains job uninterrupted on a copy of its parameters and
// returns the trajectory a supervised run of it must rejoin.
func Reference(job elastic.Job) ([]float64, *runtime.Params, error) {
	p := job.Params.Clone()
	losses, err := runtime.Parallel(job.Graph, job.Config, p, job.X, job.Y, LR, job.Iters, runtime.RunOptions{})
	return losses, p, err
}

// drawShape picks a decomposition valid for hidden width dim (two
// stages fit every drawn model: each has at least two layers).
func drawShape(rng *rand.Rand, dim int) Shape {
	shapes := []Shape{
		{1, 1, 1}, {2, 1, 1}, {1, 2, 1}, {1, 1, 2},
		{2, 2, 1}, {2, 1, 2}, {1, 2, 2}, {2, 2, 2},
	}
	for {
		s := shapes[rng.Intn(len(shapes))]
		if dim%s.TP == 0 {
			return s
		}
	}
}

// randomChurnSpec draws a random churn schedule for a cluster of the
// given size: preemptions, re-additions (biased toward dead devices so
// runs tend to regain capacity), stragglers with later restores, and
// link derates. Iterations may land past iters — a paused run consumes
// the remaining schedule while it waits for capacity.
func randomChurnSpec(rng *rand.Rand, devices, iters, maxEvents int) elastic.ChurnSpec {
	var spec elastic.ChurnSpec
	dead := map[int]bool{}
	derated := map[int]bool{}
	n := rng.Intn(maxEvents + 1)
	for i := 0; i < n; i++ {
		ev := elastic.ChurnEvent{Iteration: rng.Intn(iters + 2)}
		switch k := rng.Intn(10); {
		case k < 3: // preempt
			ev.Kind = elastic.Preempt
			ev.Device = rng.Intn(devices)
			if len(dead) >= devices-1 && !dead[ev.Device] && rng.Intn(4) != 0 {
				// Killing the last device usually stalls the run; mostly
				// re-add someone instead to keep trials productive.
				ev.Kind = elastic.Readd
			}
			if ev.Kind == elastic.Preempt {
				dead[ev.Device] = true
			} else {
				delete(dead, ev.Device)
			}
		case k < 6: // readd, preferring a currently-dead or derated device
			ev.Kind = elastic.Readd
			ev.Device = rng.Intn(devices)
			for d := range dead {
				ev.Device = d
				break
			}
			delete(dead, ev.Device)
			delete(derated, ev.Device)
		case k < 8: // slow node: derate, or restore one already derated
			ev.Kind = elastic.SlowNode
			ev.Device = rng.Intn(devices)
			if derated[ev.Device] && rng.Intn(2) == 0 {
				ev.Scale = 1
				delete(derated, ev.Device)
			} else {
				ev.Scale = 0.3 + 0.7*rng.Float64()
				derated[ev.Device] = true
			}
		default: // link derate or restore
			ev.Kind = elastic.LinkDerate
			if rng.Intn(3) == 0 {
				ev.Scale = 1
			} else {
				ev.Scale = 0.4 + 0.6*rng.Float64()
			}
		}
		spec.Events = append(spec.Events, ev)
	}
	return spec
}

// RandomSpotSpec draws a Poisson-style preemption stream for a spot
// fleet: each device independently survives each iteration with
// probability 1-hazardPerIter; a reclaim is noticed (PreemptNotice with
// a window of up to maxNotice iterations) with probability noticeFrac
// and unnoticed (plain Preempt) otherwise. Reclaimed devices are
// sometimes handed back later, the way a spot market refills capacity.
// The stream never schedules the reclaim of the last surviving device
// so trials stay productive.
func RandomSpotSpec(rng *rand.Rand, devices, iters int, hazardPerIter, noticeFrac float64, maxNotice int) elastic.ChurnSpec {
	var spec elastic.ChurnSpec
	dead := map[int]bool{}
	for it := 0; it < iters; it++ {
		for d := 0; d < devices; d++ {
			if dead[d] || rng.Float64() >= hazardPerIter {
				continue
			}
			if len(dead) >= devices-1 {
				continue // never doom the last survivor
			}
			ev := elastic.ChurnEvent{Iteration: it, Device: d, Kind: elastic.Preempt}
			if rng.Float64() < noticeFrac {
				ev.Kind = elastic.PreemptNotice
				if maxNotice > 0 {
					ev.Notice = rng.Intn(maxNotice + 1)
				}
			}
			dead[d] = true
			spec.Events = append(spec.Events, ev)
			// Capacity sometimes comes back a few iterations later.
			if rng.Intn(2) == 0 {
				spec.Events = append(spec.Events, elastic.ChurnEvent{
					Iteration: it + 1 + rng.Intn(iters),
					Device:    d,
					Kind:      elastic.Readd,
				})
				delete(dead, d)
			}
		}
	}
	return spec
}

// schedule is what tells the recovery scenarios apart: the fault
// schedule a trial draws.
type schedule uint8

const (
	oneFault schedule = iota
	churn
	spot
)

// recovery is the scenario that hammers the recovery path end to end
// under the given kind of schedule: each trial draws a random model, a
// random valid parallelization with per-operator split dimensions and
// recomputation, the schedule and a random checkpoint cadence, runs it
// through elastic.Supervise, and checks the invariants of a finished
// run (CheckRun). A typed error — a rejected draw, a schedule that
// genuinely ran out of capacity — is an acceptable outcome; a
// *comm.CollectiveTimeoutError is not.
func recovery(name string, kind schedule) Scenario {
	return Scenario{Name: name, Trials: 12, LogEvery: 4, Trial: func(rng *rand.Rand, seed int64) (bool, *Violation) {
		return recoveryTrial(kind, rng, seed)
	}}
}

func recoveryTrial(kind schedule, rng *rand.Rand, seed int64) (bool, *Violation) {
	dim := 4 << rng.Intn(2)   // 4 or 8
	layers := 2 + rng.Intn(3) // 2..4
	batch := 8 << rng.Intn(2) // 8 or 16
	shape := drawShape(rng, dim)
	mb := batch / (1 << rng.Intn(2)) // batch or batch/2 microbatch rows
	total := shape.Devices()
	job, err := MLPJob(rng, hardware.DGX1V100(1).Restrict(total), layers, dim, batch, shape, mb, seed)
	if err != nil {
		return false, nil
	}
	for i := range job.Config.Stages {
		st := &job.Config.Stages[i]
		for j := range st.Ops {
			if job.Graph.Ops[st.Start+j].Kind == model.KindMatMul {
				st.Ops[j].Dim = rng.Intn(2)
			}
			st.Ops[j].Recompute = rng.Intn(4) == 0
		}
	}
	if err := job.Config.Validate(job.Graph, total); err != nil {
		return false, nil
	}

	opt := elastic.Options{
		LR:           LR,
		CommDeadline: 20 * time.Second,
		Seed:         seed,
		MaxCadence:   maxCadence,
	}
	var spec elastic.ChurnSpec
	switch kind {
	case oneFault:
		job.Iters = 2 + rng.Intn(3) // 2..4
		if total > 1 {              // killing the only device leaves nothing to replan onto
			spec.Events = []elastic.ChurnEvent{{
				Kind: elastic.Preempt, Device: rng.Intn(total), Iteration: rng.Intn(job.Iters),
			}}
		}
	case churn:
		job.Iters = 4 + rng.Intn(5) // 4..8
		spec = randomChurnSpec(rng, total, job.Iters, 2+rng.Intn(7))
		opt.SimulateTimeouts = rng.Intn(2)
	case spot:
		job.Iters = 4 + rng.Intn(5)
		spec = RandomSpotSpec(rng, total, job.Iters,
			0.05+0.15*rng.Float64(), // per-device per-iteration hazard
			0.3+0.5*rng.Float64(),   // fraction of reclaims with advance notice
			3)                       // windows up to 3 iterations
		opt.CheckpointCost = rng.Intn(3) // 0..2: some notices covered, some missed
	}
	opt.CheckpointEvery = 1 + rng.Intn(2)

	refLosses, ref, err := Reference(job)
	if err != nil {
		return false, nil
	}
	rep, err := elastic.Supervise(context.Background(), job, spec, opt)
	if err != nil {
		var te *comm.CollectiveTimeoutError
		if errors.As(err, &te) {
			// Simulated timeouts (at most 1) never exhaust the retry
			// budget, so an escaped timeout means a rank hung until the
			// deadline saved it: a runtime bug, not an acceptable rejection.
			return false, violation("deadlock", "collective timeout escaped the supervisor: %v", err)
		}
		return false, nil
	}
	if kind == oneFault && len(spec.Events) != rep.FaultsDetected {
		return false, violation("lost-steps", "planned fault did not fire (detected=%d)", rep.FaultsDetected)
	}
	if v := CheckRun(rep, refLosses, ref); v != nil {
		return false, v
	}
	return true, nil
}

// CheckRun holds the invariants of a finished supervised run of
// len(refLosses) iterations: every iteration completed, a strictly
// monotone step counter, finite losses, coherent drain accounting, a
// bound on discarded work at a cadence of at most 4, and agreement with
// the uninterrupted reference run (Reference) within RejoinTol. It
// returns the first invariant broken, nil when all hold.
func CheckRun(rep *elastic.Report, refLosses []float64, ref *runtime.Params) *Violation {
	iters := len(refLosses)
	if rep.FinalStep != iters || len(rep.Losses) != iters {
		return violation("lost-steps", "final step %d, %d losses, want %d (events=%d faults=%d notices=%d drains=%d missed=%d)",
			rep.FinalStep, len(rep.Losses), iters, rep.EventsApplied, rep.FaultsDetected, rep.Notices, rep.CleanDrains, rep.NoticesMissed)
	}
	for i, l := range rep.Losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			return violation("non-finite", "loss[%d] = %v", i, l)
		}
	}
	for i := 1; i < len(rep.Steps); i++ {
		if rep.Steps[i] <= rep.Steps[i-1] {
			return violation("non-monotone-step", "steps %v", rep.Steps)
		}
	}
	if rep.CleanDrains+rep.NoticesMissed > rep.Notices || len(rep.NoticeMisses) != rep.NoticesMissed {
		return violation("drain-accounting", "drains %d + missed %d (%d typed) vs notices %d",
			rep.CleanDrains, rep.NoticesMissed, len(rep.NoticeMisses), rep.Notices)
	}
	// A covered notice drains losslessly, so only detected faults, missed
	// notices (which fall back to the fault path) and retried timeouts
	// may discard work — one partial segment each, capped at maxCadence
	// iterations.
	if bound := (rep.FaultsDetected + rep.NoticesMissed + rep.Retries) * maxCadence; rep.StepsLost > bound {
		return violation("steps-lost-budget", "lost %d steps > bound %d (faults=%d missed=%d retries=%d cap=%d)",
			rep.StepsLost, bound, rep.FaultsDetected, rep.NoticesMissed, rep.Retries, maxCadence)
	}
	// Recovery must cost wall time only, never training fidelity.
	for i := range refLosses {
		if !(math.Abs(rep.Losses[i]-refLosses[i]) <= RejoinTol) {
			return violation("diverged", "loss[%d] %.15g vs uninterrupted %.15g", i, rep.Losses[i], refLosses[i])
		}
	}
	if d := ref.MaxDiff(rep.Params); d > RejoinTol {
		return violation("diverged", "final params differ by %g from uninterrupted run", d)
	}
	return nil
}
