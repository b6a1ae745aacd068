// Package chaos is the fault-injection harness. Its Search scenario
// hammers SearchContext with randomly degraded clusters, hostile
// option sets, poisoned profiler databases and malformed graphs, and
// checks one invariant on every trial — the search returns either a
// Validate-clean plan with finite scores or a typed error. Never a
// panic, never a NaN. Its recovery scenarios (recovery.go) train a real
// model through elastic.Supervise under a random fault schedule and
// check that the run rejoins the uninterrupted trajectory.
//
// The harness is deliberately adversarial where the unit tests are
// cooperative: unit tests pin the behavior of specific fault paths,
// chaos searches for the paths nobody thought to pin. Every trial is
// reproducible from (Options.Seed, trial index), so a violation in a
// long run can be replayed in isolation with Replay.
package chaos

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"strings"
	"time"

	"aceso/internal/core"
	"aceso/internal/hardware"
	"aceso/internal/model"
	"aceso/internal/obs"
	"aceso/internal/perfmodel"
)

// Scenario is one kind of randomized trial: what it is called, how many
// trials make a run that was given neither a count nor a wall budget,
// how often a run logs, and the trial itself. It is a value, so a
// package that owns a property (internal/diffcheck) states it as a
// Scenario and every property runs in the one loop below.
type Scenario struct {
	Name     string
	Trials   int // a run's trial count when Options sets neither Trials nor Duration
	LogEvery int // trials between progress lines
	// Trial runs one trial, drawing everything from rng (seeded with
	// seed, which a trial may hand on to what it runs). ok is a trial
	// that held its property on a usable draw; not ok with a nil
	// violation is an acceptable typed rejection.
	Trial func(rng *rand.Rand, seed int64) (ok bool, v *Violation)
}

// The built-in scenarios. Search trials are cheap; a recovery trial
// trains a model and usually runs several replan searches.
var (
	// Search runs SearchContext on hostile inputs.
	Search = Scenario{Name: "search", Trials: 64, LogEvery: 1024, Trial: searchTrial}
	// OneFault kills one in-plan device mid-run: the smallest churn
	// schedule, train → kill → replan → reshard → resume.
	OneFault = recovery("one-fault", oneFault)
	// Churn draws a mixed schedule of preemptions, re-additions,
	// stragglers and link derates (randomChurnSpec).
	Churn = recovery("churn", churn)
	// Spot draws a Poisson-hazard reclaim stream with a mix of noticed
	// and unnoticed reclaims and a random checkpoint cost
	// (RandomSpotSpec).
	Spot = recovery("spot", spot)
)

// Options tunes a run.
type Options struct {
	// Trials is the number of randomized trials; 0 means run until
	// Duration expires (or the scenario's own count when Duration is
	// also zero).
	Trials int
	// Duration bounds the wall time of the whole run; 0 means no bound.
	Duration time.Duration
	// Seed makes the trial sequence deterministic.
	Seed int64
	// Log, when non-nil, receives one line per trial batch.
	Log func(format string, args ...any)
}

// Violation is one broken invariant: a trial panicked, or the search
// returned an unvalidated plan, let a non-finite value escape or
// produced an estimate whose resource-accounting breakdown is
// inconsistent, or a supervised run hung, lost steps or left the
// uninterrupted trajectory, or the model and the simulator disagreed.
type Violation struct {
	Trial  int    `json:"trial"`
	Seed   int64  `json:"seed"` // per-trial seed: replays the exact trial
	Kind   string `json:"kind"` // "panic", "invalid-plan", "non-finite", "diverged", ...
	Detail string `json:"detail"`
	// Repro, when the scenario shrinks what it finds, is the minimal
	// input that still breaks the invariant, reached in ShrinkSteps
	// accepted reductions.
	Repro       any `json:"repro,omitempty"`
	ShrinkSteps int `json:"shrink_steps,omitempty"`
}

func (v Violation) String() string {
	s := fmt.Sprintf("trial %d (seed %d) %s: %s", v.Trial, v.Seed, v.Kind, v.Detail)
	if v.Repro != nil {
		s += fmt.Sprintf(" (shrunk in %d steps)", v.ShrinkSteps)
	}
	return s
}

// violation builds a trial's verdict; Replay stamps trial and seed.
func violation(kind, format string, args ...any) *Violation {
	return &Violation{Kind: kind, Detail: fmt.Sprintf(format, args...)}
}

// Report summarizes a run.
type Report struct {
	Scenario   string
	Trials     int
	Passed     int // trials that held the property: a validated plan, a finished faithful run, an agreeing tuple
	TypedErrs  int // trials rejected with a typed error (acceptable)
	Violations []Violation
	Elapsed    time.Duration
}

// Failed reports whether any invariant broke.
func (r *Report) Failed() bool { return len(r.Violations) > 0 }

// Summary renders a one-paragraph human-readable outcome.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d trials in %v: %d passed, %d typed rejections, %d violations\n",
		r.Scenario, r.Trials, r.Elapsed.Round(time.Millisecond), r.Passed, r.TypedErrs, len(r.Violations))
	for i, v := range r.Violations {
		if i == 10 {
			fmt.Fprintf(&b, "  ... and %d more\n", len(r.Violations)-10)
			break
		}
		fmt.Fprintf(&b, "  %s\n", v)
	}
	return b.String()
}

// Run executes the scenario's trials and returns the report.
func Run(sc Scenario, o Options) *Report {
	start := time.Now()
	rep := &Report{Scenario: sc.Name}
	deadline := time.Time{}
	if o.Duration > 0 {
		deadline = start.Add(o.Duration)
	}
	trials := o.Trials
	if trials <= 0 && o.Duration <= 0 {
		trials = max(sc.Trials, 1) // a scenario that names no count still terminates
	}
	for i := 0; trials <= 0 || i < trials; i++ {
		if !deadline.IsZero() && time.Now().After(deadline) {
			break
		}
		ok, v := Replay(sc, i, o.Seed+int64(i)*1000003)
		rep.Trials++
		switch {
		case v != nil:
			rep.Violations = append(rep.Violations, *v)
		case ok:
			rep.Passed++
		default:
			rep.TypedErrs++
		}
		if o.Log != nil && sc.LogEvery > 0 && (i+1)%sc.LogEvery == 0 {
			o.Log("%s: %d trials, %d passed, %d typed errors, %d violations",
				sc.Name, rep.Trials, rep.Passed, rep.TypedErrs, len(rep.Violations))
		}
	}
	rep.Elapsed = time.Since(start)
	return rep
}

// Replay runs one trial of a scenario with the given seed. Exported so
// a violation found in a long run can be replayed under a debugger.
func Replay(sc Scenario, trial int, seed int64) (ok bool, viol *Violation) {
	defer func() {
		if r := recover(); r != nil {
			ok, viol = false, violation("panic", "%v\n%s", r, debug.Stack())
		}
		if viol != nil {
			viol.Trial, viol.Seed = trial, seed
		}
	}()
	return sc.Trial(rand.New(rand.NewSource(seed)), seed)
}

// searchTrial is one Search trial.
func searchTrial(rng *rand.Rand, _ int64) (bool, *Violation) {
	g := randomGraph(rng)
	cl, degraded := randomCluster(rng)
	opts := hostileOptions(rng)

	// Poison the profiler database on some trials: the Load guard must
	// reject every invalid entry, and the search must stay NaN-free
	// either way.
	if rng.Intn(3) == 0 {
		pm := perfmodel.New(g, cl, opts.Seed)
		payload, poisoned := poisonProfile(rng)
		err := pm.Prof.Load(strings.NewReader(payload))
		if poisoned && err == nil {
			return false, violation("poison-accepted", "profiler.Load accepted %q", payload)
		}
		if err == nil {
			opts.Model = pm
		}
	}

	ctx := context.Background()
	if rng.Intn(4) == 0 {
		// A fraction of trials run pre-canceled: the partial-result
		// contract applies from the very first instruction.
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx)
		cancel()
	}

	// The breakdown auditor rides along on every trial: hostile inputs
	// that survive validation still have to produce estimates whose
	// resource-accounting buckets are internally consistent — the
	// invariant the observability layer exists to enforce.
	auditor := obs.NewAuditor()
	opts.Tracer = auditor

	res, err := core.SearchContext(ctx, g, cl, opts)
	if err != nil {
		return false, nil
	}
	if aerr := auditor.Err(); aerr != nil {
		return false, violation("breakdown", "%v", aerr)
	}
	if res == nil || res.Best.Config == nil {
		return false, violation("invalid-plan", "nil result or nil best config with nil error")
	}
	if verr := res.Best.Config.Validate(g, cl.TotalDevices()); verr != nil {
		return false, violation("invalid-plan", "best config fails Validate: %v (degraded=%v)", verr, degraded)
	}
	for _, c := range res.TopK {
		if math.IsNaN(c.Score) || math.IsInf(c.Score, 0) {
			return false, violation("non-finite", "candidate score %v", c.Score)
		}
		if c.Estimate != nil && (math.IsNaN(c.Estimate.IterTime) || math.IsNaN(c.Estimate.PeakMem)) {
			return false, violation("non-finite", "estimate IterTime=%v PeakMem=%v", c.Estimate.IterTime, c.Estimate.PeakMem)
		}
	}
	return true, nil
}

// randomGraph picks a workload: usually a sane synthetic model, with a
// hostile minority (zero-op graphs, non-finite op costs) that the
// search must reject with a typed error.
func randomGraph(rng *rand.Rand) *model.Graph {
	switch rng.Intn(8) {
	case 0: // real workload, small
		g, _ := model.GPT3("350M")
		return g
	case 1: // empty graph — must be rejected, not crash
		return model.Uniform(0, 1e9, 1e6, 1e5, 8)
	case 2: // poisoned FLOPs
		g := model.Uniform(4+rng.Intn(8), 1e9, 1e6, 1e5, 8)
		g.Ops[rng.Intn(len(g.Ops))].FwdFLOPs = pick(rng, math.NaN(), math.Inf(1), -1e9)
		return g
	case 3: // poisoned memory footprint
		g := model.Uniform(4+rng.Intn(8), 1e9, 1e6, 1e5, 8)
		g.Ops[rng.Intn(len(g.Ops))].Params = pick(rng, math.NaN(), math.Inf(-1), -1)
		return g
	default: // sane synthetic model of random shape
		ops := 1 + rng.Intn(24)
		return model.Uniform(ops,
			math.Pow(10, 6+3*rng.Float64()), // 1e6 .. 1e9 FLOPs
			math.Pow(10, 4+3*rng.Float64()), // params
			math.Pow(10, 3+2*rng.Float64()), // activations
			1<<rng.Intn(5))                  // batch 1..16
	}
}

// randomCluster builds a cluster, usually degraded by a random fault
// spec and occasionally corrupted outright (which Validate must catch).
func randomCluster(rng *rand.Rand) (cl hardware.Cluster, degraded bool) {
	devices := 1 << rng.Intn(5) // 1..16
	if rng.Intn(4) == 0 {
		// Mixed fleet: random per-node A100/V100 layout, hit with the
		// same corruption and fault machinery as the homogeneous shape.
		nodeClass := make([]int, (devices+7)/8)
		for i := range nodeClass {
			nodeClass[i] = rng.Intn(2)
		}
		cl = hardware.Mixed(8, nodeClass, hardware.A100Class(), hardware.V100Class()).Restrict(devices)
	} else {
		cl = hardware.DGX1V100((devices + 7) / 8).Restrict(devices)
	}
	switch rng.Intn(8) {
	case 0: // corrupted description — typed rejection expected
		cl.MemoryBytes = pick(rng, math.NaN(), math.Inf(1), -1, 0)
		return cl, false
	case 1:
		cl.InterBW = pick(rng, math.NaN(), -5)
		return cl, false
	}
	if rng.Intn(2) == 0 {
		return cl, false // healthy
	}
	spec := randomFaultSpec(rng, devices)
	deg, err := cl.Degrade(spec)
	if err != nil {
		// Invalid spec (possible: random scales out of range); the
		// rejection is the behavior under test, continue healthy.
		return cl, false
	}
	return deg, true
}

// RandomValidFaultSpec draws a fault spec that Cluster.Degrade is
// guaranteed to accept: every derating is in its documented range and
// at least one device always survives. The differential harness
// (internal/diffcheck) uses it so its degraded-cluster tuples exercise
// fault-derated capacity without tripping input validation — unlike
// randomFaultSpec below, which is deliberately hostile.
func RandomValidFaultSpec(rng *rand.Rand, devices int) hardware.FaultSpec {
	var spec hardware.FaultSpec
	dead := 0
	for d := 0; d < devices; d++ {
		if rng.Intn(3) != 0 {
			continue
		}
		f := hardware.DeviceFault{Device: d, FLOPSScale: 1, MemScale: 1}
		switch rng.Intn(4) {
		case 0:
			// Never kill the last survivor.
			if dead+1 < devices {
				f.Dead = true
				dead++
			}
		case 1:
			f.FLOPSScale = 0.25 + 0.75*rng.Float64()
		case 2:
			f.MemScale = 0.25 + 0.75*rng.Float64()
		case 3:
			f.FLOPSScale = 0.25 + 0.75*rng.Float64()
			f.MemScale = 0.25 + 0.75*rng.Float64()
		}
		spec.Devices = append(spec.Devices, f)
	}
	if rng.Intn(3) == 0 {
		spec.InterBWScale = pick(rng, 0.25, 0.5, 1)
		spec.InterLatScale = pick(rng, 1, 2, 8)
	}
	return spec
}

// randomFaultSpec fuzzes deratings; roughly a third of the generated
// entries are invalid on purpose.
func randomFaultSpec(rng *rand.Rand, devices int) hardware.FaultSpec {
	var spec hardware.FaultSpec
	for d := 0; d < devices; d++ {
		if rng.Intn(4) != 0 {
			continue
		}
		f := hardware.DeviceFault{Device: d, FLOPSScale: 1, MemScale: 1}
		switch rng.Intn(6) {
		case 0:
			f.Dead = true
		case 1:
			f.FLOPSScale = 0.05 + 0.95*rng.Float64()
		case 2:
			f.MemScale = 0.05 + 0.95*rng.Float64()
		case 3: // invalid scale
			f.FLOPSScale = pick(rng, math.NaN(), 0, -0.5, 2)
		case 4: // out-of-range rank
			f.Device = devices + rng.Intn(4)
		case 5:
			f.FLOPSScale = 0.1 + 0.9*rng.Float64()
			f.MemScale = 0.1 + 0.9*rng.Float64()
		}
		spec.Devices = append(spec.Devices, f)
	}
	if rng.Intn(3) == 0 {
		spec.InterBWScale = pick(rng, 0.25, 0.5, 1, -1, math.NaN())
		spec.InterLatScale = pick(rng, 0, 2, 8, 0.5)
	}
	return spec
}

// hostileOptions fuzzes the search knobs, including values outside
// their documented ranges (negatives, zeros, absurd sizes).
func hostileOptions(rng *rand.Rand) core.Options {
	opts := core.Options{
		TimeBudget:     time.Duration(rng.Intn(80)+20) * time.Millisecond,
		MaxIterations:  1 + rng.Intn(2),
		Seed:           rng.Int63(),
		MaxHops:        rng.Intn(12) - 2, // includes invalid ≤ 0
		BranchFactor:   rng.Intn(6) - 1,  // includes invalid ≤ 0
		TopK:           rng.Intn(8) - 1,  // includes invalid ≤ 0
		InitMicroBatch: pickInt(rng, -4, 0, 1, 2, 1024),
	}
	if rng.Intn(4) == 0 {
		// Hostile stage counts: zero, negative, and absurdly deep.
		opts.StageCounts = []int{0, -1, 1, 2, 1 << 20}[rng.Intn(3):]
	}
	opts.DisableHeuristic2 = rng.Intn(2) == 0
	opts.DisableFineTune = rng.Intn(2) == 0
	opts.ExtendedPrimitives = rng.Intn(2) == 0
	return opts
}

// poisonProfile builds a profiler-database JSON payload; the second
// return is true when the payload must be rejected.
func poisonProfile(rng *rand.Rand) (string, bool) {
	key := `op|mlp|1|0|1|1|false|fp16`
	switch rng.Intn(5) {
	case 0: // clean single entry
		return fmt.Sprintf(`{"%s": %g}`, key, rng.Float64()*1e-3), false
	case 1: // negative cost
		return fmt.Sprintf(`{"%s": %g}`, key, -rng.Float64()), true
	case 2: // float64 overflow → Inf
		return fmt.Sprintf(`{"%s": 1e999}`, key), true
	case 3: // truncated JSON
		return fmt.Sprintf(`{"%s": 0.0`, key), true
	default: // malformed key
		return `{"op|broken": 1}`, true
	}
}

// pick returns one of the values uniformly.
func pick(rng *rand.Rand, vals ...float64) float64 { return vals[rng.Intn(len(vals))] }

// pick3 is pick for ints.
func pickInt(rng *rand.Rand, vals ...int) int { return vals[rng.Intn(len(vals))] }
