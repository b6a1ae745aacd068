package diffcheck

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"aceso/internal/obs"
)

// Options tunes a differential run.
type Options struct {
	// Trials is the number of randomized tuples (DefaultTrials if ≤ 0).
	Trials int
	// Seed makes the tuple sequence deterministic: trial i draws from
	// rand.NewSource(Seed + i·1000003), the same per-trial scheme the
	// chaos harness uses, so any trial replays in isolation.
	Seed int64
	// EffectsOn checks the calibration band under the realistic
	// effects instead of the hard model-faithful invariants.
	EffectsOn bool
	// Metrics, when non-nil, accumulates trial/violation/shrink
	// counters (violations labeled by kind).
	Metrics *obs.Registry
	// Generator draws each trial's tuple (RandomTuple when nil). Pass
	// RandomHeteroTuple to restrict the run to mixed-class clusters —
	// the hetero slice of the diff smoke.
	Generator func(rng *rand.Rand) Tuple
	// Log, when non-nil, receives one line per trial batch.
	Log func(format string, args ...any)
}

// DefaultTrials is the trial count when Options.Trials is unset.
const DefaultTrials = 5000

// Violation is one invariant violation, already shrunk to a minimal
// reproducing tuple.
type Violation struct {
	Trial       int    `json:"trial"`
	Seed        int64  `json:"seed"` // per-trial generator seed
	Kind        string `json:"kind"`
	Detail      string `json:"detail"`
	Tuple       Tuple  `json:"tuple"`        // shrunken repro
	ShrinkSteps int    `json:"shrink_steps"` // accepted reductions
}

// BandStats summarizes the signed relative deviation
// (sim − model)/model of the iteration time across the run.
type BandStats struct {
	Samples int     `json:"samples"`
	Min     float64 `json:"min"`
	P50     float64 `json:"p50"`
	P95     float64 `json:"p95"`
	Max     float64 `json:"max"`
}

// Report summarizes a differential run.
type Report struct {
	Trials     int           `json:"trials"`
	EffectsOn  bool          `json:"effects_on"`
	Violations []Violation   `json:"violations,omitempty"`
	Band       BandStats     `json:"band"`
	Elapsed    time.Duration `json:"elapsed_ns"`
}

// Failed reports whether any invariant broke.
func (r *Report) Failed() bool { return len(r.Violations) > 0 }

// Summary renders a one-paragraph human-readable outcome.
func (r *Report) Summary() string {
	var b strings.Builder
	mode := "effects-off"
	if r.EffectsOn {
		mode = "effects-on"
	}
	fmt.Fprintf(&b, "diffcheck: %d %s trials in %v: %d violations; band [%.4f, %.4f] p50 %.4f p95 %.4f\n",
		r.Trials, mode, r.Elapsed.Round(time.Millisecond), len(r.Violations),
		r.Band.Min, r.Band.Max, r.Band.P50, r.Band.P95)
	for i, v := range r.Violations {
		if i == 10 {
			fmt.Fprintf(&b, "  ... and %d more\n", len(r.Violations)-10)
			break
		}
		fmt.Fprintf(&b, "  trial %d %s: %s (shrunk in %d steps)\n", v.Trial, v.Kind, v.Detail, v.ShrinkSteps)
	}
	return b.String()
}

// TrialSeed returns the deterministic generator seed of trial i under
// base seed — the replay contract shared with the chaos harness.
func TrialSeed(base int64, i int) int64 { return base + int64(i)*1000003 }

// Run executes the differential trials and returns the report. Every
// violating tuple is shrunk before being reported; only the first
// finding of each trial is shrunk (the rest are usually the same root
// cause seen through different invariants).
func Run(o Options) *Report {
	start := time.Now()
	trials := o.Trials
	if trials <= 0 {
		trials = DefaultTrials
	}
	rep := &Report{Trials: trials, EffectsOn: o.EffectsOn}
	gen := o.Generator
	if gen == nil {
		gen = RandomTuple
	}

	var mTrials, mShrink *obs.Counter
	if o.Metrics != nil {
		mTrials = o.Metrics.Counter(obs.DiffTrialsTotal)
		mShrink = o.Metrics.Counter(obs.DiffShrinkStepsTotal)
	}
	violationCounter := func(kind string) *obs.Counter {
		if o.Metrics == nil {
			return nil
		}
		return o.Metrics.Counter(fmt.Sprintf("%s{kind=%q}", obs.DiffViolationsTotal, kind))
	}

	samples := make([]float64, 0, trials)
	for i := 0; i < trials; i++ {
		seed := TrialSeed(o.Seed, i)
		rng := rand.New(rand.NewSource(seed))
		t := gen(rng)
		findings, band := Check(&t, o.EffectsOn)
		if mTrials != nil {
			mTrials.Inc()
		}
		if !math.IsNaN(band) {
			samples = append(samples, band)
		}
		if len(findings) > 0 {
			f := findings[0]
			shrunk, steps := Shrink(t, f.Kind, o.EffectsOn)
			// Re-check the shrunken tuple for the detail to report: the
			// minimal form's message is the one worth reading.
			detail := f.Detail
			if sf, _ := Check(&shrunk, o.EffectsOn); len(sf) > 0 {
				for _, s := range sf {
					if s.Kind == f.Kind {
						detail = s.Detail
						break
					}
				}
			}
			rep.Violations = append(rep.Violations, Violation{
				Trial: i, Seed: seed, Kind: f.Kind, Detail: detail,
				Tuple: shrunk, ShrinkSteps: steps,
			})
			if c := violationCounter(f.Kind); c != nil {
				c.Inc()
			}
			if mShrink != nil {
				mShrink.Add(int64(steps))
			}
		}
		if o.Log != nil && (i+1)%1024 == 0 {
			o.Log("diffcheck: %d trials, %d violations", i+1, len(rep.Violations))
		}
	}
	rep.Band = bandStats(samples)
	rep.Elapsed = time.Since(start)
	return rep
}

// ReplayTuple re-runs one tuple (typically loaded from a repro JSON)
// and returns its findings.
func ReplayTuple(t Tuple, effectsOn bool) []Finding {
	findings, _ := Check(&t, effectsOn)
	return findings
}

// bandStats computes the percentile summary of the band samples.
func bandStats(samples []float64) BandStats {
	if len(samples) == 0 {
		return BandStats{}
	}
	sort.Float64s(samples)
	q := func(p float64) float64 {
		idx := int(p * float64(len(samples)-1))
		return samples[idx]
	}
	return BandStats{
		Samples: len(samples),
		Min:     samples[0],
		P50:     q(0.50),
		P95:     q(0.95),
		Max:     samples[len(samples)-1],
	}
}
