package diffcheck

import (
	"math"
	"math/rand"
	"sort"

	"aceso/internal/chaos"
	"aceso/internal/obs"
)

// BandStats summarizes the signed relative deviation
// (sim − model)/model of the iteration time across a run.
type BandStats struct {
	Samples int     `json:"samples"`
	Min     float64 `json:"min"`
	P50     float64 `json:"p50"`
	P95     float64 `json:"p95"`
	Max     float64 `json:"max"`
}

// Suite is the differential property stated as a chaos scenario: each
// trial draws a tuple, Checks it and Shrinks what fails, so chaos.Run
// is the loop and chaos.Violation (its Repro the shrunken Tuple) the
// finding. The suite keeps what the loop has no place for: the band
// sample of every trial that got as far as an iteration time.
type Suite struct {
	chaos.Scenario
	samples []float64
}

// EffectsOff checks the hard model-faithful invariants on RandomTuple
// draws. reg, here and below, accumulates trial, violation (labeled by
// kind) and shrink-step counters when non-nil.
func EffectsOff(reg *obs.Registry) *Suite { return New("diff-effects-off", RandomTuple, false, reg) }

// EffectsOn checks the calibration band under the realistic effects.
func EffectsOn(reg *obs.Registry) *Suite { return New("diff-effects-on", RandomTuple, true, reg) }

// Hetero is EffectsOff restricted to mixed-class clusters, where the
// class-aware model and simulator must agree.
func Hetero(reg *obs.Registry) *Suite {
	s := New("diff-hetero", RandomHeteroTuple, false, reg)
	s.Trials = 512
	return s
}

// New builds the suite over an arbitrary generator. Only the first
// finding of a trial is shrunk and reported (the rest are usually the
// same root cause seen through different invariants).
func New(name string, gen func(*rand.Rand) Tuple, effectsOn bool, reg *obs.Registry) *Suite {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	trials, shrinks := reg.Counter(obs.DiffTrialsTotal), reg.Counter(obs.DiffShrinkStepsTotal)
	s := &Suite{Scenario: chaos.Scenario{Name: name, Trials: 5000, LogEvery: 1024}}
	s.Trial = func(rng *rand.Rand, _ int64) (bool, *chaos.Violation) {
		t := gen(rng)
		findings, band := Check(&t, effectsOn)
		trials.Inc()
		if !math.IsNaN(band) {
			s.samples = append(s.samples, band)
		}
		if len(findings) == 0 {
			return true, nil
		}
		f := findings[0]
		shrunk, steps := Shrink(t, f.Kind, effectsOn)
		// Re-check the shrunken tuple for the detail to report: the
		// minimal form's message is the one worth reading.
		for _, sf := range ReplayTuple(shrunk, effectsOn) {
			if sf.Kind == f.Kind {
				f.Detail = sf.Detail
				break
			}
		}
		reg.Counter(obs.Labeled(obs.DiffViolationsTotal, "kind", f.Kind)).Inc()
		shrinks.Add(int64(steps))
		return false, &chaos.Violation{Kind: f.Kind, Detail: f.Detail, Repro: shrunk, ShrinkSteps: steps}
	}
	return s
}

// Band is the percentile summary of the samples collected so far.
func (s *Suite) Band() BandStats {
	if len(s.samples) == 0 {
		return BandStats{}
	}
	sorted := append([]float64(nil), s.samples...)
	sort.Float64s(sorted)
	q := func(p float64) float64 { return sorted[int(p*float64(len(sorted)-1))] }
	return BandStats{
		Samples: len(sorted),
		Min:     sorted[0],
		P50:     q(0.50),
		P95:     q(0.95),
		Max:     sorted[len(sorted)-1],
	}
}

// ReplayTuple re-runs one tuple (typically a violation's repro, loaded
// from its JSON file) and returns its findings.
func ReplayTuple(t Tuple, effectsOn bool) []Finding {
	findings, _ := Check(&t, effectsOn)
	return findings
}
