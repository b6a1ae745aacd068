package main

// The randomized targets — diff (performance model vs simulator,
// internal/diffcheck) and chaos (fault injection against the search,
// internal/chaos) — and runTrials, the one place a scenario of either
// package meets the command line. The recovery and hetero targets
// append its verdict to their reports.

import (
	"fmt"
	"path/filepath"

	"aceso/internal/chaos"
	"aceso/internal/diffcheck"
	"aceso/internal/obs"
)

// trialVerdict is the randomized-trial block of a report.
type trialVerdict struct {
	Trials     int      `json:"chaos_trials"`
	Passed     int      `json:"chaos_survived_runs"`
	TypedErrs  int      `json:"chaos_typed_errors"`
	Violations []string `json:"chaos_violations,omitempty"`
}

// runTrials runs each scenario under -trials, -duration and -seed and
// sums the verdicts; every violation is a failed gate of the calling
// target, and one that carries a shrunken repro is written to
// <outdir>/BENCH_<scenario>_repro_<trial>.json.
func runTrials(e *env, scenarios ...chaos.Scenario) trialVerdict {
	var out trialVerdict
	for _, sc := range scenarios {
		rep := chaos.Run(sc, chaos.Options{Trials: e.trials, Duration: e.duration, Seed: e.set.Seed, Log: e.logf})
		fmt.Fprint(e.w, rep.Summary())
		out.Trials += rep.Trials
		out.Passed += rep.Passed
		out.TypedErrs += rep.TypedErrs
		for _, v := range rep.Violations {
			msg := fmt.Sprintf("%s %s", sc.Name, v)
			if v.Repro != nil {
				name := filepath.Join(e.outDir, fmt.Sprintf("BENCH_%s_repro_%06d.json", sc.Name, v.Trial))
				if err := writeReport(name, v); err != nil {
					name = fmt.Sprintf("not written: %v", err)
				}
				msg += "; repro → " + name
			}
			out.Violations = append(out.Violations, msg)
		}
	}
	return out
}

// diffMode is one checked mode of the diff target.
type diffMode struct {
	Mode string `json:"mode"`
	trialVerdict
	Band diffcheck.BandStats `json:"band"`
}

// diffReport is the BENCH_diff.json schema: one verdict and band per
// checked mode, and the metrics snapshot.
type diffReport struct {
	Setting string        `json:"setting"`
	Modes   []diffMode    `json:"modes"`
	Metrics *obs.Registry `json:"metrics"`
}

// runDiff cross-checks perfmodel.Estimate against pipesim on randomized
// tuples, once with effects off (the hard invariants) and once with
// effects on (the calibration band).
func runDiff(e *env) (any, []string, error) {
	reg := obs.NewRegistry()
	out := &diffReport{Metrics: reg}
	var failed []string
	for _, suite := range []*diffcheck.Suite{diffcheck.EffectsOff(reg), diffcheck.EffectsOn(reg)} {
		v := runTrials(e, suite.Scenario)
		band := suite.Band()
		fmt.Fprintf(e.w, "%s: band [%.4f, %.4f] p50 %.4f p95 %.4f over %d samples\n",
			suite.Name, band.Min, band.Max, band.P50, band.P95, band.Samples)
		out.Modes = append(out.Modes, diffMode{Mode: suite.Name, trialVerdict: v, Band: band})
		failed = append(failed, v.Violations...)
	}
	out.Setting = fmt.Sprintf("randomized model-vs-simulator tuples, %d trials/mode, seed %d", out.Modes[0].Trials, e.set.Seed)
	return out, failed, nil
}
