package main

// The randomized validation targets: diff (performance model vs
// simulator, internal/diffcheck) and chaos (fault injection against the
// search, internal/chaos), plus the chaos pass the recovery targets
// append to their reports.

import (
	"fmt"
	"path/filepath"

	"aceso/internal/chaos"
	"aceso/internal/diffcheck"
	"aceso/internal/obs"
)

// diffReport is the BENCH_diff.json schema: one report per checked
// mode, the metrics snapshot, and pointers to any repro files written
// alongside.
type diffReport struct {
	Setting    string              `json:"setting"`
	Reports    []*diffcheck.Report `json:"reports"`
	ReproFiles []string            `json:"repro_files,omitempty"`
	Metrics    *obs.Registry       `json:"metrics"`
}

// runDiff cross-checks perfmodel.Estimate against pipesim on randomized
// tuples, once with effects off (the hard invariants) and once with
// effects on (the calibration band), and writes one repro file per
// shrunken violation.
func runDiff(e *env) (any, []string, error) {
	reg := obs.NewRegistry()
	out := &diffReport{Metrics: reg}
	var g gates
	for _, effectsOn := range []bool{false, true} {
		rep := diffcheck.Run(diffcheck.Options{
			Trials:    e.trials,
			Seed:      e.set.Seed,
			EffectsOn: effectsOn,
			Metrics:   reg,
			Log:       e.logf,
		})
		fmt.Fprint(e.w, rep.Summary())
		out.Reports = append(out.Reports, rep)
		for _, v := range rep.Violations {
			name := filepath.Join(e.outDir, fmt.Sprintf("BENCH_diff_repro_%03d.json", len(out.ReproFiles)))
			if err := writeReport(name, v); err != nil {
				return nil, nil, err
			}
			out.ReproFiles = append(out.ReproFiles, name)
			g.gate(false, "invariant violation, shrunken repro → %s", name)
		}
	}
	out.Setting = fmt.Sprintf("randomized model-vs-simulator tuples, %d trials/mode, seed %d", out.Reports[0].Trials, e.set.Seed)
	return out, g.failed, nil
}

// chaosVerdict is the randomized-chaos block of a recovery report.
type chaosVerdict struct {
	ChaosTrials       int      `json:"chaos_trials"`
	ChaosSurvivedRuns int      `json:"chaos_survived_runs"`
	ChaosTypedErrs    int      `json:"chaos_typed_errors"`
	ChaosViolations   []string `json:"chaos_violations,omitempty"`
}

// runChaos runs each scenario under opts and sums the verdicts; every
// violation is a failed gate of the calling target.
func runChaos(e *env, opts chaos.Options, scenarios ...chaos.Scenario) chaosVerdict {
	opts.Seed = e.set.Seed
	opts.Log = e.logf
	var out chaosVerdict
	for _, sc := range scenarios {
		rep := chaos.Run(sc, opts)
		fmt.Fprint(e.w, rep.Summary())
		out.ChaosTrials += rep.Trials
		out.ChaosSurvivedRuns += rep.Plans
		out.ChaosTypedErrs += rep.TypedErrs
		for _, v := range rep.Violations {
			out.ChaosViolations = append(out.ChaosViolations,
				fmt.Sprintf("%s trial %d seed %d [%s]: %s", sc, v.Trial, v.Seed, v.Kind, v.Detail))
		}
	}
	return out
}

// runChaosTarget throws degraded and corrupted clusters at the search
// for -duration, or for -trials trials when that is set.
func runChaosTarget(e *env) (any, []string, error) {
	opts := chaos.Options{Trials: e.trials}
	if e.trials == 0 {
		opts.Duration = e.duration
	}
	return nil, runChaos(e, opts, chaos.Search).ChaosViolations, nil
}
