package main

// The randomized targets — diff (performance model vs simulator,
// internal/diffcheck) and chaos (fault injection against the search,
// internal/chaos) — and runTrials, the one place a scenario of either
// package meets the command line. The recovery and hetero targets
// table its tally beside their own.

import (
	"fmt"
	"path/filepath"

	"aceso/internal/chaos"
	"aceso/internal/diffcheck"
	"aceso/internal/exps"
)

// trialTally sums the chaos.Reports of one runTrials call.
type trialTally struct {
	Trials, Passed, TypedErrs int
	Violations                []string
}

// trialCols head a tally's cells.
var trialCols = []exps.Col{{Head: "trials"}, {Head: "passed"}, {Head: "typed errors"}, {Head: "violations"}}

func (v trialTally) cells() []any { return []any{v.Trials, v.Passed, v.TypedErrs, len(v.Violations)} }

// table is the tally as a target's "trials" table.
func (v trialTally) table() exps.Table {
	return exps.Table{Key: "trials", Title: "\nrandomized trials", Cols: trialCols, Rows: [][]any{v.cells()}}
}

// runTrials runs each scenario under -trials, -duration and -seed and
// sums the verdicts; every violation is a failed gate of the calling
// target, and one that carries a shrunken repro is written to
// <outdir>/BENCH_<scenario>_repro_<trial>.json.
func runTrials(e *env, scenarios ...chaos.Scenario) trialTally {
	var out trialTally
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
				if err := writeJSON(name, v); err != nil {
					name = fmt.Sprintf("not written: %v", err)
				}
				msg += "; repro → " + name
			}
			out.Violations = append(out.Violations, msg)
		}
	}
	return out
}

// runDiff cross-checks perfmodel.Estimate against pipesim on randomized
// tuples, once with effects off (the hard invariants) and once with
// effects on (the calibration band): one row per mode.
func runDiff(e *env) ([]exps.Table, []string, error) {
	t := exps.Table{
		Title: fmt.Sprintf("diff: randomized model-vs-simulator tuples, seed %d", e.set.Seed),
		Cols: append(append([]exps.Col{{Head: "mode"}}, trialCols...),
			exps.Col{Head: "band samples"}, exps.Col{Head: "min", Fmt: "%.4f"}, exps.Col{Head: "p50", Fmt: "%.4f"},
			exps.Col{Head: "p95", Fmt: "%.4f"}, exps.Col{Head: "max", Fmt: "%.4f"}),
	}
	var failed []string
	for _, suite := range []*diffcheck.Suite{diffcheck.EffectsOff(nil), diffcheck.EffectsOn(nil)} {
		v := runTrials(e, suite.Scenario)
		b := suite.Band()
		t.Rows = append(t.Rows, append(append([]any{suite.Name}, v.cells()...), b.Samples, b.Min, b.P50, b.P95, b.Max))
		failed = append(failed, v.Violations...)
	}
	return []exps.Table{t}, failed, nil
}
