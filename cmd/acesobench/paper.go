package main

// The paper targets: Figure 1, Exp#1-9 (Figures 7-16, Tables 3-5), the
// §5.4 case studies, the §1 shared-cluster scenario and this
// implementation's ablations. Each renders its table to stdout and,
// under -csv, writes the same rows as CSV; none has a report or a gate.
// internal/exps does the work.

import (
	"fmt"
	"io"

	"aceso/internal/exps"
)

// paper wraps a render-only experiment as a target of "all".
func paper(name, doc string, run func(*env) error) target {
	return target{name: name, doc: doc, inAll: true,
		run: func(e *env) (any, []string, error) { return nil, nil, run(e) }}
}

// e2e is a target rendered from the end-to-end comparison, which runs
// once per invocation however many of its five views are selected.
func e2e(name, doc string, render func(*exps.E2E, io.Writer)) target {
	return paper(name, doc, func(e *env) error {
		if e.e2eRun == nil {
			fmt.Fprintf(e.w, "running end-to-end comparison (budget %v/search, %d sizes)...\n", e.set.Budget, e.set.Sizes)
			run, err := exps.RunE2E(e.set, nil)
			if err != nil {
				return err
			}
			if err := e.csv("e2e.csv", run.WriteCSV); err != nil {
				return err
			}
			e.e2eRun = run
		}
		render(e.e2eRun, e.w)
		return nil
	})
}

// figure is a target computed in one call: run produces the rows,
// render prints them and writeCSV, when the figure has a CSV form,
// writes them as <name>.csv.
func figure[R any](name, doc string, run func(exps.Settings) (R, error),
	render func(io.Writer, R), writeCSV func(io.Writer, R) error) target {
	return paper(name, doc, func(e *env) error {
		rows, err := run(e.set)
		if err != nil {
			return err
		}
		render(e.w, rows)
		if writeCSV == nil {
			return nil
		}
		return e.csv(name+".csv", func(f io.Writer) error { return writeCSV(f, rows) })
	})
}

// curves is a convergence-curve figure; its doc line is the figure's
// title.
func curves(name, doc string, run func(exps.Settings) (map[string][]exps.Curve, error)) target {
	return figure(name, doc, run,
		func(w io.Writer, groups map[string][]exps.Curve) { exps.RenderCurves(w, doc, groups) }, exps.WriteCurvesCSV)
}
