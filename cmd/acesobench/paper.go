package main

// The paper targets: Figure 1, Exp#1-9 (Figures 7-16, Tables 3-5), the
// §5.4 case studies and this implementation's ablations. Each renders
// its table to stdout and, under -csv, writes the same rows as CSV;
// none has a report or a gate. internal/exps does the work.

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

// curves is a convergence-curve figure; its doc line is the figure's
// title.
func curves(name, doc string, run func(exps.Settings) (map[string][]exps.Curve, error)) target {
	return paper(name, doc, func(e *env) error {
		groups, err := run(e.set)
		if err != nil {
			return err
		}
		exps.RenderCurves(e.w, doc, groups)
		return e.csv(name+".csv", func(f io.Writer) error { return exps.WriteCurvesCSV(f, groups) })
	})
}

func fig1(e *env) error {
	rows := exps.Fig1(nil)
	exps.RenderFig1(e.w, rows)
	return e.csv("fig1.csv", func(f io.Writer) error { return exps.WriteFig1CSV(f, rows) })
}

func fig9(e *env) error {
	rows, err := exps.Fig9(e.set, nil)
	if err != nil {
		return err
	}
	exps.RenderFig9(e.w, rows)
	return e.csv("fig9.csv", func(f io.Writer) error { return exps.WriteFig9CSV(f, rows) })
}

func fig10(e *env) error {
	rows, err := exps.Fig10(e.set)
	if err != nil {
		return err
	}
	exps.RenderFig10(e.w, rows)
	return e.csv("fig10.csv", func(f io.Writer) error { return exps.WriteFig10CSV(f, rows) })
}

func fig11(e *env) error {
	r, err := exps.Fig11(e.set)
	if err != nil {
		return err
	}
	exps.RenderFig11(e.w, r)
	return e.csv("fig11.csv", func(f io.Writer) error { return exps.WriteFig11CSV(f, r) })
}

func ablations(e *env) error {
	rows, memRatio, err := exps.Ablations(e.set)
	if err != nil {
		return err
	}
	exps.RenderAblations(e.w, rows, memRatio)
	return nil
}

func cases(e *env) error {
	cs, err := exps.Cases(e.set)
	if err != nil {
		return err
	}
	exps.RenderCases(e.w, cs)
	return nil
}
