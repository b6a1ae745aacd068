package main

// The paper targets: Figure 1, Exp#1-9 (Figures 7-16, Tables 3-5), the
// §5.4 case studies, the §1 shared-cluster scenario and this
// implementation's ablations. Each computes a list of tables, prints
// them to stdout and, under -csv, writes the same rows as CSV, like
// every target; none has a gate. internal/exps does the work.

import (
	"fmt"

	"aceso/internal/exps"
)

// paper is a paper target: a member of "all" with no gate.
func paper(name, doc string, run func(*env) ([]exps.Table, error)) target {
	return target{name: name, doc: doc, inAll: true, run: func(e *env) ([]exps.Table, []string, error) {
		tables, err := run(e)
		return tables, nil, err
	}}
}

// tabled is an experiment run under the command line's settings.
func tabled[R interface{ Tables() []exps.Table }](run func(exps.Settings) (R, error)) func(*env) ([]exps.Table, error) {
	return func(e *env) ([]exps.Table, error) {
		r, err := run(e.set)
		if err != nil {
			return nil, err
		}
		return r.Tables(), nil
	}
}

// e2e is a view of the end-to-end comparison, which runs the first time
// one of its five views is asked for and writes its cells as e2e.csv;
// later views reuse the run.
func e2e(view func(*exps.E2E) []exps.Table) func(*env) ([]exps.Table, error) {
	return func(e *env) ([]exps.Table, error) {
		if e.e2eRun == nil {
			fmt.Fprintf(e.w, "running end-to-end comparison (budget %v/search, %d sizes)...\n", e.set.Budget, e.set.Sizes)
			run, err := exps.RunE2E(e.set, nil)
			if err != nil {
				return nil, err
			}
			if err := e.csv("e2e", run.Raw()); err != nil {
				return nil, err
			}
			e.e2eRun = run
		}
		return view(e.e2eRun), nil
	}
}
