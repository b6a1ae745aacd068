// Command acesobench regenerates the paper's evaluation (DESIGN.md §4)
// and runs the repository's correctness gates. Each is a target in the
// registry below; `acesobench -list` prints them with what they do.
//
// Usage:
//
//	acesobench [flags] [targets...]
//
// With no target, or "all", the paper's figures and tables run. Every
// target prints its tables and, under -csv, writes each as CSV; a
// failed gate exits 1. Exit status 2 means the command line named no
// runnable target. The searches the gated targets run are pinned in
// internal/core/testdata/determinism.json, not here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"aceso/internal/chaos"
	"aceso/internal/exps"
)

// target is one thing acesobench can run.
type target struct {
	name string
	doc  string // one line for -list
	// inAll marks the paper's figures and tables, which "all" selects.
	inAll bool
	// run does the work, printing progress to env.w, and returns the
	// tables main prints and writes; failed names every acceptance gate
	// that did not hold; err is a run that could not finish.
	run func(*env) (tables []exps.Table, failed []string, err error)
}

// registry lists the targets in the order a multi-target invocation
// runs them. Every "trials" below is one chaos.Run per scenario under
// -trials and -duration (runTrials).
var registry = []target{
	paper("fig1", "configuration-space size vs layers and mechanisms (analytic)",
		func(*env) ([]exps.Table, error) { return exps.Fig1(nil), nil }),
	paper("fig7", "Exp#1: throughput of Aceso vs Megatron-grid vs Alpa-like", e2e((*exps.E2E).Fig7)),
	paper("fig8", "Exp#2: search cost of Aceso vs Alpa-like", e2e((*exps.E2E).Fig8)),
	paper("tables", "Tables 3-5: TFLOPS per GPU for GPT-3, Wide-ResNet, T5", e2e((*exps.E2E).TFLOPS)),
	paper("fig15", "Exp#8: predicted vs simulated iteration time", e2e((*exps.E2E).Fig15)),
	paper("fig16", "Exp#9: predicted vs simulated peak memory", e2e((*exps.E2E).Fig16)),
	paper("fig9", "Exp#3: scalability to 1K layers on 8 GPUs",
		tabled(func(s exps.Settings) (exps.Fig9Rows, error) { return exps.Fig9(s, nil) })),
	paper("fig10", "Exp#4: explored configurations and plan quality, pruned DP vs Aceso", tabled(exps.Fig10)),
	paper("fig11", "Exp#5: bottlenecks and hops tried per improving iteration", tabled(exps.Fig11)),
	paper("fig12", "Exp#5: convergence with vs without Heuristic-2", tabled(exps.Fig12)),
	paper("fig13", "Exp#6: convergence under different MaxHops", tabled(exps.Fig13)),
	paper("fig14", "Exp#7: robustness to the initial configuration", tabled(exps.Fig14)),
	paper("ablations", "this implementation's own design ablations", tabled(exps.Ablations)),
	{name: "scale", run: runScale,
		doc: "fixed-iteration searches on 1024/2048/4096 synthetic V100s: explored counts, allocation, 4096-vs-1024 linearity gate"},
	paper("cases", "§5.4 case studies", tabled(exps.Cases)),
	paper("shared", "§1: samples a job trains on a shared cluster whose allocation keeps changing, cold vs warm Aceso vs Alpa-like",
		tabled(exps.SharedCluster)),
	{name: "trace", run: runTrace,
		doc: "the fixed-iteration GPT-3 2.6B/16-V100 search with the JSONL, convergence and breakdown-audit tracers and the metrics registry attached; also writes BENCH_trace.jsonl; fails on any audit violation"},
	{name: "diff", run: runDiff,
		doc: "randomized model-vs-simulator trials, effects off then effects on; a shrunken repro file per violation; fails on any invariant violation"},
	{name: "hetero", run: runHetero,
		doc: "GPT-3 1.3B on 8 A100 + 8 V100 vs the best class-blind plan re-priced there, then model-vs-simulator trials on mixed clusters"},
	{name: "churn", run: runChurn,
		doc: "elastic.Supervise through a seeded 22-event schedule, then one-fault and churn trials; fails unless it rejoins the uninterrupted run within 1e-9"},
	{name: "spot", run: runSpot,
		doc: "expected-time vs nominal-time planning and a replayed reclaim trace on spot capacity, then spot trials; fails under 1.2x achieved speedup or on a lossy aware replay"},
	{name: "chaos", run: func(e *env) ([]exps.Table, []string, error) { return nil, runTrials(e, chaos.Search).Violations, nil },
		doc: "fault-injection trials against the search; fails on any panic, invalid plan or non-finite score"},
}

// env is what the command line hands every target.
type env struct {
	w        io.Writer
	set      exps.Settings // -budget and -sizes for the paper targets, -seed for all
	csvDir   string
	outDir   string
	trials   int // 0: the target's own default
	duration time.Duration

	e2eRun *exps.E2E // the end-to-end run fig7, fig8, fig15, fig16 and tables share
}

// writeFile creates path and fills it with what write produces.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// csv writes every table that has columns into the -csv directory, if
// one was given: <name>.csv, or <name>_<key>.csv for a keyed table, its
// key's spaces made '-' and its commas and parentheses dropped.
func (e *env) csv(name string, tables []exps.Table) error {
	if e.csvDir == "" {
		return nil
	}
	for _, t := range tables {
		if len(t.Cols) == 0 {
			continue
		}
		file := name
		if t.Key != "" {
			file += "_" + strings.NewReplacer(" ", "-", ",", "", "(", "", ")", "").Replace(t.Key)
		}
		if err := writeFile(filepath.Join(e.csvDir, file+".csv"), t.WriteCSV); err != nil {
			return err
		}
	}
	return nil
}

// logf is the progress logger handed to the trial harnesses.
func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.w, format+"\n", args...)
}

// gates collects the acceptance gates of one run that did not hold.
type gates struct{ failed []string }

func (g *gates) gate(ok bool, format string, args ...any) {
	if !ok {
		g.failed = append(g.failed, fmt.Sprintf(format, args...))
	}
}

// writeJSON writes v to path as indented JSON.
func writeJSON(path string, v any) error {
	return writeFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	})
}

// startProfiles starts the CPU profile and returns the function that
// finishes it and writes the allocation profile. The profiles cover
// everything the invocation runs, and main finishes them on a failing
// target too, so a profile of the run that exposed a regression is
// never lost (DESIGN.md §5g has the workflow).
func startProfiles(cpuPath, memPath string) (finish func(), err error) {
	var cpuF *os.File
	if cpuPath != "" {
		if cpuF, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuF); err != nil {
			cpuF.Close()
			return nil, err
		}
	}
	return func() {
		if cpuF != nil {
			pprof.StopCPUProfile()
			cpuF.Close()
		}
		if memPath == "" {
			return
		}
		f, err := os.Create(memPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "acesobench: -memprofile: %v\n", err)
			return
		}
		runtime.GC() // materialize the final live set
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "acesobench: -memprofile: %v\n", err)
		}
		f.Close()
	}, nil
}

// selectTargets resolves the command line's target names against the
// registry, in registry order.
func selectTargets(names []string) ([]target, error) {
	if len(names) == 0 {
		names = []string{"all"}
	}
	valid := []string{"all"}
	for _, t := range registry {
		valid = append(valid, t.name)
	}
	want := map[string]bool{}
	for _, n := range names {
		if !slices.Contains(valid, n) {
			return nil, fmt.Errorf("unknown target %q; valid targets: %s", n, strings.Join(valid, " "))
		}
		want[n] = true
	}
	var sel []target
	for _, t := range registry {
		if want[t.name] || (t.inAll && want["all"]) {
			sel = append(sel, t)
		}
	}
	return sel, nil
}

// usageError reports a command line that names nothing runnable.
func usageError(err error) {
	fmt.Fprintln(os.Stderr, "acesobench:", err)
	os.Exit(2)
}

func main() {
	e := &env{w: os.Stdout}
	flag.DurationVar(&e.set.Budget, "budget", 2*time.Second, "per-search time budget of the paper targets (the paper used 200s)")
	flag.IntVar(&e.set.Sizes, "sizes", 5, "how many of the 5 model sizes the paper targets run (1-5)")
	flag.Int64Var(&e.set.Seed, "seed", 1, "deterministic seed")
	flag.StringVar(&e.csvDir, "csv", "", "also write every target's tables as CSV into this directory")
	flag.StringVar(&e.outDir, "outdir", ".", "directory the trace target's event stream and the trials' repro files are written to")
	flag.IntVar(&e.trials, "trials", 0, "randomized trials per scenario of the diff, hetero, churn, spot and chaos targets (0 = until -duration, or the scenario's own count)")
	flag.DurationVar(&e.duration, "duration", 0, "wall budget per scenario of the same targets (0 = none)")
	list := flag.Bool("list", false, "print the targets and exit")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile covering the selected targets to this file")
	memProfile := flag.String("memprofile", "", "write a pprof allocation profile to this file on exit")
	flag.Parse()
	if *list {
		for _, t := range registry {
			fmt.Fprintf(e.w, "%-10s %s\n", t.name, t.doc)
		}
		return
	}

	targets, err := selectTargets(flag.Args())
	if err != nil {
		usageError(err)
	}
	if e.csvDir != "" {
		if err := os.MkdirAll(e.csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "acesobench:", err)
			os.Exit(1)
		}
	}
	finishProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "acesobench: -cpuprofile:", err)
		os.Exit(1)
	}

	for _, t := range targets {
		if !t.inAll { // the paper targets title their own tables
			fmt.Fprintf(e.w, "running %s (seed %d)...\n", t.name, e.set.Seed)
		}
		tables, failed, err := t.run(e)
		if err == nil {
			exps.Print(e.w, tables)
			err = e.csv(t.name, tables)
		}
		if err != nil {
			failed = append(failed, err.Error())
		}
		if len(failed) > 0 {
			finishProfiles()
			for _, f := range failed {
				fmt.Fprintf(os.Stderr, "acesobench: %s: %s\n", t.name, f)
			}
			os.Exit(1)
		}
		fmt.Fprintln(e.w)
	}
	finishProfiles()
}
