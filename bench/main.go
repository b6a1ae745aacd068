// Command bench is the repository's performance benchmark: four
// workloads over the planner's two user-facing surfaces (the search
// library call and the acesod HTTP service), seven end-to-end metrics
// each, and a per-layer ledger taken from outside the program. See
// README.md; BENCHMARK.json at the repository root is the contract.
//
//	go run -C bench . -workload search-deep -seed 1 -seconds 24 -trace 0
//	go run -C bench .                 # all four workloads, one child process each
//	go run -C bench . -trace 1        # the per-layer ledger and out/trace-*.json
//	go run -C bench . -repeat 10      # the repeatability table
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 24

// setups is how many times an untraced run sets the workload up; the
// median is reported, so one slow set-up (the first pays the process's
// page faults) does not decide setup_s.
const setups = 3

// metricDef names a metric; bound is an end-to-end metric's regression
// bound, the share of the parent's median by which it may worsen.
type metricDef struct {
	name, unit string
	bound      float64
}

// endToEnd lists the metrics of an untraced run, as BENCHMARK.json does.
var endToEnd = []metricDef{
	{"setup_s", "s", 0.25},
	{"op_s_p50", "s", 0.25},
	{"op_s_p95", "s", 0.25},
	{"ops_per_s", "1/s", 0.25},
	{"alloc_mb_per_op", "MB", 0.02},
	{"rss_mb_p50", "MB", 0.20},
	{"plan_iter_s", "s/iter", 0.001},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "run this workload in this process (default: all, one child process each)")
	seed := flag.Int64("seed", 1, "generator seed")
	seconds := flag.Float64("seconds", defaultSeconds, "length of the measured phase")
	trace := flag.Int("trace", 0, "1: record spans and print the per-layer metrics instead of the end-to-end ones")
	repeat := flag.Int("repeat", 0, "run the untraced suite N times on seeds 1..N and print each metric's spread against its bound")
	quick := flag.Bool("quick", false, "tiny inputs and phases, for the smoke test")
	flag.Parse()

	var err error
	switch {
	case *repeat > 0:
		err = runRepeat(*repeat, *seconds)
	case *name == "":
		err = runSuite(*seed, *seconds, *trace, *quick)
	default:
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		// The reference box has two cores, and a search runs its tasks
		// side by side on them. serve-hit gets one: client, server and
		// collector then take turns on one thread, and what is timed is
		// their work, not the scheduler's hand-overs between two virtual
		// CPUs of a shared host.
		runtime.GOMAXPROCS(min(w.procs, runtime.NumCPU()))
		e := env{seed: *seed, quick: *quick, seconds: *seconds, out: "out"}
		var res *result
		if *trace != 0 {
			res, err = runTraced(w, e)
		} else {
			res, err = runUntraced(w, e)
		}
		if err == nil {
			err = printResult(res)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// printResult writes the result line; a run that is not correct exits
// non-zero after printing it.
func printResult(res *result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d of %d ops failed or an end-of-run check did not hold", res.Failed, res.Attempted)
	}
	return nil
}

// setUp builds the workload and runs its warm-up ops, so that caches
// are full and lazy initialisation is over before anything is timed,
// and so that work a change moves into set-up shows in setup_s.
func setUp(w *workload, e env, tr *tracer) (instance, error) {
	inst, err := w.setup(w, e, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	warm := w.warmup
	if e.quick {
		warm = min(warm, 2)
	}
	for i := 0; i < warm; i++ {
		if _, _, fail := inst.op(nil); fail != "" {
			return nil, errors.Join(fmt.Errorf("%s: warm-up op %d: %s", w.name, i, fail), inst.close())
		}
	}
	// Collect, and hand freed pages back, so that every phase starts
	// from the same resident set: what set-up's searches left behind is
	// otherwise released at the scavenger's leisure, during the phase.
	debug.FreeOSMemory()
	return inst, nil
}

// allocatedBytes reads the bytes the process has allocated so far;
// unlike runtime.ReadMemStats it does not stop the world, so it can be
// read after every op.
func allocatedBytes(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func allocSample() []metrics.Sample { return []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}} }

// phase is what one measured phase recorded.
type phase struct {
	samples []sample
	alloc0  uint64    // the allocation counter when it began
	rssMB   []float64 // the resident set, every 50 ms
	reasons []string  // why its first few failed ops failed
}

// runPhase runs ops closed-loop for d: the one client starts its next
// op when the previous one has completed.
func runPhase(inst instance, d time.Duration, tr *tracer) (*phase, error) {
	buf, err := newSampleBuf()
	if err != nil {
		return nil, err
	}
	ph := &phase{}
	rss := startRSSSampler()
	as := allocSample()
	ph.alloc0 = allocatedBytes(as)
	begin := time.Now()
	for time.Since(begin) < d {
		start, end, fail := inst.op(tr)
		buf = append(buf, sample{start.Sub(begin).Seconds(), end.Sub(begin).Seconds(), allocatedBytes(as), fail != ""})
		if fail != "" && len(ph.reasons) < 3 {
			ph.reasons = append(ph.reasons, fail)
		}
	}
	if ph.rssMB, err = rss.finish(); err != nil {
		return nil, err
	}
	ph.samples = append(ph.samples, buf...)
	return ph, freeSampleBuf(buf)
}

// countFailed counts failed samples and prints the reasons kept.
func countFailed(name string, s []sample, reasons []string) int {
	failed := 0
	for _, x := range s {
		if x.failed {
			failed++
		}
	}
	for _, r := range reasons {
		fmt.Fprintf(os.Stderr, "bench: %s: op failed: %s\n", name, r)
	}
	return failed
}

func phaseLength(seconds float64) time.Duration {
	return time.Duration(seconds * float64(time.Second))
}

// runUntraced is one end-to-end run: set up (several times, median
// reported), measure for e.seconds, check, report.
func runUntraced(w *workload, e env) (*result, error) {
	n := setups
	if e.quick {
		n = 1
	}
	var inst instance
	var setupS []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			if err := inst.close(); err != nil {
				return nil, err
			}
		}
		started := time.Now()
		var err error
		if inst, err = setUp(w, e, nil); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(started).Seconds())
	}

	ph, err := runPhase(inst, phaseLength(e.seconds), nil)
	if err != nil {
		return nil, err
	}
	samples := ph.samples
	failed := countFailed(w.name, samples, ph.reasons)
	iterTimes, checkErr := inst.finish(nil)
	if checkErr != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: end-of-run check: %v\n", w.name, checkErr)
	}
	if err := inst.close(); err != nil {
		return nil, err
	}

	ok := durations(samples)
	res := &result{
		Correct:   checkErr == nil && failed == 0 && len(ok) > 0,
		Attempted: len(samples),
		Failed:    failed,
		Metrics:   make(map[string]metric),
	}
	p50, p95, opsPerS, bytesPerOp := quietQuartile(samples, ph.alloc0, batches)
	values := map[string]float64{
		"setup_s":         median(setupS),
		"op_s_p50":        p50,
		"op_s_p95":        p95,
		"ops_per_s":       opsPerS,
		"alloc_mb_per_op": bytesPerOp / 1e6,
		"rss_mb_p50":      median(ph.rssMB),
		"plan_iter_s":     geomean(iterTimes),
	}
	fmt.Printf("%s  seed %d  %d ops in %.1f s  (%d failed, %d pinned inputs planned)\n",
		w.name, e.seed, len(samples), e.seconds, failed, len(iterTimes))
	for _, d := range endToEnd {
		res.Metrics[d.name] = metric{values[d.name], d.unit}
		fmt.Printf("  %-18s %14.6g %s\n", d.name, values[d.name], d.unit)
	}
	return res, nil
}
