package main

// The modes that run other runs: the whole suite (one fresh child
// process per workload, so the resident set and the allocator start clean)
// and the repeatability table.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// runChild runs one workload in a child process of this binary, passes
// its report through and returns its result line.
func runChild(name string, seed int64, seconds float64, trace int, quick bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-workload", name,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace),
	}
	if quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	last := lines[len(lines)-1]
	for _, l := range lines[:len(lines)-1] {
		fmt.Printf("%s\n", l)
	}
	if runErr != nil {
		return nil, fmt.Errorf("%s: %w (last line: %s)", name, runErr, last)
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("%s: result line %q: %w", name, last, err)
	}
	return &res, nil
}

// runSuite runs every workload once.
func runSuite(seed int64, seconds float64, trace int, quick bool) error {
	for _, w := range workloads {
		res, err := runChild(w.name, seed, seconds, trace, quick)
		if err != nil {
			return err
		}
		fmt.Printf("  %d attempted, %d failed\n\n", res.Attempted, res.Failed)
	}
	return nil
}

// runRepeat is the repeatability self-test: the untraced suite n times,
// on seeds 1..n as the driver does, then for every workload and metric
// the median, the range and the quartile spread as a share of the
// metric's bound. A spread above half its bound is unresolved and fails
// the self-test. The remedy is a longer run or a sturdier estimator;
// README.md says what those gave before each bound was set.
func runRepeat(n int, seconds float64) error {
	values := make(map[string]map[string][]float64) // workload → metric → one value per run
	for seed := int64(1); seed <= int64(n); seed++ {
		for _, w := range workloads {
			res, err := runChild(w.name, seed, seconds, 0, false)
			if err != nil {
				return err
			}
			if values[w.name] == nil {
				values[w.name] = make(map[string][]float64)
			}
			for name, m := range res.Metrics {
				values[w.name][name] = append(values[w.name][name], m.Value)
			}
		}
	}
	fmt.Printf("\n| workload | metric | median | min | max | spread | spread ÷ bound |\n|---|---|---|---|---|---|---|\n")
	var over []string
	for _, w := range workloads {
		for _, d := range endToEnd {
			v := sorted(values[w.name][d.name])
			spread := quartileSpread(v)
			share := spread / d.bound
			fmt.Printf("| %s | %s | %.6g %s | %.6g | %.6g | %.4f | %.2f |\n",
				w.name, d.name, median(v), d.unit, v[0], v[len(v)-1], spread, share)
			if share > 0.5 {
				over = append(over, w.name+" "+d.name)
			}
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("unresolved, spread above half the bound: %v", over)
	}
	return nil
}
