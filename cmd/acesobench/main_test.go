package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"aceso/internal/chaos"
	"aceso/internal/diffcheck"
)

var binPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "acesobench-cli")
	if err != nil {
		os.Exit(1)
	}
	binPath = filepath.Join(dir, "acesobench")
	if out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput(); err != nil {
		os.Stderr.Write(out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func TestBenchFig1(t *testing.T) {
	out, err := exec.Command(binPath, "fig1").CombinedOutput()
	if err != nil {
		t.Fatalf("fig1 failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "Figure 1") {
		t.Errorf("output:\n%s", out)
	}
}

func TestBenchFig7WithCSV(t *testing.T) {
	dir := t.TempDir()
	out, err := exec.Command(binPath,
		"-budget", "200ms", "-sizes", "1", "-csv", dir, "fig7", "cases").CombinedOutput()
	if err != nil {
		t.Fatalf("fig7 failed: %v\n%s", err, out)
	}
	s := string(out)
	if !strings.Contains(s, "Figure 7") || !strings.Contains(s, "case studies") {
		t.Errorf("output:\n%s", s)
	}
	csv, err := os.ReadFile(filepath.Join(dir, "e2e.csv"))
	if err != nil {
		t.Fatalf("e2e.csv missing: %v", err)
	}
	if !strings.Contains(string(csv), "family,size,gpus") {
		t.Errorf("csv header missing:\n%s", csv)
	}
	// Each target writes its own tables: one file per family, per case.
	for _, name := range []string{"fig7_gpt3", "fig7_wresnet", "fig7_t5", "cases_gpt3-1.3B", "cases_wresnet-6.8B"} {
		if _, err := os.Stat(filepath.Join(dir, name+".csv")); err != nil {
			t.Errorf("%s.csv missing: %v", name, err)
		}
	}
}

func TestBenchFig10(t *testing.T) {
	if testing.Short() {
		t.Skip("fig10's DP comparator is deliberately expensive")
	}
	out, err := exec.Command(binPath, "-budget", "200ms", "fig10").CombinedOutput()
	if err != nil {
		t.Fatalf("fig10 failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "Figure 10") {
		t.Errorf("output:\n%s", out)
	}
}

// TestCommandLine pins the exit convention: a command line that names
// nothing runnable exits 2 before anything runs or is written, and
// -list names every registered target. A gated target prints and writes
// tables, like a paper target, and no report.
func TestCommandLine(t *testing.T) {
	dir, gateOut, gateCSV := t.TempDir(), t.TempDir(), t.TempDir()
	var names []string
	for _, tg := range registry {
		names = append(names, tg.name)
	}
	for _, tc := range []struct {
		name     string
		args     []string
		wantExit int
		wantOut  []string
	}{
		{"unknown target", []string{"nosuchtarget"}, 2, append([]string{`unknown target "nosuchtarget"`}, names...)},
		{"deleted serve target", []string{"fig1", "serve"}, 2, []string{`unknown target "serve"`}},
		{"deleted search target", []string{"search"}, 2, []string{`unknown target "search"`}},
		{"deleted guard flag", []string{"-guard", "-outdir", dir, "spot"}, 2, []string{"flag provided but not defined: -guard"}},
		{"list", []string{"-list"}, 0, names},
		{"gated target writes tables", []string{"-trials", "2", "-outdir", gateOut, "-csv", gateCSV, "diff"}, 0,
			[]string{"diff-effects-off", "diff-effects-on", "p50"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command(binPath, tc.args...).CombinedOutput()
			exit := 0
			var ee *exec.ExitError
			if errors.As(err, &ee) {
				exit = ee.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			if exit != tc.wantExit {
				t.Errorf("exit %d, want %d\n%s", exit, tc.wantExit, out)
			}
			for _, want := range tc.wantOut {
				if !strings.Contains(string(out), want) {
					t.Errorf("output lacks %q:\n%s", want, out)
				}
			}
			if strings.Contains(string(out), "Figure 1:") {
				t.Errorf("a target ran on a refused command line:\n%s", out)
			}
		})
	}
	if files, _ := os.ReadDir(dir); len(files) > 0 {
		t.Errorf("a refused command line wrote %d files to -outdir", len(files))
	}
	if csv, err := os.ReadFile(filepath.Join(gateCSV, "diff.csv")); err != nil || !strings.HasPrefix(string(csv), "mode,trials,") {
		t.Errorf("diff.csv: %v\n%s", err, csv)
	}
	if _, err := os.Stat(filepath.Join(gateOut, "BENCH_diff.json")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("diff wrote a report: %v", err)
	}
}

// TestSpotReplayLedger pins the decisions of the spot target's replay,
// read from its replay table: lost steps and clean drains of the
// risk-aware run, then of the risk-blind one. The searches the target
// runs are determinism rows.
func TestSpotReplayLedger(t *testing.T) {
	e := &env{w: io.Discard, outDir: t.TempDir(), trials: 1}
	e.set.Seed = 1
	tables, failed, err := runSpot(e)
	if err != nil || len(failed) > 0 {
		t.Fatalf("spot: %v %v", err, failed)
	}
	var got [4]int
	for _, tb := range tables {
		if tb.Key != "replay" {
			continue
		}
		for c, col := range tb.Cols {
			switch col.Head {
			case "steps lost":
				got[0], got[2] = tb.Rows[0][c].(int), tb.Rows[1][c].(int)
			case "clean drains":
				got[1], got[3] = tb.Rows[0][c].(int), tb.Rows[1][c].(int)
			}
		}
	}
	if want := [4]int{0, 5, 15, 0}; got != want {
		t.Errorf("replay lost steps and clean drains (aware, blind) %v, want %v", got, want)
	}
}

// TestRunTrialsWritesRepro forces violations through the one trial
// path — a differential suite whose generator sometimes emits a tuple
// Build refuses — and requires what the diff and hetero targets
// promise: each violation fails the target, names its repro file, and
// the file holds a shrunken tuple that diffcheck.ReplayTuple replays to
// the same finding. -trials bounds the run like any other scenario.
func TestRunTrialsWritesRepro(t *testing.T) {
	gen := func(rng *rand.Rand) diffcheck.Tuple {
		tup := diffcheck.RandomTuple(rng)
		if rng.Intn(4) == 0 {
			tup.Stages = 2 * tup.Ops
		}
		return tup
	}
	var out bytes.Buffer
	e := &env{w: &out, outDir: t.TempDir(), trials: 40}
	e.set.Seed = 1
	v := runTrials(e, diffcheck.New("forced", gen, false, nil).Scenario, chaos.Search)
	if v.Trials != 80 || v.Passed+v.TypedErrs+len(v.Violations) != 80 {
		t.Fatalf("verdict %+v, want 40 trials of each of two scenarios accounted for\n%s", v, &out)
	}
	files, err := filepath.Glob(filepath.Join(e.outDir, "BENCH_forced_repro_*.json"))
	if err != nil || len(files) == 0 || len(files) != len(v.Violations) {
		t.Fatalf("%d repro files for %d violations (%v)\n%s", len(files), len(v.Violations), err, &out)
	}
	for i, name := range files {
		if !strings.Contains(v.Violations[i], name) {
			t.Errorf("violation %q does not name its repro %s", v.Violations[i], name)
		}
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		var repro struct {
			Kind        string          `json:"kind"`
			Detail      string          `json:"detail"`
			Repro       diffcheck.Tuple `json:"repro"`
			ShrinkSteps int             `json:"shrink_steps"`
		}
		if err := json.Unmarshal(raw, &repro); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		f := diffcheck.ReplayTuple(repro.Repro, false)
		if len(f) != 1 || f[0].Kind != repro.Kind || f[0].Detail != repro.Detail || repro.ShrinkSteps == 0 {
			t.Errorf("%s replays to %+v, the file says %s: %s after %d shrink steps", name, f, repro.Kind, repro.Detail, repro.ShrinkSteps)
		}
	}
}
