package main

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"aceso/internal/model"
	"aceso/internal/planserver"
)

var binPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "aceso-cli")
	if err != nil {
		os.Exit(1)
	}
	binPath = filepath.Join(dir, "aceso")
	if out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput(); err != nil {
		os.Stderr.Write(out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func run(t *testing.T, args ...string) (string, error) {
	t.Helper()
	out, err := exec.Command(binPath, args...).CombinedOutput()
	return string(out), err
}

func TestCLISearch(t *testing.T) {
	out, err := run(t, "search", "-model", "gpt3", "-size", "350M", "-gpus", "4", "-budget", "300ms")
	if err != nil {
		t.Fatalf("search failed: %v\n%s", err, out)
	}
	for _, want := range []string{"best configuration", "performance model", "simulated execution", "top candidates"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCLIEstimate(t *testing.T) {
	out, err := run(t, "estimate", "-model", "gpt3", "-size", "350M", "-gpus", "4",
		"-pp", "2", "-tp", "2", "-dp", "1", "-mbs", "2")
	if err != nil {
		t.Fatalf("estimate failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "feasible=true") {
		t.Errorf("estimate output:\n%s", out)
	}
	// Mismatched parallelism product must be rejected.
	out, err = run(t, "estimate", "-model", "gpt3", "-size", "350M", "-gpus", "4", "-pp", "1", "-tp", "1", "-dp", "1")
	if err == nil {
		t.Errorf("tp·dp·pp != gpus accepted:\n%s", out)
	}
}

func TestCLIProfileAndReuse(t *testing.T) {
	db := filepath.Join(t.TempDir(), "db.json")
	out, err := run(t, "profile", "-model", "gpt3", "-size", "350M", "-gpus", "4", "-o", db)
	if err != nil {
		t.Fatalf("profile failed: %v\n%s", err, out)
	}
	if _, err := os.Stat(db); err != nil {
		t.Fatalf("database not written: %v", err)
	}
	out, err = run(t, "search", "-model", "gpt3", "-size", "350M", "-gpus", "4",
		"-budget", "200ms", "-db", db)
	if err != nil {
		t.Fatalf("search -db failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "loaded profiling database") {
		t.Errorf("database not loaded:\n%s", out)
	}
}

func TestCLIDeepModelAndErrors(t *testing.T) {
	out, err := run(t, "search", "-model", "deep-16", "-gpus", "4", "-budget", "200ms")
	if err != nil {
		t.Fatalf("deep model search failed: %v\n%s", err, out)
	}
	if out, err := run(t, "search", "-model", "nonsense"); err == nil {
		t.Errorf("unknown model accepted:\n%s", out)
	}
	// Anything but search, estimate or profile exits 2 with the usage
	// text; the baselines and the recovery demo are acesobench's fig7
	// and churn.
	for _, args := range [][]string{{"frobnicate"}, {"baseline"}, {"elastic"}, {"churn"}, {}} {
		out, err := run(t, args...)
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 || !strings.Contains(out, "usage: aceso <search|estimate|profile>") {
			t.Errorf("aceso %v: %v, want exit 2 with usage:\n%s", args, err, out)
		}
	}
}

// TestOneZoo drives every sized family, under each spelling of its
// name, through the three places a name is turned into a model — the
// wire (planserver.ModelSpec.Build), this command's -model/-size flags
// and model.ByName itself, which internal/exps calls — and requires the
// same graph from each, and the same typed refusal of a name or size
// none of them knows.
func TestOneZoo(t *testing.T) {
	entries := []struct {
		name  string
		build func(family, size string) (*model.Graph, error)
	}{
		{"model.ByName", model.ByName},
		{"planserver.ModelSpec.Build", func(family, size string) (*model.Graph, error) {
			return (&planserver.ModelSpec{Family: family, Size: size}).Build()
		}},
		{"aceso -model -size", func(family, size string) (*model.Graph, error) {
			fs := flag.NewFlagSet("zoo", flag.ContinueOnError)
			get := workload(fs)
			if err := fs.Parse([]string{"-model", family, "-size", size}); err != nil {
				return nil, err
			}
			g, _, err := get()
			return g, err
		}},
	}
	for _, tc := range []struct {
		family string
		sizes  []string
		build  func(string) (*model.Graph, error)
	}{
		{"gpt3", model.GPT3Sizes, model.GPT3},
		{"t5", model.T5Sizes, model.T5},
		{"wresnet", model.WideResNetSizes, model.WideResNet},
		{"wideresnet", model.WideResNetSizes, model.WideResNet},
		{"llama", model.LlamaSizes, model.Llama},
	} {
		if sizes, err := model.Sizes(tc.family); err != nil || len(sizes) != len(tc.sizes) {
			t.Errorf("model.Sizes(%q) = %v, %v; want %v", tc.family, sizes, err, tc.sizes)
		}
		for _, e := range entries {
			for _, size := range tc.sizes {
				want, err := tc.build(size)
				if err != nil {
					t.Fatal(err)
				}
				got, err := e.build(tc.family, size)
				if err != nil {
					t.Errorf("%s: %s %s: %v", e.name, tc.family, size, err)
					continue
				}
				if got.Name != want.Name || len(got.Ops) != len(want.Ops) || got.TotalParams() != want.TotalParams() {
					t.Errorf("%s: %s %s built %s (%d ops), want %s (%d ops)",
						e.name, tc.family, size, got.Name, len(got.Ops), want.Name, len(want.Ops))
				}
			}
			var unknownSize *model.UnknownSizeError
			if _, err := e.build(tc.family, "nope"); !errors.As(err, &unknownSize) || unknownSize.Size != "nope" {
				t.Errorf("%s: %s at size \"nope\": %v, want an *UnknownSizeError", e.name, tc.family, err)
			}
		}
	}
	for _, e := range entries {
		_, err := e.build("resnext", "2B")
		var unknownFamily *model.UnknownFamilyError
		// The wire keeps its own wording for this refusal: its bytes are
		// part of the API.
		if e.name == "planserver.ModelSpec.Build" {
			if err == nil || err.Error() != `planserver: unknown model family "resnext"` {
				t.Errorf("%s: unknown family: %v", e.name, err)
			}
		} else if !errors.As(err, &unknownFamily) || unknownFamily.Family != "resnext" {
			t.Errorf("%s: unknown family: %v, want an *UnknownFamilyError", e.name, err)
		}
	}
}
