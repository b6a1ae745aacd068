package chaos

import (
	"math/rand"
	"testing"
	"time"
)

// scenarios is the table every harness property is checked over: each
// scenario with its CI-sized trial count and seed.
var scenarios = []struct {
	sc     Scenario
	trials int
	seed   int64
}{
	{Search, 48, 20260806},
	{OneFault, 12, 20260806},
	{Churn, 12, 20260808},
	{Spot, 12, 20260808},
}

// TestRunClean is the CI-sized chaos gate: a deterministic batch of
// trials of every scenario must finish with zero violations. The
// acesobench chaos, churn and spot targets run the same harness.
func TestRunClean(t *testing.T) {
	for _, tc := range scenarios {
		t.Run(tc.sc.Name, func(t *testing.T) {
			trials := tc.trials
			if testing.Short() {
				if tc.sc.Name != Search.Name {
					t.Skip("recovery trials train a model each: not short")
				}
				trials = 12
			}
			rep := Run(tc.sc, Options{Trials: trials, Seed: tc.seed, Log: t.Logf})
			t.Log(rep.Summary())
			if rep.Failed() {
				t.Fatalf("chaos violations:\n%s", rep.Summary())
			}
			if rep.Trials != trials {
				t.Errorf("ran %d trials, want %d", rep.Trials, trials)
			}
			if rep.Passed == 0 {
				t.Error("no trial passed — the harness is only generating garbage")
			}
			if tc.sc.Name == Search.Name && rep.TypedErrs == 0 {
				t.Error("no trial was rejected — the harness is not generating hostile inputs")
			}
		})
	}
}

// TestDurationBound pins that a duration-bounded run stops on time.
func TestDurationBound(t *testing.T) {
	for _, tc := range scenarios {
		t.Run(tc.sc.Name, func(t *testing.T) {
			bound, limit := 300*time.Millisecond, 5*time.Second
			if tc.sc.Name != Search.Name {
				bound, limit = 2*time.Second, 90*time.Second
			}
			start := time.Now()
			rep := Run(tc.sc, Options{Duration: bound, Seed: 7})
			if el := time.Since(start); el > limit {
				t.Fatalf("duration-bounded run took %v", el)
			}
			if rep.Trials == 0 {
				t.Error("duration-bounded run executed no trials")
			}
		})
	}
}

// TestReplayIsDeterministic: the same (trial, seed) pair replays to the
// same verdict — the property that makes violations debuggable.
func TestReplayIsDeterministic(t *testing.T) {
	for _, tc := range scenarios {
		t.Run(tc.sc.Name, func(t *testing.T) {
			for _, seed := range []int64{3, 77, 9001, 12345} {
				okA, a := Replay(tc.sc, 3, seed)
				okB, b := Replay(tc.sc, 3, seed)
				if okA != okB || (a == nil) != (b == nil) {
					t.Fatalf("seed %d: verdicts differ between replays (%v/%v vs %v/%v)", seed, okA, a, okB, b)
				}
			}
		})
	}
}

// TestRunBareScenario: a Scenario value that names neither a trial
// count nor a log interval — what a package stating a new property
// writes first — still terminates and logs nothing, under any Options.
func TestRunBareScenario(t *testing.T) {
	ran := 0
	sc := Scenario{Name: "bare", Trial: func(*rand.Rand, int64) (bool, *Violation) { ran++; return true, nil }}
	rep := Run(sc, Options{Log: t.Logf})
	if rep.Trials != 1 || ran != 1 || rep.Passed != 1 {
		t.Errorf("bare scenario ran %d trials (%d calls, %d passed), want 1", rep.Trials, ran, rep.Passed)
	}
}
