package chaos

import (
	"math"
	"math/rand"
	"testing"

	"aceso/internal/elastic"
	"aceso/internal/runtime"
)

// TestRandomSpecsAlwaysValid: every generated schedule passes the
// supervisor's validator — the generators may be adversarial in
// content but never in form.
func TestRandomSpecsAlwaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 500; i++ {
		devices := 1 + rng.Intn(8)
		churn := randomChurnSpec(rng, devices, 2+rng.Intn(8), rng.Intn(12))
		if err := churn.Validate(devices); err != nil {
			t.Fatalf("generated churn spec invalid (iteration %d, devices %d): %v", i, devices, err)
		}
		spot := RandomSpotSpec(rng, devices, 2+rng.Intn(8), 0.3, 0.5, 3)
		if err := spot.Validate(devices); err != nil {
			t.Fatalf("generated spot spec invalid (iteration %d, devices %d): %v", i, devices, err)
		}
	}
}

// TestRandomChurnSpecMixesKinds: over many draws the generator covers
// all four event kinds.
func TestRandomChurnSpecMixesKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	seen := map[elastic.ChurnKind]bool{}
	for i := 0; i < 200; i++ {
		spec := randomChurnSpec(rng, 8, 8, 8)
		for _, ev := range spec.Events {
			seen[ev.Kind] = true
		}
	}
	for _, k := range []elastic.ChurnKind{elastic.Preempt, elastic.Readd, elastic.SlowNode, elastic.LinkDerate} {
		if !seen[k] {
			t.Errorf("kind %v never generated", k)
		}
	}
}

// TestRandomSpotSpecMixesNotices: over many draws the generator covers
// both noticed and unnoticed reclaims, and notices carry windows.
func TestRandomSpotSpecMixesNotices(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	seen := map[elastic.ChurnKind]bool{}
	windowed := false
	for i := 0; i < 200; i++ {
		spec := RandomSpotSpec(rng, 8, 8, 0.2, 0.5, 3)
		for _, ev := range spec.Events {
			seen[ev.Kind] = true
			if ev.Kind == elastic.PreemptNotice && ev.Notice > 0 {
				windowed = true
			}
		}
	}
	for _, k := range []elastic.ChurnKind{elastic.Preempt, elastic.PreemptNotice, elastic.Readd} {
		if !seen[k] {
			t.Errorf("kind %v never generated", k)
		}
	}
	if !windowed {
		t.Error("no notice ever carried a positive window")
	}
}

// TestCheckRunRejectsNaNReference: a NaN reference loss is a
// divergence, not a match (the run's own losses are checked finite).
func TestCheckRunRejectsNaNReference(t *testing.T) {
	ref := &runtime.Params{Step: 2}
	rep := &elastic.Report{FinalStep: 2, Losses: []float64{1, 1}, Steps: []int{1, 2}, Params: ref}
	if v := CheckRun(rep, []float64{1, math.NaN()}, ref); v == nil || v.Kind != "diverged" {
		t.Errorf("NaN reference loss: violation %+v, want diverged", v)
	}
}
