package diffcheck

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"aceso/internal/chaos"
	"aceso/internal/obs"
)

func TestRunCleanEffectsOff(t *testing.T) {
	reg := obs.NewRegistry()
	suite := EffectsOff(reg)
	rep := chaos.Run(suite.Scenario, chaos.Options{Trials: 1500, Seed: 1})
	if rep.Failed() {
		t.Fatalf("effects-off invariants violated:\n%s", rep.Summary())
	}
	if rep.Trials != 1500 || rep.Passed != 1500 {
		t.Errorf("%d trials, %d passed, want 1500 of each", rep.Trials, rep.Passed)
	}
	band := suite.Band()
	if band.Samples == 0 {
		t.Error("no band samples collected")
	}
	if got := reg.Counter(obs.DiffTrialsTotal).Value(); got != 1500 {
		t.Errorf("%s = %d, want 1500", obs.DiffTrialsTotal, got)
	}
	// Sanity on the signed band itself: the simulator must both under-
	// and over-shoot Eq. 2 across a corpus this size (a one-sided band
	// would mean the closed form is secretly a bound, and the documented
	// band rationale would be wrong).
	if band.Min >= 0 {
		t.Errorf("band min %v: simulator never beat the closed form", band.Min)
	}
	if band.Max <= 0 {
		t.Errorf("band max %v: simulator never exceeded the closed form", band.Max)
	}
}

func TestRunCleanEffectsOn(t *testing.T) {
	rep := chaos.Run(EffectsOn(nil).Scenario, chaos.Options{Trials: 800, Seed: 2})
	if rep.Failed() {
		t.Fatalf("effects-on calibration violated:\n%s", rep.Summary())
	}
}

func TestRunDeterministic(t *testing.T) {
	a, b := EffectsOff(nil), EffectsOff(nil)
	ra := chaos.Run(a.Scenario, chaos.Options{Trials: 300, Seed: 7})
	rb := chaos.Run(b.Scenario, chaos.Options{Trials: 300, Seed: 7})
	if a.Band() != b.Band() {
		t.Errorf("band stats differ across identical runs: %+v vs %+v", a.Band(), b.Band())
	}
	if len(ra.Violations) != len(rb.Violations) {
		t.Errorf("violation counts differ: %d vs %d", len(ra.Violations), len(rb.Violations))
	}
}

func TestTupleJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		orig := RandomTuple(rng)
		raw, err := json.Marshal(orig)
		if err != nil {
			t.Fatal(err)
		}
		var back Tuple
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		fa, ba := Check(&orig, false)
		fb, bb := Check(&back, false)
		if len(fa) != len(fb) || ba != bb {
			t.Fatalf("tuple %d: JSON round trip changed the verdict (%d/%v vs %d/%v)\n%s",
				i, len(fa), ba, len(fb), bb, raw)
		}
	}
}

// TestReplayTupleMatchesRun pins the replay contract on a forced
// violation (a generator that sometimes emits an unbuildable tuple): the
// trial is exactly gen(rand(violation.Seed)) checked in the same mode,
// and the repro the violation carries survives its JSON form and still
// reproduces the finding under ReplayTuple.
func TestReplayTupleMatchesRun(t *testing.T) {
	gen := func(rng *rand.Rand) Tuple {
		tup := RandomTuple(rng)
		if rng.Intn(8) == 0 {
			tup.Stages = 2 * tup.Ops // more stages than operators: Build refuses
		}
		return tup
	}
	reg := obs.NewRegistry()
	rep := chaos.Run(New("forced", gen, false, reg).Scenario, chaos.Options{Trials: 64, Seed: 11})
	if !rep.Failed() || rep.Passed+len(rep.Violations) != 64 {
		t.Fatalf("want some of 64 trials violated, the rest passed:\n%s", rep.Summary())
	}
	for _, v := range rep.Violations {
		if v.Kind != KindBuild {
			t.Fatalf("forced violation has kind %q, want %q", v.Kind, KindBuild)
		}
		drawn := gen(rand.New(rand.NewSource(v.Seed)))
		if f := ReplayTuple(drawn, false); len(f) != 1 || f[0].Kind != KindBuild {
			t.Errorf("trial %d: regenerating from seed %d gives findings %+v", v.Trial, v.Seed, f)
		}
		shrunk, steps := Shrink(drawn, KindBuild, false)
		if shrunk.Ops != v.Repro.(Tuple).Ops || steps != v.ShrinkSteps || steps == 0 {
			t.Errorf("trial %d: repro %+v in %d steps, shrinking the regenerated draw gives %+v in %d",
				v.Trial, v.Repro, v.ShrinkSteps, shrunk, steps)
		}
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		var file struct {
			Kind  string `json:"kind"`
			Repro Tuple  `json:"repro"`
		}
		if err := json.Unmarshal(raw, &file); err != nil {
			t.Fatal(err)
		}
		if f := ReplayTuple(file.Repro, false); len(f) != 1 || f[0].Kind != file.Kind || f[0].Detail != v.Detail {
			t.Errorf("trial %d: the repro file replays to %+v, the violation says %s: %s", v.Trial, f, v.Kind, v.Detail)
		}
	}
	if got := reg.Counter(fmt.Sprintf("%s{kind=%q}", obs.DiffViolationsTotal, KindBuild)).Value(); got != int64(len(rep.Violations)) {
		t.Errorf("violation counter = %d, want %d", got, len(rep.Violations))
	}
}

func TestShrinkGreedyMinimizes(t *testing.T) {
	// Drive the greedy engine with a synthetic predicate so the search
	// behavior is testable without a real model/simulator divergence:
	// "reproduces" iff ops ≥ 3 and devices ≥ 2 — the minimum should
	// come out at exactly that boundary.
	start := Tuple{
		Ops: 24, FwdFLOPs: 1e9, Params: 1e6, Act: 1e5, GlobalBatch: 64,
		Devices: 16, Stages: 4, MicroBatch: 4, MutSeed: 99, Slope: 1.5, Seed: 1,
	}
	got, steps := shrinkWith(start, func(c Tuple) bool {
		return c.Ops >= 3 && c.Devices >= 2
	})
	if got.Ops != 3 || got.Devices != 2 {
		t.Errorf("shrunk to ops=%d devices=%d, want 3/2", got.Ops, got.Devices)
	}
	if got.MutSeed != 0 || got.Slope != 0 {
		t.Errorf("irrelevant knobs not dropped: mutSeed=%d slope=%v", got.MutSeed, got.Slope)
	}
	if steps == 0 {
		t.Error("no shrink steps counted")
	}
	// Local minimum: no reduction of the result still reproduces.
	for _, r := range reductions(got) {
		if r.Ops >= 3 && r.Devices >= 2 {
			t.Errorf("result not minimal: %+v still reproduces", r)
		}
	}
}

func TestReductionsDoNotAliasFault(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var tup Tuple
	for tup.Fault == nil {
		tup = RandomTuple(rng)
	}
	before := len(tup.Fault.Devices)
	for _, r := range reductions(tup) {
		if r.Fault != nil && r.Fault == tup.Fault {
			t.Fatal("reduction shares the parent's FaultSpec pointer")
		}
	}
	if len(tup.Fault.Devices) != before {
		t.Error("reductions mutated the parent fault spec")
	}
}

func TestBuildRejectsUnconstructible(t *testing.T) {
	bad := []Tuple{
		{Ops: 2, FwdFLOPs: 1e9, Params: 1e6, Act: 1e5, GlobalBatch: 8, Devices: 4, Stages: 4, MicroBatch: 1}, // stages > ops
		{Ops: 4, FwdFLOPs: 1e9, Params: 1e6, Act: 1e5, GlobalBatch: 8, Devices: 4, Stages: 2, MicroBatch: 3}, // mbs ∤ batch
		{Ops: 0, FwdFLOPs: 1e9, Params: 1e6, Act: 1e5, GlobalBatch: 8, Devices: 4, Stages: 1, MicroBatch: 1}, // empty graph
	}
	for i, tup := range bad {
		if _, _, err := tup.Build(); err == nil {
			t.Errorf("tuple %d built despite unconstructible shape", i)
		}
		findings, _ := Check(&tup, false)
		if len(findings) != 1 || findings[0].Kind != KindBuild {
			t.Errorf("tuple %d: Check findings = %+v, want one %q", i, findings, KindBuild)
		}
	}
}
