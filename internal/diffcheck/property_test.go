package diffcheck

// Satellite property tests: these re-derive the Eq. 1 contracts
// independently of Check (no shared helper on the assertion path) so a
// bug in the harness itself cannot mask a model/simulator divergence.
// The corpus is the same RandomTuple generator the differential runs
// use — one generator, three consumers (the suites, these tests, the
// acesobench diff target).

import (
	"math/rand"
	"testing"

	"aceso/internal/pipesim"
)

// drawTuple pulls generator tuples, filtered on fault presence: want
// nil keeps only healthy clusters, non-nil only degraded ones.
func drawTuple(rng *rand.Rand, wantFault bool) Tuple {
	for {
		t := RandomTuple(rng)
		if (t.Fault != nil) == wantFault {
			return t
		}
	}
}

func checkEq1Properties(t *testing.T, tup Tuple) {
	t.Helper()
	pm, cfg, err := tup.Build()
	if err != nil {
		t.Fatalf("generator emitted unbuildable tuple: %v", err)
	}
	est := pm.Estimate(cfg)
	sim, err := pipesim.SimulateEffects(pm, cfg, tup.Seed, pipesim.OneFOneB, pipesim.ModelFaithful())
	if err != nil {
		t.Fatalf("simulator rejected a model-accepted config: %v", err)
	}
	p := cfg.NumStages()
	n := est.Microbatches
	anyOOM := false
	for i := 0; i < p; i++ {
		// Eq. 1 in-flight: stage i stashes min(p−i, n) microbatches.
		want := p - i
		if want > n {
			want = n
		}
		if sim.PeakInflight[i] != want {
			t.Errorf("stage %d: PeakInflight = %d, want min(%d-%d, %d) = %d",
				i, sim.PeakInflight[i], p, i, n, want)
		}
		// OOM verdicts agree per stage against the (possibly derated)
		// capacity.
		modelOOM := est.Stages[i].PeakMem > est.Stages[i].CapMem
		if sim.StageOOM[i] != modelOOM {
			t.Errorf("stage %d: sim OOM %v, model OOM %v (mem %v/%v cap %v)",
				i, sim.StageOOM[i], modelOOM,
				sim.StagePeakMem[i], est.Stages[i].PeakMem, est.Stages[i].CapMem)
		}
		anyOOM = anyOOM || modelOOM
	}
	if sim.OOM != anyOOM {
		t.Errorf("aggregate OOM %v, want %v", sim.OOM, anyOOM)
	}
	if est.Feasible == anyOOM {
		t.Errorf("model Feasible %v inconsistent with its own per-stage verdicts %v",
			est.Feasible, anyOOM)
	}
}

func TestEq1PropertiesHealthyClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for i := 0; i < 300; i++ {
		checkEq1Properties(t, drawTuple(rng, false))
		if t.Failed() {
			t.Fatalf("violated on healthy trial %d", i)
		}
	}
}

func TestEq1PropertiesDeratedClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	sawDerate := false
	for i := 0; i < 300; i++ {
		tup := drawTuple(rng, true)
		for _, f := range tup.Fault.Devices {
			if !f.Dead && (f.MemScale != 1 || f.FLOPSScale != 1) {
				sawDerate = true
			}
		}
		checkEq1Properties(t, tup)
		if t.Failed() {
			t.Fatalf("violated on derated trial %d", i)
		}
	}
	if !sawDerate {
		t.Error("corpus never exercised a per-device derate")
	}
}
