package perfmodel

import (
	"math"
	"testing"

	"aceso/internal/hardware"
	"aceso/internal/model"
)

func TestStragglerSlowsItsStage(t *testing.T) {
	g, _ := model.GPT3("350M")
	cl := hardware.DGX1V100(1).Restrict(4)
	cfg := balanced(t, g, 4, 2, 1)

	healthy := New(g, cl, 1).Estimate(cfg)
	deg, err := cl.Degrade(hardware.FaultSpec{Devices: []hardware.DeviceFault{
		{Device: 3, FLOPSScale: 0.25, MemScale: 1}, // stage 1's devices are {2, 3}
	}})
	if err != nil {
		t.Fatal(err)
	}
	degraded := New(g, deg, 1).Estimate(cfg)

	h0, h1 := healthy.Stages[0], healthy.Stages[1]
	d0, d1 := degraded.Stages[0], degraded.Stages[1]
	if d0.FwdTime != h0.FwdTime {
		t.Errorf("stage 0 (healthy devices) changed: %v -> %v", h0.FwdTime, d0.FwdTime)
	}
	if d1.FwdTime <= h1.FwdTime {
		t.Errorf("stage 1 (hosts the straggler) did not slow: %v -> %v", h1.FwdTime, d1.FwdTime)
	}
	if degraded.IterTime <= healthy.IterTime {
		t.Errorf("iteration time did not grow: %v -> %v", healthy.IterTime, degraded.IterTime)
	}
}

func TestMemoryDeratingTriggersOOM(t *testing.T) {
	g, _ := model.GPT3("1.3B")
	cl := hardware.DGX1V100(1).Restrict(4)
	cfg := balanced(t, g, 4, 2, 1)
	healthy := New(g, cl, 1).Estimate(cfg)
	if !healthy.Feasible {
		t.Skip("baseline config infeasible; derating test needs a feasible start")
	}
	deg, err := cl.Degrade(hardware.FaultSpec{Devices: []hardware.DeviceFault{
		{Device: 0, FLOPSScale: 1, MemScale: 0.05},
	}})
	if err != nil {
		t.Fatal(err)
	}
	degraded := New(g, deg, 1).Estimate(cfg)
	if degraded.Feasible {
		t.Error("config still feasible with 5% memory on device 0")
	}
	if degraded.OOMStage != 0 {
		t.Errorf("OOMStage = %d, want 0 (the derated device's stage)", degraded.OOMStage)
	}
}

func TestEstimateCheckedCatchesPoison(t *testing.T) {
	g, _ := model.GPT3("350M")
	cl := hardware.DGX1V100(1).Restrict(4)
	m := New(g, cl, 1)
	cfg := balanced(t, g, 4, 2, 1)
	if err := ValidateEstimate(m.Estimate(cfg)); err != nil {
		t.Fatalf("clean estimate rejected: %v", err)
	}
	// Hand-poison an estimate and check ValidateEstimate flags it.
	est := m.Estimate(cfg)
	est.IterTime = math.NaN()
	if err := ValidateEstimate(est); err == nil {
		t.Error("ValidateEstimate accepted a NaN IterTime")
	}
	est = m.Estimate(cfg)
	est.Stages[1].PeakMem = math.Inf(1)
	if err := ValidateEstimate(est); err == nil {
		t.Error("ValidateEstimate accepted an Inf stage PeakMem")
	}
	est = m.Estimate(cfg)
	est.Stages[0].DPSync = -1
	if err := ValidateEstimate(est); err == nil {
		t.Error("ValidateEstimate accepted a negative DPSync")
	}
}
