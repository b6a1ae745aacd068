package perfmodel

import (
	"testing"

	"aceso/internal/config"
	"aceso/internal/hardware"
	"aceso/internal/model"
)

func TestEvalStageMatchesEstimate(t *testing.T) {
	// EvalStage on a uniform stage must agree exactly with the same
	// stage inside a full Estimate (they share evalStage).
	g, _ := model.GPT3("350M")
	m := New(g, hardware.DGX1V100(1).Restrict(8), 1)
	cfg, err := config.Balanced(g, 8, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	est := m.Estimate(cfg)
	for si := range cfg.Stages {
		st := &cfg.Stages[si]
		set := st.Ops[0]
		prev := 0
		if si > 0 {
			prev = cfg.Stages[si-1].Devices
		}
		inflight := cfg.NumStages() - si
		sm, err := m.EvalStage(st.Start, st.End, st.Devices, set.TP, set.DP, false,
			cfg.MicroBatch, cfg.FirstDev(si), inflight, prev)
		if err != nil {
			t.Fatal(err)
		}
		if sm.FwdTime != est.Stages[si].FwdTime || sm.PeakMem != est.Stages[si].PeakMem {
			t.Errorf("stage %d: EvalStage (%v/%v) != Estimate (%v/%v)",
				si, sm.FwdTime, sm.PeakMem, est.Stages[si].FwdTime, est.Stages[si].PeakMem)
		}
	}
}

func TestEvalStageRejectsBadArgs(t *testing.T) {
	g, _ := model.GPT3("350M")
	m := New(g, hardware.DGX1V100(1).Restrict(8), 1)
	cases := []struct {
		name                            string
		start, end, dev, tp, dp         int
		mbs, firstDev, inflight, prevDv int
	}{
		{"empty range", 5, 5, 4, 4, 1, 4, 0, 1, 0},
		{"negative start", -1, 5, 4, 4, 1, 4, 0, 1, 0},
		{"end out of range", 0, 10000, 4, 4, 1, 4, 0, 1, 0},
		{"tp·dp != devices", 0, 5, 4, 2, 1, 4, 0, 1, 0},
		{"non-pow2", 0, 5, 6, 3, 2, 6, 0, 1, 0},
		{"dp does not divide mbs", 0, 5, 4, 1, 4, 2, 0, 1, 0},
		{"zero inflight", 0, 5, 4, 4, 1, 4, 0, 0, 0},
	}
	for _, tc := range cases {
		if _, err := m.EvalStage(tc.start, tc.end, tc.dev, tc.tp, tc.dp, false,
			tc.mbs, tc.firstDev, tc.inflight, tc.prevDv); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestEvalStageRecomputeCutsActivation(t *testing.T) {
	g, _ := model.GPT3("350M")
	m := New(g, hardware.DGX1V100(1).Restrict(4), 1)
	plain, err := m.EvalStage(0, 50, 4, 4, 1, false, 2, 0, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := m.EvalStage(0, 50, 4, 4, 1, true, 2, 0, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rc.ActPerMB >= plain.ActPerMB {
		t.Errorf("recompute ActPerMB %v should be below plain %v", rc.ActPerMB, plain.ActPerMB)
	}
	if rc.BwdTime <= plain.BwdTime {
		t.Error("recompute should lengthen backward")
	}
}
