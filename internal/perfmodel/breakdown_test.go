package perfmodel

import (
	"math"
	"testing"

	"aceso/internal/collective"
	"aceso/internal/config"
	"aceso/internal/model"
)

// mixedDPConfig builds a single-stage config on 4 devices whose dp
// degree changes mid-stage (tp4·dp1 then tp2·dp2) — the fine-tuning
// shape that triggers the mid-stage resample collective.
func mixedDPConfig(t *testing.T, g *model.Graph, mbs int) *config.Config {
	t.Helper()
	c := &config.Config{
		Stages:     []config.Stage{{Start: 0, End: len(g.Ops), Devices: 4}},
		MicroBatch: mbs,
	}
	c.Stages[0].Ops = make([]config.OpSetting, len(g.Ops))
	half := len(g.Ops) / 2
	for j := range c.Stages[0].Ops {
		if j < half {
			c.Stages[0].Ops[j] = config.OpSetting{TP: 4, DP: 1}
		} else {
			c.Stages[0].Ops[j] = config.OpSetting{TP: 2, DP: 2}
		}
	}
	if err := c.Validate(g, 4); err != nil {
		t.Fatal(err)
	}
	return c
}

// Regression for the resource-accounting bug that booked mid-stage
// dp-change resample traffic into TPComm: the cost is data-parallel
// reshard traffic and must live in its own ReshardComm bucket —
// included in CommTime, excluded from TPComm — or Heuristic-2's
// resource proportions steer the search on phantom tensor-parallel
// time.
func TestReshardCommBucket(t *testing.T) {
	g, _ := model.GPT3("350M")
	m := newModel(t, g, 4)
	c := mixedDPConfig(t, g, 2)
	e := m.Estimate(c)
	s := &e.Stages[0]

	if s.ReshardComm <= 0 {
		t.Fatalf("ReshardComm = %v, want > 0 for a mid-stage dp change", s.ReshardComm)
	}

	// Pin the bucket to the exact resample cost: one all-gather over
	// the whole stage group per direction (forward redistribution and
	// its mirrored backward), sized by the boundary activation.
	half := len(g.Ops) / 2
	prevAct := g.Ops[half-1].ActElems
	bpe := g.Precision.BytesPerElem()
	pl := collective.PlacementFor(&m.Cluster, 0, 4)
	want := 2 * m.Prof.AllGather(prevAct*float64(c.MicroBatch)*bpe/4, 0, 4, pl)
	if diff := s.ReshardComm/want - 1; math.Abs(diff) > 1e-9 {
		t.Errorf("ReshardComm = %v, want %v (the resample all-gather pair)", s.ReshardComm, want)
	}

	// TPComm must carry only genuine tensor-parallel collectives: a
	// uniform tp4·dp1 stage pays at least as much TP traffic per op,
	// so the mixed stage's TPComm staying below it proves the reshard
	// cost no longer leaks into the TP bucket.
	uni := balanced(t, g, 4, 1, 2) // tp=4 throughout
	ue := m.Estimate(uni)
	if s.TPComm >= ue.Stages[0].TPComm+want/2 {
		t.Errorf("TPComm = %v carries reshard traffic (uniform tp4 stage: %v)",
			s.TPComm, ue.Stages[0].TPComm)
	}

	// The breakdown identity and the CommTime contract.
	total := s.CompTime() + s.TPComm + s.P2P + s.Recomp + s.ReshardComm
	if diff := total/(s.FwdTime+s.BwdTime) - 1; math.Abs(diff) > 1e-9 {
		t.Errorf("breakdown does not add up: %v vs %v", total, s.FwdTime+s.BwdTime)
	}
	wantComm := s.TPComm + s.P2P + s.ReshardComm + s.DPSync/float64(e.Microbatches)
	if diff := s.CommTime(e.Microbatches)/wantComm - 1; math.Abs(diff) > 1e-9 {
		t.Errorf("CommTime = %v does not include ReshardComm (want %v)",
			s.CommTime(e.Microbatches), wantComm)
	}

	// Uniform-dp stages must not pay the bucket.
	if ue.Stages[0].ReshardComm != 0 {
		t.Errorf("uniform stage has ReshardComm = %v, want 0", ue.Stages[0].ReshardComm)
	}
}
