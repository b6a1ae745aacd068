package perfmodel

import (
	"math"
	"reflect"
	"testing"

	"aceso/internal/config"
	"aceso/internal/model"
)

// TestEstArenaReusesReleasedSlots: a released estimate is handed out
// again only to an estimate with as many stages, and whatever it held —
// here NaN and garbage scribbled over every field — is gone: both the
// full path and the batched one produce exactly what a fresh Estimate
// does.
func TestEstArenaReusesReleasedSlots(t *testing.T) {
	g, _ := model.GPT3("350M")
	m := newModel(t, g, 8)
	base := balanced(t, g, 8, 4, 1)
	near := base.Clone()
	near.MutOp(2, near.Stages[2].Start, func(o *config.OpSetting) { o.Recompute = true })
	shallow := balanced(t, g, 8, 2, 1)

	var a EstArena
	poison := func(e *Estimate) {
		*e = Estimate{Stages: e.Stages, IterTime: math.NaN(), PeakMem: math.NaN(), Feasible: true, OOMStage: 99, Microbatches: -1, Devices: -1}
		for i := range e.Stages {
			e.Stages[i] = StageMetrics{FwdTime: math.NaN(), PeakMem: math.NaN(), CapMem: math.NaN(), StageTime: math.NaN(), Devices: -1}
		}
	}
	slot := m.EstimateIn(base, &a)
	a.Release(slot)
	if got := a.Get(len(base.Stages)); got != slot {
		t.Fatalf("Get(%d) = %p, want the released %p", len(base.Stages), got, slot)
	}
	poison(slot)
	a.Release(slot)

	if e := m.EstimateIn(shallow, &a); e == slot {
		t.Fatal("a 2-stage estimate reused a 4-stage slot")
	}
	if e := m.EstimateIn(near, &a); e != slot {
		t.Fatal("a 4-stage estimate did not reuse the released 4-stage slot")
	} else if want := m.Estimate(near); !reflect.DeepEqual(e, want) {
		t.Errorf("full path on a reused slot:\n got %+v\nwant %+v", e, want)
	}

	var b Batch
	m.BeginBatch(&b, base, m.Estimate(base), &a)
	poison(slot)
	a.Release(slot)
	if e := b.Estimate(near); e != slot {
		t.Fatal("a batched estimate did not reuse the released slot")
	} else if want := m.Estimate(near); !reflect.DeepEqual(e, want) {
		t.Errorf("batched path on a reused slot:\n got %+v\nwant %+v", e, want)
	}
	if a.Get(len(base.Stages)) != nil {
		t.Error("the free list still holds a slot it handed out")
	}
}
