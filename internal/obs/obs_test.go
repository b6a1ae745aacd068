package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"aceso/internal/config"
	"aceso/internal/perfmodel"
)

func TestJSONLTracerDeterministicOrder(t *testing.T) {
	// Events arrive interleaved across workers; the emitted bytes must
	// not depend on arrival order.
	evs := []IterationEvent{
		{StageCount: 2, Iter: 1, Improved: true, Primitive: "inc-dp", Hops: 2},
		{StageCount: 1, Iter: 2, PoolRestart: true},
		{StageCount: 1, Iter: 1, Improved: true, Primitive: "inc-tp", Hops: 1},
	}
	a, b := NewJSONLTracer(), NewJSONLTracer()
	for _, ev := range evs {
		a.OnIteration(ev)
	}
	for i := len(evs) - 1; i >= 0; i-- {
		b.OnIteration(evs[i])
	}
	var ba, bb bytes.Buffer
	if _, err := a.WriteTo(&ba); err != nil {
		t.Fatal(err)
	}
	if _, err := b.WriteTo(&bb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
		t.Errorf("traces differ by arrival order:\n%s\nvs\n%s", ba.String(), bb.String())
	}
	lines := strings.Split(strings.TrimSpace(ba.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
	var first IterationEvent
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 0 is not valid JSON: %v", err)
	}
	if first.StageCount != 1 || first.Iter != 1 || first.Primitive != "inc-tp" {
		t.Errorf("first line = %+v, want stage-count 1 iter 1", first)
	}
}

func TestRegistryExports(t *testing.T) {
	r := NewRegistry()
	r.Counter(CandidatesEstimatedTotal).Add(42)
	r.Counter(PrimitiveAppliedTotal + `{primitive="inc-dp"}`).Inc()
	r.Histogram(IterationSeconds, SecondsBuckets...).Observe(1.5)
	h := r.Histogram(MultiHopDepth, 1, 2, 4, 8)
	h.Observe(1)
	h.Observe(3)
	h.Observe(100) // overflow → +Inf only

	js, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]float64
	if err := json.Unmarshal(js, &got); err != nil {
		t.Fatalf("MarshalJSON output is not valid JSON: %v\n%s", err, js)
	}
	for name, want := range map[string]float64{
		CandidatesEstimatedTotal:                       42,
		PrimitiveAppliedTotal + `{primitive="inc-dp"}`: 1,
		IterationSeconds + `_bucket{le="1"}`:           0,
		IterationSeconds + `_bucket{le="10"}`:          1,
		IterationSeconds + "_sum":                      1.5,
		IterationSeconds + "_count":                    1,
		MultiHopDepth + `_bucket{le="1"}`:              1,
		MultiHopDepth + `_bucket{le="4"}`:              2,
		MultiHopDepth + `_bucket{le="+Inf"}`:           3,
		MultiHopDepth + "_count":                       3,
	} {
		if got[name] != want {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}

	var prom bytes.Buffer
	if err := r.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	text := prom.String()
	for _, want := range []string{
		"# TYPE " + CandidatesEstimatedTotal + " counter\n",
		CandidatesEstimatedTotal + " 42\n",
		PrimitiveAppliedTotal + `{primitive="inc-dp"} 1` + "\n",
		MultiHopDepth + `_bucket{le="+Inf"} 3` + "\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Prometheus output missing %q:\n%s", want, text)
		}
	}
}

// soundEstimate builds a hand-assembled estimate that satisfies every
// accounting invariant.
func soundEstimate() *perfmodel.Estimate {
	s := perfmodel.StageMetrics{
		FwdTime: 10e-3, BwdTime: 20e-3,
		TPComm: 2e-3, P2P: 1e-3, Recomp: 3e-3, ReshardComm: 1e-3,
		DPSync: 5e-3, StageTime: 100e-3,
		ParamMem: 1e9, OptMem: 2e9, ActPerMB: 1e8, ExtraMem: 1e8,
		PeakMem: 3.3e9, CapMem: 32e9, Devices: 4,
	}
	return &perfmodel.Estimate{
		Stages:   []perfmodel.StageMetrics{s},
		IterTime: 100e-3, PeakMem: 3.3e9, Feasible: true, OOMStage: -1,
		Microbatches: 8, Devices: 4,
	}
}

func TestAuditEstimateSound(t *testing.T) {
	if vs := AuditEstimate(nil, soundEstimate()); len(vs) != 0 {
		t.Errorf("sound estimate flagged: %v", vs)
	}
}

func TestAuditEstimateCatchesBrokenBuckets(t *testing.T) {
	cases := []struct {
		name   string
		break_ func(e *perfmodel.Estimate)
	}{
		{"negative TPComm", func(e *perfmodel.Estimate) { e.Stages[0].TPComm = -1e-3 }},
		{"shares exceed fwd+bwd", func(e *perfmodel.Estimate) { e.Stages[0].TPComm = 1 }},
		{"recomp exceeds bwd", func(e *perfmodel.Estimate) { e.Stages[0].Recomp = 25e-3 }},
		{"peak below components", func(e *perfmodel.Estimate) { e.Stages[0].PeakMem = 1e9 }},
		{"iter time not stage max", func(e *perfmodel.Estimate) { e.IterTime = 1e-3 }},
		{"devices mismatch", func(e *perfmodel.Estimate) { e.Devices = 16 }},
	}
	for _, c := range cases {
		e := soundEstimate()
		c.break_(e)
		// "peak below components" breaks the estimate-level max too —
		// any violation at all is what matters.
		if vs := AuditEstimate(nil, e); len(vs) == 0 {
			t.Errorf("%s: no violation reported", c.name)
		}
	}
}

func TestAuditEstimateConfigInvariants(t *testing.T) {
	// A tp=1-throughout stage must have zero TPComm — the historical
	// reshard-into-TPComm bug made exactly this fail.
	cfg := &config.Config{
		Stages:     []config.Stage{{Start: 0, End: 2, Devices: 4}},
		MicroBatch: 4,
	}
	cfg.Stages[0].Ops = []config.OpSetting{{TP: 1, DP: 4}, {TP: 1, DP: 4}}
	e := soundEstimate()
	if vs := AuditEstimate(cfg, e); len(vs) == 0 {
		t.Error("TPComm > 0 with tp=1 throughout not flagged")
	}
	// And ReshardComm without a mid-stage dp change.
	e2 := soundEstimate()
	e2.Stages[0].TPComm = 0
	if vs := AuditEstimate(cfg, e2); len(vs) == 0 {
		t.Error("ReshardComm > 0 without a dp change not flagged")
	}
}

func TestAuditorTracksViolations(t *testing.T) {
	a := NewAuditor()
	a.OnEstimate(nil, soundEstimate())
	if err := a.Err(); err != nil {
		t.Fatalf("clean estimate produced error: %v", err)
	}
	bad := soundEstimate()
	bad.Stages[0].TPComm = -1
	a.OnEstimate(nil, bad)
	if a.Checked() != 2 {
		t.Errorf("Checked = %d, want 2", a.Checked())
	}
	if err := a.Err(); err == nil {
		t.Error("violation not surfaced by Err")
	}
	if len(a.Violations()) == 0 {
		t.Error("violation not retained")
	}
}

func TestMultiTracerNilCollapse(t *testing.T) {
	if MultiTracer(nil, nil) != nil {
		t.Error("MultiTracer of nils should be nil (zero-overhead guard)")
	}
	a := NewAuditor()
	mt, ok := MultiTracer(nil, a, NewJSONLTracer()).(EstimateTracer)
	if !ok {
		t.Fatal("MultiTracer with an Auditor does not observe estimates")
	}
	mt.OnEstimate(nil, soundEstimate())
	if a.Checked() != 1 {
		t.Error("MultiTracer did not forward to the non-nil tracer")
	}
	if _, ok := MultiTracer(NewJSONLTracer(), nil).(EstimateTracer); ok {
		t.Error("MultiTracer of tracers that observe no estimate observes estimates")
	}
}

func TestConvergence(t *testing.T) {
	c := NewConvergence()
	if tries, hops := c.Histograms(); c.Curve() != nil || tries != nil || hops != nil {
		t.Error("a tracer that saw nothing reports data")
	}
	// Only feasible, finite, improving estimates make the curve.
	for _, e := range []perfmodel.Estimate{
		{Feasible: false, IterTime: 1},
		{Feasible: true, IterTime: 9},
		{Feasible: true, IterTime: 9},
		{Feasible: true, IterTime: 12},
		{Feasible: true, IterTime: math.NaN()},
		{Feasible: true, IterTime: -1},
		{Feasible: true, IterTime: 4},
	} {
		c.OnEstimate(nil, &e)
	}
	c.OnEstimate(nil, nil)
	curve := c.Curve()
	if len(curve) != 2 || curve[0].IterTime != 9 || curve[1].IterTime != 4 || curve[1].Elapsed < curve[0].Elapsed {
		t.Errorf("curve %+v, want 9 then 4 with non-decreasing Elapsed", curve)
	}
	// Only improving iterations are counted, by tries and by hops.
	for _, ev := range []IterationEvent{
		{Improved: true, BottleneckTries: 1, Hops: 3},
		{Improved: true, BottleneckTries: 1, Hops: 1},
		{Improved: false, BottleneckTries: 4},
		{Improved: true, BottleneckTries: 2, Hops: 3},
	} {
		c.OnIteration(ev)
	}
	tries, hops := c.Histograms()
	if !reflect.DeepEqual(tries, []int{2, 1}) || !reflect.DeepEqual(hops, []int{1, 0, 2}) {
		t.Errorf("tries %v hops %v, want [2 1] and [1 0 2]", tries, hops)
	}
}
