package profiler

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"aceso/internal/collective"
	"aceso/internal/hardware"
	"aceso/internal/model"
)

func testOp() *model.Op {
	g := model.Uniform(1, 1e12, 1e6, 1e5, 64)
	return &g.Ops[0]
}

// The database format and the perturbation hash both depend on the
// exact bytes of the key serialization; a drift in appendTo would
// silently change every profiled time and orphan saved databases.
func TestOpKeyAppendMatchesFmt(t *testing.T) {
	keys := []opKey{
		{"linear", 4, 1, 8, 4, true, hardware.FP16},
		{"ln", 1, 0, 1, 1, false, hardware.FP32},
		{"attn|odd", 32, 2, 1024, 32, true, hardware.FP16},
	}
	for _, k := range keys {
		want := fmt.Sprintf("op|%s|%d|%d|%d|%d|%v|%v",
			k.name, k.tp, k.dim, k.samples, k.shards, k.backward, k.prec)
		if got := k.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
		if got := string(k.appendTo(nil)); got != want {
			t.Errorf("appendTo = %q, want %q", got, want)
		}
	}
}

func TestOpTimeDeterministic(t *testing.T) {
	p := New(hardware.DGX1V100(1), 42)
	op := testOp()
	a := p.OpTime(op, 2, 0, 4, 2, false, hardware.FP16)
	b := p.OpTime(op, 2, 0, 4, 2, false, hardware.FP16)
	if a != b {
		t.Errorf("OpTime not deterministic: %v vs %v", a, b)
	}
	q := New(hardware.DGX1V100(1), 42)
	if c := q.OpTime(op, 2, 0, 4, 2, false, hardware.FP16); c != a {
		t.Errorf("OpTime differs across profilers with same seed: %v vs %v", c, a)
	}
}

func TestOpTimeScalesWithWorkAndShards(t *testing.T) {
	p := New(hardware.DGX1V100(1), 1)
	op := testOp()
	t1 := p.OpTime(op, 1, 0, 1, 1, false, hardware.FP16)
	t8 := p.OpTime(op, 1, 0, 8, 1, false, hardware.FP16)
	if t8 <= t1 {
		t.Errorf("more samples should take longer: %v vs %v", t8, t1)
	}
	sharded := p.OpTime(op, 8, 0, 8, 8, false, hardware.FP16)
	if sharded >= t8 {
		t.Errorf("8-way sharding should beat unsharded: %v vs %v", sharded, t8)
	}
}

func TestShardingEfficiencyDegrades(t *testing.T) {
	// A small op sharded 8 ways should retain well under 8× speedup —
	// the effect behind the Wide-ResNet case study (§5.4).
	p := New(hardware.DGX1V100(1), 1)
	g := model.Uniform(1, 5e8, 1e6, 1e5, 64) // small kernel
	op := &g.Ops[0]
	t1 := p.OpTime(op, 1, 0, 1, 1, false, hardware.FP32)
	t8 := p.OpTime(op, 8, 0, 1, 8, false, hardware.FP32)
	speedup := t1 / t8
	if speedup >= 6 {
		t.Errorf("speedup = %.2f, want sublinear (< 6) for a small kernel", speedup)
	}
	if t8 >= t1 {
		t.Errorf("sharding should still help: %v vs %v", t8, t1)
	}
}

func TestBackwardCostsMore(t *testing.T) {
	p := New(hardware.DGX1V100(1), 1)
	op := testOp() // BwdFLOPsFactor = 2
	fwd := p.OpTime(op, 1, 0, 4, 1, false, hardware.FP16)
	bwd := p.OpTime(op, 1, 0, 4, 1, true, hardware.FP16)
	if bwd <= fwd {
		t.Errorf("backward (%v) should exceed forward (%v)", bwd, fwd)
	}
	if bwd > 2.5*fwd {
		t.Errorf("backward (%v) should be ≈2× forward (%v)", bwd, fwd)
	}
}

func TestFP32SlowerThanFP16(t *testing.T) {
	p := New(hardware.DGX1V100(1), 1)
	op := testOp()
	f16 := p.OpTime(op, 1, 0, 4, 1, false, hardware.FP16)
	f32 := p.OpTime(op, 1, 0, 4, 1, false, hardware.FP32)
	if f32 <= f16 {
		t.Errorf("fp32 (%v) should be slower than fp16 (%v)", f32, f16)
	}
}

func TestZeroInputs(t *testing.T) {
	p := New(hardware.DGX1V100(1), 1)
	op := testOp()
	if got := p.OpTime(op, 1, 0, 0, 1, false, hardware.FP16); got != 0 {
		t.Errorf("OpTime(samples=0) = %v, want 0", got)
	}
	if got := p.AllReduce(0, 0, 8, collective.IntraNode); got != 0 {
		t.Errorf("AllReduce(0 bytes) = %v, want 0", got)
	}
	if got := p.AllReduce(1e6, 0, 1, collective.IntraNode); got != 0 {
		t.Errorf("AllReduce(group 1) = %v, want 0", got)
	}
	if got := p.P2P(0, 0, collective.InterNode); got != 0 {
		t.Errorf("P2P(0) = %v, want 0", got)
	}
}

func TestPerturbationBounded(t *testing.T) {
	p := New(hardware.DGX1V100(1), 7)
	// The perturbed collective time must stay within ±4% of analytic.
	c := p.Cluster
	for _, g := range []int{2, 4, 8, 16} {
		base := collective.AllReduceAt(&c, 1e8, 0, g, collective.InterNode)
		got := p.AllReduce(1e8, 0, g, collective.InterNode)
		if got < base*(1-perturbAmp)-1e-15 || got > base*(1+perturbAmp)+1e-15 {
			t.Errorf("group %d: perturbed %v outside ±4%% of %v", g, got, base)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	p := New(hardware.DGX1V100(1), 9)
	op := testOp()
	want := p.OpTime(op, 4, 0, 2, 4, true, hardware.FP16)
	if p.Entries() != 1 {
		t.Fatalf("Entries() = %d, want 1", p.Entries())
	}

	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	q := New(hardware.DGX1V100(1), 9)
	if err := q.Load(&buf); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if q.Entries() != 1 {
		t.Fatalf("after Load, Entries() = %d, want 1", q.Entries())
	}
	if got := q.OpTime(op, 4, 0, 2, 4, true, hardware.FP16); got != want {
		t.Errorf("loaded DB returns %v, want %v", got, want)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	p := New(hardware.DGX1V100(1), 9)
	if err := p.Load(strings.NewReader("not json")); err == nil {
		t.Fatal("Load(garbage) should fail")
	}
}

func TestPrewarmFillsDatabaseConcurrently(t *testing.T) {
	g, err := model.GPT3("350M")
	if err != nil {
		t.Fatal(err)
	}
	p := New(hardware.DGX1V100(1), 3)
	p.Prewarm(g, []int{1, 2, 4}, []int{1, 2})
	warm := p.Entries()
	if warm == 0 {
		t.Fatal("Prewarm filled nothing")
	}
	// Subsequent queries hit the warm database (no growth).
	op := &g.Ops[1]
	p.OpTime(op, 2, 0, 1, 2, false, hardware.FP16)
	if p.Entries() != warm {
		t.Errorf("entries grew from %d to %d after a pre-warmed query", warm, p.Entries())
	}
	// Prewarmed values equal lazily computed ones.
	q := New(hardware.DGX1V100(1), 3)
	if got, want := q.OpTime(op, 2, 0, 1, 2, false, hardware.FP16),
		p.OpTime(op, 2, 0, 1, 2, false, hardware.FP16); got != want {
		t.Errorf("prewarmed %v != lazy %v", want, got)
	}
}

func TestLoadRejectsMalformedKeys(t *testing.T) {
	p := New(hardware.DGX1V100(1), 1)
	for _, bad := range []string{
		`{"nonsense": 1}`,
		`{"op|x|1": 2}`,
		`{"op|x|a|b|c|d|e|f": 2}`,
	} {
		if err := p.Load(strings.NewReader(bad)); err == nil {
			t.Errorf("Load(%s) accepted", bad)
		}
	}
}

// TestSaveLoadLargeDatabase round-trips a multi-thousand-entry database
// (the table grows a dozen times while Prewarm fills it): the loaded
// copy saves to the same bytes, and a file rejected halfway through
// validation leaves the loaded database exactly as it was.
func TestSaveLoadLargeDatabase(t *testing.T) {
	g, err := model.WideResNet("0.5B")
	if err != nil {
		t.Fatal(err)
	}
	p := New(hardware.DGX1V100(1), 2)
	p.Prewarm(g, []int{1, 2}, []int{1})
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := append([]byte(nil), buf.Bytes()...)
	q := New(hardware.DGX1V100(1), 2)
	if err := q.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if q.Entries() != p.Entries() {
		t.Errorf("entries %d != %d after round trip", q.Entries(), p.Entries())
	}
	// Spot-check a value survives exactly.
	op := &g.Ops[0]
	if q.OpTime(op, 2, 0, 1, 2, false, hardware.FP32) != p.OpTime(op, 2, 0, 1, 2, false, hardware.FP32) {
		t.Error("round-tripped value differs")
	}

	resave := func() []byte {
		t.Helper()
		var b bytes.Buffer
		if err := q.Save(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	if !bytes.Equal(resave(), saved) {
		t.Error("Save → Load → Save is not byte-identical")
	}
	// One bad entry at the end of an otherwise valid file.
	poisoned := append(append([]byte(nil), saved[:bytes.LastIndexByte(saved, '}')]...), `,"op|zz|1|0|1|1|false|fp16":-1}`...)
	if err := q.Load(bytes.NewReader(poisoned)); err == nil {
		t.Fatal("Load accepted a database with a negative time")
	}
	if !bytes.Equal(resave(), saved) {
		t.Error("a rejected Load changed the database")
	}
}

func TestLoadRejectsPoisonedValues(t *testing.T) {
	// A valid key with an invalid time: negative values parse as JSON
	// but must never enter the database (non-finite literals like NaN
	// are already unrepresentable in JSON and fail at decode time).
	key := opKey{"mlp", 1, 0, 1, 1, false, hardware.FP16}.String()
	for _, bad := range []string{
		`{"` + key + `": -1}`,
		`{"` + key + `": -1e30}`,
		`{"` + key + `": 1e999}`, // overflows float64 → decode error
		`{"` + key + `": 1`,      // truncated JSON
	} {
		p := New(hardware.DGX1V100(1), 1)
		if err := p.Load(strings.NewReader(bad)); err == nil {
			t.Errorf("Load(%s) accepted a poisoned database", bad)
		}
		if p.Entries() != 0 {
			t.Errorf("Load(%s) left %d entries behind", bad, p.Entries())
		}
	}
}

var sink float64

// benchOpTime times OpTime the way the bench ledger's probes do
// (bench/probes.go: profiler.optime_hit_ns, profiler.optime_miss_ns):
// over the scale workload's 10 240 operators, a key per (operator,
// sample count). keys bounds the distinct keys; 0 means every call
// meets a key never asked for before.
func benchOpTime(b *testing.B, keys int) {
	g := model.Uniform(10240, 1e9, 1e6, 1e5, 1024)
	p := New(hardware.DGX1V100(512), 1)
	opTime := func(i int) {
		sink += p.OpTime(&g.Ops[i%len(g.Ops)], 1, 0, 1+i/len(g.Ops), 1, false, g.Precision)
	}
	for i := 0; i < keys; i++ {
		opTime(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if keys > 0 {
			opTime(i % keys)
		} else {
			opTime(i)
		}
	}
}

// BenchmarkOpTimeHit reads a database of 62 592 entries, the size the
// scale workload's search fills.
func BenchmarkOpTimeHit(b *testing.B) { benchOpTime(b, 62592) }

// BenchmarkOpTimeMiss computes and stores a fresh entry per call, so
// the database grows to b.N entries: the cost per entry must not grow
// with it.
func BenchmarkOpTimeMiss(b *testing.B) { benchOpTime(b, 0) }
