package profiler

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
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

// TestOpTimeMatchesGolden replays every key the pinned GPT-3 350M /
// 8-GPU search asked (testdata, written by the string-keyed database
// this one replaced; see golden_test.go): the miss that computes the
// entry and the hit that reads it back both return the golden float,
// bit for bit.
func TestOpTimeMatchesGolden(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "gpt3-350M-8gpu.db.json"))
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]float64{}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	g, err := model.GPT3("350M")
	if err != nil {
		t.Fatal(err)
	}
	// One op per name is enough to ask by; the layers share classes.
	byName := map[string]*model.Op{}
	for i := range g.Ops {
		byName[g.Ops[i].Name] = &g.Ops[i]
	}
	p := New(hardware.DGX1V100(1), 1)
	for s, want := range golden {
		k, ok := parseOpKey(s)
		op := byName[k.name]
		if !ok || op == nil {
			t.Fatalf("golden key %q does not name an op of the graph", s)
		}
		miss := p.OpTime(op, k.tp, k.dim, k.samples, k.shards, k.backward, k.prec)
		hit := p.OpTime(op, k.tp, k.dim, k.samples, k.shards, k.backward, k.prec)
		if math.Float64bits(miss) != math.Float64bits(want) || math.Float64bits(hit) != math.Float64bits(want) {
			t.Errorf("%s: miss %v, hit %v, golden %v", s, miss, hit, want)
		}
	}
	if p.Entries() != len(golden) {
		t.Errorf("%d entries after replaying %d keys", p.Entries(), len(golden))
	}
}

// TestSharedIDsDifferentNames puts two graphs whose ops share IDs but
// not names — and hand-built ops the index cannot hold — through one
// profiler: the ID index is a cache, so every answer must equal what a
// profiler that saw only that op returns, whichever graph filled the
// slot last.
func TestSharedIDsDifferentNames(t *testing.T) {
	a := model.Uniform(16, 1e9, 1e6, 1e5, 64)
	b, err := model.GPT3("350M")
	if err != nil {
		t.Fatal(err)
	}
	ops := []*model.Op{
		{ID: -3, Name: "negative", FwdFLOPs: 2e9, BwdFLOPsFactor: 2},
		{ID: maxIndexedID + 7, Name: "beyond", FwdFLOPs: 3e9, BwdFLOPsFactor: 2},
		{ID: 5, Name: "op5-impostor", FwdFLOPs: 4e9, BwdFLOPsFactor: 2},
	}
	for i := 0; i < 16; i++ {
		ops = append(ops, &a.Ops[i], &b.Ops[i])
	}
	cl := hardware.DGX1V100(1)
	shared := New(cl, 7)
	names := map[string]bool{}
	for round := 0; round < 3; round++ {
		for _, op := range ops {
			names[op.Name] = true
			for _, bwd := range []bool{false, true} {
				want := New(cl, 7).OpTime(op, 2, 0, 4, 2, bwd, hardware.FP16)
				if got := shared.OpTime(op, 2, 0, 4, 2, bwd, hardware.FP16); got != want {
					t.Fatalf("round %d: op %d %q backward=%v: %v through the shared profiler, %v alone",
						round, op.ID, op.Name, bwd, got, want)
				}
			}
		}
	}
	if want := 2 * len(names); shared.Entries() != want {
		t.Errorf("%d entries for %d names asked forward and backward", shared.Entries(), len(names))
	}
	if ix := shared.db.Load().index.Load(); ix == nil || len(*ix) > 64 {
		t.Errorf("index grew beyond the IDs it may hold: %v", ix)
	}
}

// TestProfilerConcurrent races readers and writers on one class (every
// goroutine asks the same op under many keys, so the class spills and
// doubles under the readers) and on the ID index (many ops, so the
// index doubles under them too). Every answer must be the value a lone
// profiler computes, and an entry two goroutines missed at once must be
// counted once. Run with -race -count=10.
func TestProfilerConcurrent(t *testing.T) {
	const (
		workers = 8
		ops     = 1500 // the index doubles from 64 past 1024
		samples = 200  // one class grows from 8 slots to 512
	)
	g := model.Uniform(ops, 1e9, 1e6, 1e5, 1024)
	cl := hardware.DGX1V100(1)
	ref := New(cl, 11)
	wantClass := make([]float64, samples)
	for n := range wantClass {
		wantClass[n] = ref.OpTime(&g.Ops[0], 1, 0, n+1, 1, false, hardware.FP16)
	}
	wantIndex := make([]float64, ops)
	for i := range wantIndex {
		wantIndex[i] = ref.OpTime(&g.Ops[i], 1, 0, 1, 1, true, hardware.FP16)
	}
	p := New(cl, 11)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for j := 0; j < samples; j++ {
					n := (j*7 + w*31) % samples
					if got := p.OpTime(&g.Ops[0], 1, 0, n+1, 1, false, hardware.FP16); got != wantClass[n] {
						t.Errorf("one class: samples=%d: %v, want %v", n+1, got, wantClass[n])
						return
					}
				}
				for j := 0; j < ops; j++ {
					i := (j*13 + w*101) % ops
					if got := p.OpTime(&g.Ops[i], 1, 0, 1, 1, true, hardware.FP16); got != wantIndex[i] {
						t.Errorf("index: op %d: %v, want %v", i, got, wantIndex[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	// op0 was asked under samples keys forward and once backward.
	if want := samples + ops; p.Entries() != want {
		t.Errorf("%d entries, want %d: a racing miss was counted twice or lost", p.Entries(), want)
	}
}

// TestOpTimeHitAllocatesNothing pins the hit path: no allocation,
// whether the class is still inline or has spilled.
func TestOpTimeHitAllocatesNothing(t *testing.T) {
	g := model.Uniform(4, 1e9, 1e6, 1e5, 1024)
	p := New(hardware.DGX1V100(1), 1)
	for n := 1; n <= 64; n++ {
		p.OpTime(&g.Ops[1], 1, 0, n, 1, false, hardware.FP16) // spills
	}
	p.OpTime(&g.Ops[2], 1, 0, 1, 1, false, hardware.FP16) // inline
	if a := testing.AllocsPerRun(100, func() {
		sink += p.OpTime(&g.Ops[1], 1, 0, 33, 1, false, hardware.FP16)
		sink += p.OpTime(&g.Ops[2], 1, 0, 1, 1, false, hardware.FP16)
	}); a != 0 {
		t.Errorf("a hit allocates %v times", a)
	}
}

var sink float64

// benchShapes are the two shapes a database takes: search-scale's, one
// name per operator, and the zoo's, a dozen names shared by every layer.
var benchShapes = []struct {
	name  string
	graph func() *model.Graph
}{
	{"scale", func() *model.Graph { return model.Uniform(10240, 1e9, 1e6, 1e5, 1024) }},
	{"zoo", func() *model.Graph { g, _ := model.GPT3("2.6B"); return g }},
}

// benchOpTime times OpTime over both shapes, operators in graph order.
// A hit run asks, as the bench ledger's probes do (bench/probes.go:
// profiler.optime_hit_ns), for one of keys entries stored beforehand, a
// key per (operator, sample count). A miss run (keys = 0) asks for an
// entry nobody asked for before — the call number spread over samples
// and shards, because the zoo's layers share entries — so the database
// grows to b.N entries and the cost per entry must not grow with it.
func benchOpTime(b *testing.B, keys int) {
	for _, shape := range benchShapes {
		b.Run(shape.name, func(b *testing.B) {
			g := shape.graph()
			p := New(hardware.DGX1V100(512), 1)
			hit := func(i int) {
				sink += p.OpTime(&g.Ops[i%len(g.Ops)], 1, 0, 1+i/len(g.Ops), 1, false, g.Precision)
			}
			for i := 0; i < keys; i++ {
				hit(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if keys > 0 {
					hit(i % keys)
				} else {
					sink += p.OpTime(&g.Ops[i%len(g.Ops)], 1, 0, 1+i&(1<<20-1), 1+i>>20, false, g.Precision)
				}
			}
		})
	}
}

// BenchmarkOpTimeHit reads a database of 62 592 entries, the size the
// scale workload's search fills.
func BenchmarkOpTimeHit(b *testing.B) { benchOpTime(b, 62592) }

// BenchmarkOpTimeMiss computes and stores a fresh entry per call.
func BenchmarkOpTimeMiss(b *testing.B) { benchOpTime(b, 0) }
