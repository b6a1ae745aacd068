package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"aceso/internal/planserver"
)

// contract is BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestContractMatchesCode holds BENCHMARK.json and the tables in the
// code together: same workloads, metrics, units and bounds, within the
// contract's limits.
func TestContractMatchesCode(t *testing.T) {
	c := readContract(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	checkName := func(n, u string) {
		t.Helper()
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: unit %q is malformed", n, u)
		}
		seen[n] = true
	}
	if c.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the code's default is %d", c.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(c.Paths, []string{"bench"}) || !reflect.DeepEqual(c.Command, []string{"go", "run", "-C", "bench", "."}) {
		t.Errorf("paths %v command %v", c.Paths, c.Command)
	}
	if len(c.Workloads) != len(workloads) || len(c.Workloads) > 8 {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		checkName(w.Name, "")
		if w.Name != workloads[i].name || w.Why != workloads[i].why || len(w.Why) > 200 {
			t.Errorf("workload %d: %q / %q differs from the code's %q / %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(c.EndToEnd) != len(endToEnd) || len(c.EndToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the code", len(c.EndToEnd), len(endToEnd))
	}
	for i, m := range c.EndToEnd {
		checkName(m.Name, m.Unit)
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit || m.Bound != endToEnd[i].bound || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %d: %+v differs from the code's %+v", i, m, endToEnd[i])
		}
	}
	if len(c.PerLayer) != len(perLayer) || len(c.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the code", len(c.PerLayer), len(perLayer))
	}
	for i, m := range c.PerLayer {
		checkName(m.Name, m.Unit)
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: %+v differs from the code's %+v", i, m, perLayer[i])
		}
	}
}

// kindOf classifies a miss request by its shape alone.
func kindOf(r *planserver.PlanRequest) string {
	switch f := r.Cluster.Faults; {
	case len(r.Cluster.Classes) > 0:
		return "spot"
	case r.Options.Seed != 1:
		return "reseed"
	case r.Cluster.Preset == "a100v100":
		return "hetero"
	case f != nil && len(f.Dead) > 0:
		return "dead"
	case f != nil && len(f.Derates) > 0:
		return "derate"
	}
	return ""
}

func TestGeneratorIsDeterministic(t *testing.T) {
	const n = 2000
	a, err := marshalAll(missList(7, 50, n))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := marshalAll(missList(7, 50, n))
	other, _ := marshalAll(missList(8, 50, n))
	if !reflect.DeepEqual(a, b) {
		t.Error("one seed gave two different miss lists")
	}
	if !reflect.DeepEqual(a[:50], other[:50]) {
		t.Error("the warm chain differs between seeds")
	}
	if bytes.Equal(a[50], other[50]) {
		t.Error("two seeds gave the same miss list")
	}
	seen := make(map[string]int)
	for i, body := range a {
		if j, dup := seen[string(body)]; dup {
			t.Fatalf("miss bodies %d and %d are equal: %s", j, i, body)
		}
		seen[string(body)] = i
	}
	for _, seed := range []int64{7, 8} {
		for i, r := range missList(seed, 20, 60) {
			if got := kindOf(&r); got != missKind(i) {
				t.Fatalf("seed %d request %d is a %q, the interleave says %q", seed, i, got, missKind(i))
			}
		}
	}
	keys := len(hotKeys(false))
	o1, o2 := hotOrder(7, keys), hotOrder(7, keys)
	if !reflect.DeepEqual(o1, o2) || reflect.DeepEqual(o1, hotOrder(8, keys)) {
		t.Error("hot order is not a function of the seed alone")
	}
	sort.Ints(o1)
	for i, k := range o1 {
		if i != k {
			t.Fatalf("hot order is not a permutation of the %d keys", keys)
		}
	}
}

// TestQuartileSpread checks the spread against what Python prints for
// statistics.quantiles(range(1, 11), n=4): [2.75, 5.5, 8.25].
func TestQuartileSpread(t *testing.T) {
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := quartileSpread(v); math.Abs(got-1) > 1e-12 {
		t.Errorf("quartileSpread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

// TestSampleBuf checks that a phase's samples stay in the mapped
// buffer while there is room, and that the buffer can be given back.
func TestSampleBuf(t *testing.T) {
	buf, err := newSampleBuf()
	if err != nil {
		t.Fatal(err)
	}
	first := &buf[:1][0]
	for i := 0; i < 1000; i++ {
		buf = append(buf, sample{start: float64(i), end: float64(i) + 0.5, alloc: uint64(i), failed: i%2 == 1})
	}
	if cap(buf) != maxSamples || &buf[0] != first {
		t.Errorf("append moved the samples out of the mapped buffer (cap %d)", cap(buf))
	}
	if got := len(durations(buf)); got != 500 {
		t.Errorf("%d samples that did not fail, want 500", got)
	}
	if err := freeSampleBuf(buf); err != nil {
		t.Error(err)
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root", 0, 0)
	kid := tr.begin("kid", root, 0)
	time.Sleep(2 * time.Millisecond)
	tr.end(kid, 1)
	time.Sleep(time.Millisecond)
	tr.end(root, 1)
	tr.begin("never ended", root, 0)
	spans := tr.finish()
	if len(spans) != 2 {
		t.Fatalf("%d closed spans, want 2", len(spans))
	}
	if err := checkNesting(spans); err != nil {
		t.Fatal(err)
	}
	r, k := spans[0], spans[1]
	if want := (r.EndS - r.StartS) - (k.EndS - k.StartS); math.Abs(r.SelfS-want) > 1e-9 || r.SelfS <= 0 {
		t.Errorf("root self time %v, want %v", r.SelfS, want)
	}
	spans[1].EndS = r.EndS + 1
	if checkNesting(spans) == nil {
		t.Error("a child that outlives its parent passed the nesting check")
	}
}

// TestQuickSmoke runs every workload untraced and traced at tiny size
// and checks that each prints exactly the metrics BENCHMARK.json names,
// with their units, and that the trace file's spans nest.
func TestQuickSmoke(t *testing.T) {
	c := readContract(t)
	units := func(defs []metricDef) map[string]string {
		out := make(map[string]string)
		for _, d := range defs {
			out[d.name] = d.unit
		}
		return out
	}
	check := func(t *testing.T, res *result, want map[string]string) {
		t.Helper()
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
		}
		got := make(map[string]string)
		for name, m := range res.Metrics {
			got[name] = m.Unit
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s = %v", name, m.Value)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("metrics printed %v, want %v", got, want)
		}
	}
	dir := t.TempDir()
	for _, cw := range c.Workloads {
		w := findWorkload(cw.Name)
		if w == nil {
			t.Fatalf("BENCHMARK.json names workload %q, the code has none", cw.Name)
		}
		t.Run(w.name, func(t *testing.T) {
			e := env{seed: 3, quick: true, seconds: 0.2, out: dir}
			res, err := runUntraced(w, e)
			if err != nil {
				t.Fatal(err)
			}
			check(t, res, units(endToEnd))
			for _, d := range endToEnd {
				if res.Metrics[d.name].Value <= 0 {
					t.Errorf("%s = %v, an end-to-end metric is never 0", d.name, res.Metrics[d.name].Value)
				}
			}
			if res, err = runTraced(w, e); err != nil {
				t.Fatal(err)
			}
			check(t, res, units(perLayer))
			// A metric is printed where it is on the workload's path
			// and is 0 elsewhere.
			v := func(name string) float64 { return res.Metrics[name].Value }
			search := strings.HasPrefix(w.name, "search-")
			for name, onSearch := range map[string]bool{
				"core.stagecount_slowest_s": true,
				"perfmodel.estimate_cold_s": true,
				"config.initial_s":          true,
				"planserver.handler_hit_s":  false,
				"planserver.handler_miss_s": false,
				"planserver.encode_s":       false,
				"plancache.graph_hash_s":    false,
			} {
				if (v(name) > 0) != (onSearch == search) {
					t.Errorf("%s = %v on %s", name, v(name), w.name)
				}
			}
			if share := v("core.critical_share"); search && !(share > 0 && share <= 1) {
				t.Errorf("core.critical_share = %v", share)
			}
			if share := v("planserver.http_share"); !search && !(share > 0 && share < 1) {
				t.Errorf("planserver.http_share = %v", share)
			}
			if share := v("bench.unattributed_share"); !(share >= 0 && share < 1) {
				t.Errorf("bench.unattributed_share = %v", share)
			}
			raw, err := os.ReadFile(filepath.Join(dir, "trace-"+w.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(raw, &tf); err != nil {
				t.Fatal(err)
			}
			if len(tf.Spans) == 0 {
				t.Fatal("trace file has no spans")
			}
			if err := checkNesting(tf.Spans); err != nil {
				t.Error(err)
			}
		})
	}
}
