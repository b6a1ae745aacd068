package plancache

import (
	"encoding/json"
	"fmt"
	"testing"

	"aceso/internal/config"
	"aceso/internal/hardware"
	"aceso/internal/model"
)

func entry(g, c, o uint64) *Entry {
	return &Entry{
		Key:    Key{Graph: g, Cluster: c, Options: o},
		Plan:   json.RawMessage(fmt.Sprintf(`{"g":%d,"c":%d,"o":%d}`, g, c, o)),
		Config: &config.Config{},
	}
}

func TestCacheExactHitAndMiss(t *testing.T) {
	c := New(8)
	if _, ok := c.Get(Key{1, 2, 3}); ok {
		t.Fatal("hit on empty cache")
	}
	e := entry(1, 2, 3)
	c.Put(e)
	got, ok := c.Get(Key{1, 2, 3})
	if !ok || string(got.Plan) != string(e.Plan) {
		t.Fatalf("Get = %v, %v", got, ok)
	}
	if _, ok := c.Get(Key{1, 9, 3}); ok {
		t.Fatal("hit on different cluster hash")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 2 || s.Puts != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestCacheWarmIndex(t *testing.T) {
	c := New(8)
	c.Put(entry(1, 100, 3))
	c.Put(entry(1, 200, 3)) // same graph+options, newer cluster

	// Exact miss on a third cluster, but warm donor available — the
	// most recently inserted one.
	if _, ok := c.Get(Key{1, 300, 3}); ok {
		t.Fatal("unexpected exact hit")
	}
	w, ok := c.Warm(Key{1, 300, 3})
	if !ok {
		t.Fatal("no warm donor")
	}
	if w.Key.Cluster != 200 {
		t.Fatalf("warm donor cluster = %d, want most recent 200", w.Key.Cluster)
	}
	// Different options: no donor.
	if _, ok := c.Warm(Key{1, 300, 4}); ok {
		t.Fatal("warm hit across different options")
	}
	// The family's entry is the request's own plan: no donor.
	if _, ok := c.Warm(Key{1, 200, 3}); ok {
		t.Fatal("warm hit on the requested key's own entry")
	}
	// An entry without a config cannot seed a search: no donor.
	c.Put(&Entry{Key: Key{1, 400, 3}})
	if _, ok := c.Warm(Key{1, 300, 3}); ok {
		t.Fatal("warm hit on an entry without a config")
	}
	if s := c.Stats(); s.WarmHits != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestCacheLRUEvictionClearsWarmPointer(t *testing.T) {
	c := New(2)
	c.Put(entry(1, 10, 0))
	c.Put(entry(2, 20, 0))
	c.Get(Key{1, 10, 0})   // bump 1 → LRU order: 1, 2
	c.Put(entry(3, 30, 0)) // evicts graph-2 entry
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
	if _, ok := c.Get(Key{2, 20, 0}); ok {
		t.Fatal("evicted entry still present")
	}
	if _, ok := c.Warm(Key{2, 0, 0}); ok {
		t.Fatal("warm pointer survived eviction")
	}
	if _, ok := c.Get(Key{1, 10, 0}); !ok {
		t.Fatal("recently-used entry evicted")
	}
	if s := c.Stats(); s.Evictions != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestCacheReplaceSameKey(t *testing.T) {
	c := New(2)
	c.Put(entry(1, 10, 0))
	e2 := entry(1, 10, 0)
	e2.Plan = json.RawMessage(`{"v":2}`)
	c.Put(e2)
	if c.Len() != 1 {
		t.Fatalf("len = %d after same-key Put", c.Len())
	}
	got, _ := c.Get(Key{1, 10, 0})
	if string(got.Plan) != `{"v":2}` {
		t.Fatalf("plan = %s", got.Plan)
	}
}

func tinyGraph(t *testing.T) *model.Graph {
	t.Helper()
	g, err := model.TinyGPT(2, 128, 256, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGraphHashSensitivity(t *testing.T) {
	a := tinyGraph(t)
	b := tinyGraph(t)
	if GraphHash(a) != GraphHash(b) {
		t.Fatal("identical builders hash differently")
	}
	// Every cost field the perf model reads must perturb the hash.
	mut := []func(*model.Graph){
		func(g *model.Graph) { g.GlobalBatch++ },
		func(g *model.Graph) { g.SeqLen++ },
		func(g *model.Graph) { g.Name = "other" },
		func(g *model.Graph) { g.Ops[1].FwdFLOPs *= 1.0000001 },
		func(g *model.Graph) { g.Ops[1].Params++ },
		func(g *model.Graph) { g.Ops[1].ActElems++ },
		func(g *model.Graph) { g.Ops = g.Ops[:len(g.Ops)-1] },
	}
	for i, m := range mut {
		g := tinyGraph(t)
		m(g)
		if GraphHash(g) == GraphHash(a) {
			t.Errorf("mutation %d did not change graph hash", i)
		}
	}
}

func TestClusterHashCanonicalFaultOrder(t *testing.T) {
	base := hardware.DGX1V100(2)
	if ClusterHash(&base) != ClusterHash(&base) {
		t.Fatal("non-deterministic cluster hash")
	}
	d1, err := base.Degrade(hardware.FaultSpec{Devices: []hardware.DeviceFault{
		{Device: 3, Dead: true},
		{Device: 7, FLOPSScale: 0.5, MemScale: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := base.Degrade(hardware.FaultSpec{Devices: []hardware.DeviceFault{
		{Device: 7, FLOPSScale: 0.5, MemScale: 1},
		{Device: 3, Dead: true},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if ClusterHash(&d1) != ClusterHash(&d2) {
		t.Fatal("fault listing order changed cluster hash")
	}
	if ClusterHash(&d1) == ClusterHash(&base) {
		t.Fatal("degraded cluster hashes equal to healthy")
	}
	small := base
	small.Nodes = 1
	if ClusterHash(&small) == ClusterHash(&base) {
		t.Fatal("node count not hashed")
	}
}
