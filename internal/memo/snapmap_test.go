package memo

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// intKey is the tests' key type: an integer that hashes itself.
type intKey int

func (k intKey) Hash() uint64 { return Mix(0, uint64(k)) }

// clashKey hashes every key to the same value, so all entries share
// one probe run: lookups must still tell keys apart by equality.
type clashKey int

func (clashKey) Hash() uint64 { return 7 }

func TestSnapMapBasics(t *testing.T) {
	var m SnapMap[intKey, string]
	v := "kept"
	if m.Load(1, &v) || v != "kept" {
		t.Fatalf("empty map: Load(1) = %q; want a miss that leaves the destination", v)
	}
	m.Store(1, "one")
	m.Store(2, "two")
	m.Store(1, "one") // a racing recomputation stores the same pair again
	if ok := m.Load(1, &v); !ok || v != "one" {
		t.Fatalf("Load(1) = %q, %v; want \"one\", true", v, ok)
	}
	if v = "kept"; m.Load(3, &v) || v != "kept" {
		t.Fatalf("Load(3) = %q; want a miss that leaves the destination", v)
	}
	if got := m.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
}

func TestSnapMapCollidingHashes(t *testing.T) {
	var m SnapMap[clashKey, int]
	const n = 200
	for i := 0; i < n; i++ {
		m.Store(clashKey(i), i+1)
	}
	var v int
	for i := 0; i < n; i++ {
		if ok := m.Load(clashKey(i), &v); !ok || v != i+1 {
			t.Fatalf("Load(%d) = %d, %v; want %d, true", i, v, ok, i+1)
		}
	}
	if m.Load(clashKey(n), &v) {
		t.Fatal("absent key with a colliding hash reported a hit")
	}
}

// TestSnapMapFill grows the table from empty through 14 doublings and
// checks nothing is lost or duplicated on the way.
func TestSnapMapFill(t *testing.T) {
	var m SnapMap[intKey, int]
	const n = 1 << 16
	for i := 0; i < n; i++ {
		m.Store(intKey(i), i*i)
	}
	if got := m.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	var v int
	for i := 0; i < n; i++ {
		if ok := m.Load(intKey(i), &v); !ok || v != i*i {
			t.Fatalf("Load(%d) = %d, %v; want %d, true", i, v, ok, i*i)
		}
	}
	m.Reset()
	if got := m.Len(); got != 0 {
		t.Fatalf("Len after Reset = %d, want 0", got)
	}
	if m.Load(1, &v) {
		t.Fatal("Reset kept an entry")
	}
	m.Store(3, 9)
	if ok := m.Load(3, &v); !ok || v != 9 || m.Len() != 1 {
		t.Fatalf("after Reset, Store: Load(3) = %d, %v, Len %d; want 9, true, 1", v, ok, m.Len())
	}
}

// TestSnapMapConcurrent races readers against writers while the table
// doubles ten times (8 → 8192 slots). Values are pure functions of
// their keys — the SnapMap correctness precondition — so a hit must
// return the canonical value, and a key a reader has once seen present
// must stay present: neither a store into the table the reader holds
// nor a growth behind its back may hide it. Run under -race in make ci.
func TestSnapMapConcurrent(t *testing.T) {
	var m SnapMap[intKey, int]
	const (
		writers = 4
		readers = 4
		keys    = 4096
	)
	var stop atomic.Bool
	var rd, wr, started sync.WaitGroup
	for r := 0; r < readers; r++ {
		rd.Add(1)
		started.Add(1)
		go func(r int) {
			defer rd.Done()
			started.Done()
			var seen [keys]bool
			var v int
			for !stop.Load() {
				for i := 0; i < keys; i++ {
					k := (i*7 + r*1031) % keys
					ok := m.Load(intKey(k), &v)
					switch {
					case ok && v != k*3:
						t.Errorf("Load(%d) = %d, want %d", k, v, k*3)
						return
					case !ok && seen[k]:
						t.Errorf("Load(%d) missed after an earlier hit", k)
						return
					}
					seen[k] = ok
				}
				runtime.Gosched()
			}
		}(r)
	}
	started.Wait()
	for w := 0; w < writers; w++ {
		wr.Add(1)
		go func(w int) {
			defer wr.Done()
			// Writers overlap on purpose: each key is stored by two of them.
			var v int
			for i := 0; i < keys/2; i++ {
				k := (w*keys/4 + i) % keys
				if !m.Load(intKey(k), &v) {
					m.Store(intKey(k), k*3)
				}
				if i%64 == 0 {
					runtime.Gosched() // let the readers in between growths
				}
			}
		}(w)
	}
	wr.Wait()
	stop.Store(true)
	rd.Wait()
	if got := m.Len(); got != keys {
		t.Fatalf("Len = %d, want %d", got, keys)
	}
	var v int
	for k := 0; k < keys; k++ {
		if ok := m.Load(intKey(k), &v); !ok || v != k*3 {
			t.Fatalf("after run: Load(%d) = %d, %v; want %d, true", k, v, ok, k*3)
		}
	}
}

// fillBytes returns the bytes allocated by storing n fresh keys into
// an empty map.
func fillBytes(n int) uint64 {
	var before, after runtime.MemStats
	var m SnapMap[intKey, float64]
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		m.Store(intKey(i), float64(i))
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(&m)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSnapMapFillIsLinear guards the cost model: a map's allocation is
// linear in its entries. Four times the entries may cost at most five
// times the bytes; a design that re-copies what it holds as it grows
// (the snapshot-merge one this table replaced cost 15×) fails here.
func TestSnapMapFillIsLinear(t *testing.T) {
	small, large := fillBytes(1<<14), fillBytes(1<<16)
	if large > 5*small {
		t.Fatalf("filling 65536 entries allocated %d bytes, %.1f× the %d bytes of 16384 entries; want ≤ 5×",
			large, float64(large)/float64(small), small)
	}
}

var sink int

// BenchmarkSnapMapLoadHit is the lock-free read every profiler and
// stage-cache hit pays, on a table the size of the scale workload's
// profiling database.
func BenchmarkSnapMapLoadHit(b *testing.B) {
	var m SnapMap[intKey, int]
	const n = 1 << 16
	for i := 0; i < n; i++ {
		m.Store(intKey(i), i)
	}
	b.ResetTimer()
	var v int
	for i := 0; i < b.N; i++ {
		m.Load(intKey(i&(n-1)), &v)
		sink += v
	}
}

// BenchmarkSnapMapFill stores n fresh keys into an empty map; ns/op and
// B/op divided by n are the amortised cost of one store, growth
// included, and must not depend on n.
func BenchmarkSnapMapFill(b *testing.B) {
	for _, c := range []struct {
		name string
		n    int
	}{{"1k", 1 << 10}, {"64k", 1 << 16}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var m SnapMap[intKey, float64]
				for k := 0; k < c.n; k++ {
					m.Store(intKey(k), float64(k))
				}
				sink += m.Len()
			}
		})
	}
}
