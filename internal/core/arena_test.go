package core

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"aceso/internal/config"
	"aceso/internal/hardware"
	"aceso/internal/model"
	"aceso/internal/perfmodel"
)

// TestArenaAliasing pins the arena's liveness contract (see
// config.Arena): a config recycled through discard() must share no
// memory with any config the searcher retained. The test replays the
// searcher's own discipline — random primitive walks where unpicked
// candidates are either retained (as a pool/top-K insert would) or
// discarded — then scribbles over every byte of recycled memory, both
// directly and through CloneIn, and checks that every retained config
// is bitwise unchanged. A failure here means CloneIn handed out a
// backing array that a live config still references.
//
// Retention asks only for Key, as the search does; the canonical Hash
// of a retained config is first read after the scribbling — the moment
// a score tie would read it — and must be the hash of the config as it
// was retained.
func TestArenaAliasing(t *testing.T) {
	g, err := model.GPT3("350M")
	if err != nil {
		t.Fatal(err)
	}
	cl := hardware.DGX1V100(1) // 8 devices
	pm := perfmodel.New(g, cl, 1)
	prims := append(append([]Primitive(nil), Table...), ExtensionTable...)

	type retained struct {
		cfg  *config.Config
		key  uint64
		snap *config.Config // strippedClone at retention time
	}

	walk := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := &searcher{
			graph:    g,
			cluster:  cl,
			pm:       pm,
			opts:     Options{ExtendedPrimitives: true}.withDefaults(),
			deadline: time.Now().Add(time.Hour),
			visited:  make(map[uint64]bool),
			pool:     make(map[uint64]Candidate),
			cache:    make(map[uint64]*perfmodel.Estimate),
			arena:    &config.Arena{},
		}
		stages := 1 << rng.Intn(3) // 1, 2 or 4 pipeline stages
		mbs := 1 << rng.Intn(3)    // 1, 2 or 4
		cfg, err := config.Balanced(g, 8, stages, mbs)
		if err != nil {
			return true // not every (stages, mbs) combination is buildable
		}
		var kept []retained
		keep := func(c *config.Config) {
			kept = append(kept, retained{c, c.Key(), strippedClone(c)})
		}
		cur := cfg
		valid := make([]*config.Config, 0, 8)
		for step := 0; step < 8; step++ {
			prim := &prims[rng.Intn(len(prims))]
			stage := rng.Intn(cur.NumStages())
			cands := prim.apply(s, cur, stage)
			// Copy the batch out: the apply buffer itself is recycled by
			// the next apply call (searcher.applyBufs).
			valid = valid[:0]
			for _, c := range cands {
				if c != nil && c.Validate(g, cl.TotalDevices()) == nil {
					valid = append(valid, c)
				}
			}
			if len(valid) == 0 {
				continue
			}
			pick := rng.Intn(len(valid))
			for i, c := range valid {
				if i == pick {
					continue
				}
				if rng.Intn(2) == 0 {
					keep(c) // as a pool or top-K insert would
				} else {
					s.discard(c)
				}
			}
			if cur != cfg {
				s.discard(cur) // superseded intermediate, nothing aliases it
			}
			cur = valid[pick]
		}
		keep(cur) // the walk's final config is the "best" — always live

		// Scribble phase 1: overwrite every reachable field of every
		// recycled config in place.
		dead := make([]*config.Config, 0, s.arena.Len())
		for {
			c := s.arena.Get()
			if c == nil {
				break
			}
			c.MicroBatch = -1
			for i := range c.Stages {
				st := &c.Stages[i]
				st.Start, st.End, st.Devices = -1, -1, -1
				for j := range st.Ops {
					st.Ops[j] = config.OpSetting{TP: -7, DP: -7, Dim: -7, Recompute: true, ZeRO: true, SeqPar: true}
				}
			}
			dead = append(dead, c)
		}
		// Scribble phase 2: recycle them again through the production
		// path — CloneIn must overwrite every field without touching
		// memory a retained config still references.
		for _, c := range dead {
			s.arena.Put(c)
		}
		for range dead {
			c := cur.CloneIn(s.arena)
			for i := range c.Stages {
				for j := range c.Stages[i].Ops {
					c.Stages[i].Ops[j] = config.OpSetting{TP: -13, DP: -13}
				}
			}
		}

		for i, r := range kept {
			got := strippedClone(r.cfg)
			if !reflect.DeepEqual(got, r.snap) {
				t.Errorf("seed %d: retained config %d mutated by arena recycling\nnow:  %s\nwas:  %s",
					seed, i, r.cfg, r.snap)
				return false
			}
			if k := got.Key(); k != r.key || r.cfg.Key() != r.key {
				t.Errorf("seed %d: retained config %d rebuilt key %x, memo %x != %x at retention",
					seed, i, k, r.cfg.Key(), r.key)
				return false
			}
			if h, want := r.cfg.Hash(), r.snap.Hash(); h != want {
				t.Errorf("seed %d: retained config %d hashes to %x after recycling, %x as retained",
					seed, i, h, want)
				return false
			}
			// A tie between retained configs orders them as retained.
			a := Candidate{Config: r.cfg}
			b := Candidate{Config: kept[0].cfg}
			if a.less(&b) != (r.snap.Hash() < kept[0].snap.Hash()) {
				t.Errorf("seed %d: retained configs %d and 0 tie-break differently after recycling", seed, i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(walk, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestReleasedEstimatesAreDead pins release's liveness contract (see
// searcher.release): nothing reads an estimate after it goes back to the
// arena. Each released estimate is scribbled over the moment it is
// released — NaN in every float, garbage in every int, every flag
// flipped — so a live reference would read that, or, once the slot is
// reused, another configuration's estimate. The zoo rows of the
// determinism table, the pinned search among them, must still explore,
// rank and score as committed, and every estimate a result carries must
// be the one a fresh model computes for its configuration.
func TestReleasedEstimatesAreDead(t *testing.T) {
	if testing.Short() {
		t.Skip("50 searches")
	}
	var released, again atomic.Int64
	estimateHook = func(e *perfmodel.Estimate, recomputed bool) {
		if recomputed {
			again.Add(1)
			return
		}
		released.Add(1)
		scribble(reflect.ValueOf(e).Elem())
	}
	t.Cleanup(func() { estimateHook = nil })

	committed := committedRows(t)
	models, fleets := determinismZoo(t)
	row := 0
	for _, m := range models {
		g, err := m.build()
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range fleets {
			fresh := perfmodel.New(g, f.cl, 1)
			for _, procs := range []int{1, 4} {
				r0, a0 := released.Load(), again.Load()
				got, res := pinnedSearch(t, g, determinismRow{Model: m.name, Fleet: f.name, GOMAXPROCS: procs}, f.cl, Options{})
				if !reflect.DeepEqual(got, committed[row]) {
					t.Errorf("row %d drifted with released estimates scribbled:\n got %+v\nwant %+v", row, got, committed[row])
				}
				row++
				for i, c := range res.TopK {
					if want := fresh.Estimate(c.Config); !reflect.DeepEqual(c.Estimate, want) {
						t.Errorf("%s on %s: TopK[%d] carries an estimate that is not its config's", m.name, f.name, i)
					}
				}
				if m.name == "gpt3-2.6B" && f.name == "DGX1V100(2)" {
					t.Logf("pinned search, GOMAXPROCS %d: %d estimates released, %d released keys estimated again",
						procs, released.Load()-r0, again.Load()-a0)
				}
			}
		}
	}
	if released.Load() == 0 || again.Load() == 0 {
		t.Errorf("%d estimates released, %d estimated again: the test exercises nothing", released.Load(), again.Load())
	}
}

// scribble overwrites every field of v, through slices but never their
// headers (a released estimate keeps its Stages window for reuse).
func scribble(v reflect.Value) {
	switch v.Kind() {
	case reflect.Float64:
		v.SetFloat(math.NaN())
	case reflect.Int:
		v.SetInt(-7777)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			scribble(v.Field(i))
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			scribble(v.Index(i))
		}
	default:
		panic("scribble: no garbage for a " + v.Kind().String())
	}
}

// TestPinnedSearchAllocBudget bounds what the paper's pinned search
// allocates (GPT-3 2.6B on 16 V100s, four iterations, seed 1): the
// least of three consecutive searches at GOMAXPROCS 2 must stay within
// 32 MB. The later two clone into the arenas the one before handed over;
// the least of three survives -race, under which sync.Pool drops
// hand-overs at random. (15.3 MB when the budget was set; 67 MB before
// the estimates of dead recompute trials were released.)
func TestPinnedSearchAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("three pinned searches")
	}
	g, err := model.GPT3("2.6B")
	if err != nil {
		t.Fatal(err)
	}
	cl := hardware.DGX1V100(2)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const budget = 32e6
	least := uint64(math.MaxUint64)
	var ms runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		res, err := Search(g, cl, Options{TimeBudget: time.Hour, MaxIterations: 4, Seed: 1})
		runtime.ReadMemStats(&ms)
		if err != nil {
			t.Fatal(err)
		}
		if res.Explored != 24701 {
			t.Fatalf("explored %d, the pinned search explores 24 701", res.Explored)
		}
		least = min(least, ms.TotalAlloc-before)
	}
	if least > budget {
		t.Errorf("the pinned search allocated %.1f MB at best of three, budget %.0f MB", float64(least)/1e6, budget/1e6)
	}
}

// TestPruneInsertAllocs pins the zero-allocation steady state of the
// pool maintenance path: with pruneBuf hoisted into the searcher and
// poolEntries sorted through a pointer receiver, a prune (and the limbo
// flush that follows at the iteration boundary) allocates nothing, and
// insertTopK splices into its retained backing array.
func TestPruneInsertAllocs(t *testing.T) {
	s := &searcher{pool: make(map[uint64]Candidate, 2*poolCap)}
	fill := func() {
		for i := 0; i < poolCap+1; i++ {
			h := uint64(i)*2654435761 + 1
			s.pool[h] = Candidate{Score: float64(i), key: h}
		}
	}
	// Warm-up: grow pruneBuf, limbo and the map to steady-state capacity.
	fill()
	s.prunePool()
	s.flushLimbo()

	if got := testing.AllocsPerRun(10, func() {
		fill()
		s.prunePool()
		s.flushLimbo()
	}); got > 0 {
		t.Errorf("prunePool+flushLimbo: %.0f allocs/op in steady state, want 0", got)
	}

	const k = 5
	list := make([]Candidate, 0, k+1)
	n := 0
	if got := testing.AllocsPerRun(100, func() {
		// Each insert is a fresh key ranking first, so it takes the
		// splice path (append + copy) every time.
		n++
		list = insertTopK(list, Candidate{Score: -float64(n), key: uint64(n)}, k)
	}); got > 0 {
		t.Errorf("insertTopK: %.0f allocs/op in steady state, want 0", got)
	}
}

// TestArenasOutliveSearch pins the hand-over through arenaPool: the
// search after this one clones into the memory this one recycled, and
// nothing this one returned is in that memory. Every config of the
// first result must read afterwards as it read when it was returned,
// although later searches — of another model, so that every recycled
// slice is re-cut — have overwritten the arenas; and a repeated search
// must find its clones in the arena it is handed.
func TestArenasOutliveSearch(t *testing.T) {
	small, err := model.GPT3("350M")
	if err != nil {
		t.Fatal(err)
	}
	large, err := model.GPT3("1.3B")
	if err != nil {
		t.Fatal(err)
	}
	cl := hardware.DGX1V100(1)
	opts := Options{MaxIterations: 3, Seed: 1}

	first, err := Search(small, cl, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(first.TopK))
	for i, c := range first.TopK {
		want[i] = c.Config.Canonical()
	}
	for _, g := range []*model.Graph{large, small} {
		if _, err := Search(g, cl, opts); err != nil {
			t.Fatal(err)
		}
	}
	for i, c := range first.TopK {
		if got := c.Config.Canonical(); got != want[i] {
			t.Errorf("TopK[%d] of the first search was overwritten by a later one:\n got %.80s…\nwant %.80s…", i, got, want[i])
		}
	}

	// Same search twice on arenas this test put into the emptied pool:
	// the second run's clones all come out of the first run's leavings.
	// sync.Pool may drop what it is given (a collection, the race
	// detector's sampling), so a lost hand-over is tried again.
	for try := 0; try < 10; try++ {
		for arenaPool.Get() != nil {
		}
		ap := &[]config.Arena{}
		var reused [2]int
		held := true
		for i := range reused {
			arenaPool.Put(ap)
			before := 0
			for w := range *ap {
				_, _, r := (*ap)[w].Stats()
				before += r
			}
			if _, err := Search(small, cl, opts); err != nil {
				t.Fatal(err)
			}
			if got, _ := arenaPool.Get().(*[]config.Arena); got != ap {
				held = false
				break
			}
			for w := range *ap {
				_, _, r := (*ap)[w].Stats()
				reused[i] += r
			}
			reused[i] -= before
		}
		if !held {
			continue
		}
		if reused[1] <= reused[0] {
			t.Errorf("second search reused %d recycled configs, first %d: the arenas were not handed over", reused[1], reused[0])
		}
		return
	}
	t.Skip("sync.Pool never handed the arenas back in ten tries")
}
