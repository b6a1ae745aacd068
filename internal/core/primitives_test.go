package core

import (
	"testing"
	"testing/quick"
	"time"

	"aceso/internal/config"
	"aceso/internal/hardware"
	"aceso/internal/model"
	"aceso/internal/perfmodel"
)

// newSearcher builds a searcher suitable for exercising primitive
// applications directly.
func newSearcher(t *testing.T, g *model.Graph, devices int) *searcher {
	t.Helper()
	cl := hardware.DGX1V100(4).Restrict(devices)
	return &searcher{
		graph:    g,
		cluster:  cl,
		pm:       perfmodel.New(g, cl, 1),
		opts:     Options{}.withDefaults(),
		deadline: time.Now().Add(time.Minute),
		visited:  make(map[uint64]bool),
		pool:     make(map[uint64]Candidate),
		cache:    make(map[uint64]*perfmodel.Estimate),
	}
}

func mustBalanced(t *testing.T, g *model.Graph, devices, stages, mbs int) *config.Config {
	t.Helper()
	c, err := config.Balanced(g, devices, stages, mbs)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestTableShape(t *testing.T) {
	if len(Table) != 10 {
		t.Fatalf("Table has %d primitives, want 10 (Table 1)", len(Table))
	}
	// Each inc/dec pair must have opposite non-flat trends.
	pairs := [][2]string{
		{"inc-op#", "dec-op#"}, {"inc-mbs", "dec-mbs"},
		{"inc-dp", "dec-dp"}, {"inc-tp", "dec-tp"}, {"inc-rc", "dec-rc"},
	}
	for _, pr := range pairs {
		a, b := PrimitiveByName(pr[0]), PrimitiveByName(pr[1])
		if a == nil || b == nil {
			t.Fatalf("missing primitive pair %v", pr)
		}
		for _, r := range []Resource{Comp, Comm, Mem} {
			ea, eb := a.effect(r), b.effect(r)
			if ea == Flat && eb == Flat {
				continue
			}
			if ea != -eb {
				t.Errorf("%s/%s: %v trends %d/%d not opposite", a.Name, b.Name, r, ea, eb)
			}
		}
	}
	if PrimitiveByName("nonsense") != nil {
		t.Error("PrimitiveByName(nonsense) should be nil")
	}
}

func TestEligibleMatchesPaperExample(t *testing.T) {
	// §1's example: a compute- and memory-intensive bottleneck with
	// spare communication should surface inc-tp as eligible.
	memDown := names(Eligible(Mem))
	if !contains(memDown, "inc-tp") || !contains(memDown, "inc-dp") ||
		!contains(memDown, "inc-rc") || !contains(memDown, "dec-op#") ||
		!contains(memDown, "dec-mbs") {
		t.Errorf("Eligible(Mem) = %v, missing expected primitives", memDown)
	}
	compDown := names(Eligible(Comp))
	if !contains(compDown, "inc-tp") || !contains(compDown, "dec-rc") ||
		!contains(compDown, "inc-mbs") {
		t.Errorf("Eligible(Comp) = %v, missing expected primitives", compDown)
	}
	commDown := names(Eligible(Comm))
	if !contains(commDown, "dec-tp") || !contains(commDown, "dec-dp") {
		t.Errorf("Eligible(Comm) = %v, missing expected primitives", commDown)
	}
	if contains(commDown, "inc-tp") {
		t.Error("inc-tp must not be eligible for communication bottlenecks")
	}
}

func names(ps []*Primitive) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}

func contains(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// checkPreserved asserts the semantic-preservation invariant: a
// primitive never changes the op coverage, total devices, or batch.
func checkPreserved(t *testing.T, s *searcher, before *config.Config, after []*config.Config, prim string) {
	t.Helper()
	for _, c := range after {
		if c == nil {
			continue
		}
		if err := c.Validate(s.graph, s.cluster.TotalDevices()); err != nil {
			t.Errorf("%s produced invalid config: %v", prim, err)
			continue
		}
		if c.TotalDevices() != before.TotalDevices() {
			t.Errorf("%s changed total devices %d → %d", prim, before.TotalDevices(), c.TotalDevices())
		}
	}
}

func TestAllPrimitivesPreserveSemantics(t *testing.T) {
	g, _ := model.GPT3("350M")
	s := newSearcher(t, g, 8)
	cfg := mustBalanced(t, g, 8, 4, 4)
	// Give the config some dp so dec-dp/retile paths activate.
	for i := range cfg.Stages {
		for j := range cfg.Stages[i].Ops {
			cfg.Stages[i].Ops[j] = config.OpSetting{TP: 1, DP: cfg.Stages[i].Devices, Dim: 0}
		}
	}
	if err := cfg.Validate(g, 8); err != nil {
		t.Fatal(err)
	}
	for i := range Table {
		prim := &Table[i]
		got := prim.apply(s, cfg, 1)
		checkPreserved(t, s, cfg, got, prim.Name)
	}
}

func TestMoveOps(t *testing.T) {
	g := model.Uniform(20, 1e10, 1e6, 1e5, 64)
	s := newSearcher(t, g, 4)
	cfg := mustBalanced(t, g, 4, 2, 2)

	// Move 3 ops from stage 1 back to stage 0.
	c := moveOps(s, cfg, 1, -1, 3)
	if c == nil {
		t.Fatal("moveOps returned nil")
	}
	if err := c.Validate(g, 4); err != nil {
		t.Fatal(err)
	}
	if got := c.Stages[0].NumOps(); got != cfg.Stages[0].NumOps()+3 {
		t.Errorf("stage 0 has %d ops, want %d", got, cfg.Stages[0].NumOps()+3)
	}
	// Move forward.
	c2 := moveOps(s, cfg, 0, +1, 2)
	if c2 == nil {
		t.Fatal("forward moveOps returned nil")
	}
	if err := c2.Validate(g, 4); err != nil {
		t.Fatal(err)
	}
	// Donor must keep one op.
	if c := moveOps(s, cfg, 0, +1, cfg.Stages[0].NumOps()); c != nil {
		t.Error("moveOps emptied the donor stage")
	}
	// Out-of-range target.
	if c := moveOps(s, cfg, 0, -1, 1); c != nil {
		t.Error("moveOps past stage 0 should fail")
	}
	if c := moveOps(s, cfg, 1, +1, 1); c != nil {
		t.Error("moveOps past the last stage should fail")
	}
}

func TestMoveOpsPreservesDims(t *testing.T) {
	// A layernorm op (single dim) moving into a stage whose template
	// op is a matmul must keep Dim 0 — the bug class where templates
	// carried out-of-range dims.
	g, _ := model.GPT3("350M")
	s := newSearcher(t, g, 4)
	cfg := mustBalanced(t, g, 4, 2, 1)
	for k := 1; k < 16; k++ {
		for _, dir := range []int{-1, +1} {
			for _, from := range []int{0, 1} {
				c := moveOps(s, cfg, from, dir, k)
				if c == nil {
					continue
				}
				if err := c.Validate(g, 4); err != nil {
					t.Fatalf("moveOps(from=%d dir=%d k=%d): %v", from, dir, k, err)
				}
			}
		}
	}
}

func TestIncDecMBS(t *testing.T) {
	g := model.Uniform(8, 1e10, 1e6, 1e5, 64)
	s := newSearcher(t, g, 4)
	cfg := mustBalanced(t, g, 4, 2, 4)

	up := applyIncMBS(s, cfg, 0)
	if len(up) != 1 || up[0].MicroBatch != 8 {
		t.Fatalf("inc-mbs: got %v", up)
	}
	down := applyDecMBS(s, cfg, 0)
	if len(down) != 1 || down[0].MicroBatch != 2 {
		t.Fatalf("dec-mbs: got %v", down)
	}
	// dec-mbs must respect dp | mbs.
	c := cfg.Clone()
	for j := range c.Stages[0].Ops {
		c.Stages[0].Ops[j] = config.OpSetting{TP: 1, DP: 4, Dim: 0} // dp=4 == mbs
	}
	if got := applyDecMBS(s, c, 0); got != nil {
		t.Error("dec-mbs below max dp should be rejected")
	}
	// inc-mbs cannot exceed global batch divisibility.
	c2 := cfg.Clone()
	c2.MicroBatch = g.GlobalBatch
	if got := applyIncMBS(s, c2, 0); got != nil {
		t.Error("inc-mbs beyond global batch should be rejected")
	}
}

func TestGrowShrinkMoveDevices(t *testing.T) {
	g := model.Uniform(16, 1e10, 1e6, 1e5, 64)
	s := newSearcher(t, g, 16)
	cfg := mustBalanced(t, g, 16, 3, 4) // devices 4,4,8

	grown := tradeDevices(s, cfg, 0, true, false, nil) // inc-tp on stage 0: partner must hold 8
	if len(grown) == 0 {
		t.Fatal("growing produced nothing")
	}
	for _, c := range grown {
		if c.Stages[0].Devices != 8 || c.Stages[2].Devices != 4 {
			t.Errorf("grow: devices = %d,%d,%d, want 8,4,4",
				c.Stages[0].Devices, c.Stages[1].Devices, c.Stages[2].Devices)
		}
		if err := c.Validate(g, 16); err != nil {
			t.Error(err)
		}
	}
	shrunk := tradeDevices(s, cfg, 2, false, false, nil) // dec-tp on stage 2: partner must hold 4
	if len(shrunk) == 0 {
		t.Fatal("shrinking produced nothing")
	}
	for _, c := range shrunk {
		if c.Stages[2].Devices != 4 {
			t.Errorf("shrink: stage 2 has %d devices, want 4", c.Stages[2].Devices)
		}
		if c.Stages[0].Devices+c.Stages[1].Devices != 12 {
			t.Errorf("shrink: freed devices not granted to a partner: %d,%d",
				c.Stages[0].Devices, c.Stages[1].Devices)
		}
		if err := c.Validate(g, 16); err != nil {
			t.Error(err)
		}
	}
	// No eligible partner: even 4,4 split has no stage with 8 devices.
	even := mustBalanced(t, g, 8, 2, 4)
	if got := tradeDevices(s, even, 0, true, false, nil); got != nil {
		t.Error("grow without an exactly-double partner should fail")
	}
	// Single-stage configs cannot trade devices.
	solo := mustBalanced(t, g, 8, 1, 4)
	if got := tradeDevices(s, solo, 0, true, false, nil); got != nil {
		t.Error("grow on a 1-stage pipeline should fail")
	}
}

func TestRetile(t *testing.T) {
	g := model.Uniform(8, 1e10, 1e6, 1e5, 64)
	s := newSearcher(t, g, 8)
	cfg := mustBalanced(t, g, 8, 1, 8) // tp=8, dp=1

	c := retileRange(s, cfg, 0, 0, true) // toward dp
	if c == nil {
		t.Fatal("retile toDP failed")
	}
	op := c.Stages[0].Ops[0]
	if op.TP != 4 || op.DP != 2 {
		t.Errorf("retile: tp=%d dp=%d, want 4,2", op.TP, op.DP)
	}
	if c.Stages[0].Devices != 8 {
		t.Error("retile changed device count")
	}
	// Reverse restores the original (inc∘dec identity, invariant 3).
	back := retileRange(s, c, 0, 0, false)
	if back == nil {
		t.Fatal("reverse retile failed")
	}
	if back.Hash() != cfg.Hash() {
		t.Error("retile toDP then toTP should restore the original hash")
	}
	// tp=1 cannot retile further toward dp... (needs tp ≥ 2)
	flat := cfg.Clone()
	for j := range flat.Stages[0].Ops {
		flat.Stages[0].Ops[j] = config.OpSetting{TP: 1, DP: 8, Dim: 0}
	}
	if got := retileRange(s, flat, 0, 0, true); got != nil {
		t.Error("retile toDP with tp=1 should fail")
	}
}

func TestIncDecRC(t *testing.T) {
	g, _ := model.GPT3("350M")
	s := newSearcher(t, g, 4)
	cfg := mustBalanced(t, g, 4, 2, 1)

	inc := applyIncRC(s, cfg, 0)
	if len(inc) == 0 {
		t.Fatal("inc-rc produced nothing")
	}
	found := false
	for _, c := range inc {
		n := c.RecomputedOps(0)
		if n == 0 {
			t.Error("inc-rc candidate with no recomputed ops")
		}
		if n > 0 {
			found = true
		}
		if c.RecomputedOps(1) != 0 {
			t.Error("inc-rc leaked into another stage")
		}
	}
	if !found {
		t.Fatal("no candidate recomputes anything")
	}
	// dec-rc on a fully-recomputed stage.
	full := cfg.Clone()
	for j := range full.Stages[0].Ops {
		full.Stages[0].Ops[j].Recompute = true
	}
	dec := applyDecRC(s, full, 0)
	if len(dec) == 0 {
		t.Fatal("dec-rc produced nothing")
	}
	for _, c := range dec {
		if c.RecomputedOps(0) >= full.RecomputedOps(0) {
			t.Error("dec-rc did not reduce recomputed ops")
		}
	}
	// dec-rc with nothing to clear.
	if got := applyDecRC(s, cfg, 0); got != nil {
		t.Error("dec-rc on rc-free stage should be nil")
	}
}

func TestIncRCPicksLargestActivations(t *testing.T) {
	// With skewed activations, the first recompute target must be the
	// op with the largest stash (§4.1 greedy).
	g := model.Skewed(8, 1e10, 1e6, 1e6, 1.0, 64)
	s := newSearcher(t, g, 4)
	cfg := mustBalanced(t, g, 4, 1, 4)
	cands := applyIncRC(s, cfg, 0)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	c := cands[0] // k=1 candidate
	if !c.Stages[0].Ops[7].Recompute {
		t.Errorf("expected heaviest op (7) recomputed first; got %+v", c.Stages[0].Ops)
	}
}

func TestOpKs(t *testing.T) {
	cases := []struct {
		n    int
		want []int
	}{
		{1, nil},
		{2, []int{1}},
		{3, []int{1}},
		{8, []int{1, 2, 4}},
		{100, []int{1, 2, 4, 8, 16, 32}},
	}
	for _, tc := range cases {
		got := opKs(nil, tc.n)
		if len(got) != len(tc.want) {
			t.Errorf("opKs(%d) = %v, want %v", tc.n, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("opKs(%d) = %v, want %v", tc.n, got, tc.want)
				break
			}
		}
	}
}

// Property: every candidate every primitive generates from a valid
// config is itself valid (invariant 1), for varied stage counts.
func TestPrimitiveValidityProperty(t *testing.T) {
	g, _ := model.GPT3("350M")
	s := newSearcher(t, g, 8)
	f := func(stRaw, mbsRaw, primRaw, stageRaw uint8) bool {
		stages := int(stRaw%4) + 1
		mbs := 1 << (mbsRaw % 3)
		cfg, err := config.Balanced(g, 8, stages, mbs)
		if err != nil {
			return true
		}
		prim := &Table[int(primRaw)%len(Table)]
		stage := int(stageRaw) % stages
		for _, c := range prim.apply(s, cfg, stage) {
			if c == nil {
				continue
			}
			if err := c.Validate(g, 8); err != nil {
				t.Logf("%s on stage %d/%d: %v", prim.Name, stage, stages, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
