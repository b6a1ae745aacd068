package config

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"aceso/internal/model"
)

func mustBalanced(t *testing.T, g *model.Graph, devices, stages, mbs int) *Config {
	t.Helper()
	c, err := Balanced(g, devices, stages, mbs)
	if err != nil {
		t.Fatalf("Balanced(%d devices, %d stages): %v", devices, stages, err)
	}
	return c
}

func TestDeviceSplit(t *testing.T) {
	cases := []struct {
		total, stages int
		want          []int
	}{
		{16, 3, []int{4, 4, 8}},
		{32, 5, []int{4, 4, 8, 8, 8}},
		{8, 3, []int{2, 2, 4}},
		{4, 3, []int{1, 1, 2}},
		{32, 4, []int{8, 8, 8, 8}},
		{1, 1, []int{1}},
		{24, 2, []int{8, 16}},
	}
	for _, tc := range cases {
		got, err := DeviceSplit(tc.total, tc.stages)
		if err != nil {
			t.Errorf("DeviceSplit(%d, %d): %v", tc.total, tc.stages, err)
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("DeviceSplit(%d, %d) = %v, want %v", tc.total, tc.stages, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("DeviceSplit(%d, %d) = %v, want %v", tc.total, tc.stages, got, tc.want)
				break
			}
		}
	}
	if _, err := DeviceSplit(2, 3); err == nil {
		t.Error("DeviceSplit(2, 3) should fail")
	}
	if _, err := DeviceSplit(0, 1); err == nil {
		t.Error("DeviceSplit(0, 1) should fail")
	}
}

// Property: DeviceSplit always returns powers of two summing to total.
func TestDeviceSplitProperty(t *testing.T) {
	f := func(tRaw, sRaw uint8) bool {
		total := 1 << (tRaw % 7) // 1..64
		stages := int(sRaw%8) + 1
		got, err := DeviceSplit(total, stages)
		if err != nil {
			return total < stages // only legitimate failure
		}
		sum := 0
		for _, d := range got {
			if !IsPow2(d) {
				return false
			}
			sum += d
		}
		return sum == total && len(got) == stages
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// uniform is the weight vector of Balanced: every stage alike.
func uniform(stages int) []float64 {
	w := make([]float64, stages)
	for s := range w {
		w[s] = 1
	}
	return w
}

func TestOpSplitBalance(t *testing.T) {
	g := model.Uniform(100, 1e9, 1e6, 1e5, 64)
	ranges, err := OpSplit(g, uniform(4))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range ranges {
		n := r[1] - r[0]
		if n < 20 || n > 30 {
			t.Errorf("stage %d got %d uniform ops, want ≈25", i, n)
		}
	}
}

func TestOpSplitSkewed(t *testing.T) {
	// With 4× heavier ops at the end, the last stage must hold fewer
	// ops than the first for a FLOPs-balanced split.
	g := model.Skewed(100, 1e9, 1e6, 1e5, 0.1, 64)
	ranges, err := OpSplit(g, uniform(4))
	if err != nil {
		t.Fatal(err)
	}
	first := ranges[0][1] - ranges[0][0]
	last := ranges[3][1] - ranges[3][0]
	if last >= first {
		t.Errorf("last stage has %d ops, first has %d; want fewer in last", last, first)
	}
	// Cover: contiguous, complete.
	if ranges[0][0] != 0 || ranges[3][1] != 100 {
		t.Errorf("ranges don't cover the model: %v", ranges)
	}
	for i := 1; i < 4; i++ {
		if ranges[i][0] != ranges[i-1][1] {
			t.Errorf("ranges not contiguous: %v", ranges)
		}
	}
}

func TestOpSplitErrors(t *testing.T) {
	g := model.Uniform(3, 1e9, 1e6, 1e5, 64)
	if _, err := OpSplit(g, uniform(4)); err == nil {
		t.Error("OpSplit with more stages than ops should fail")
	}
	if _, err := OpSplit(g, nil); err == nil {
		t.Error("OpSplit(0 stages) should fail")
	}
}

// TestMinMaxPartition checks the DP on unit costs it can be worked by
// hand: a range costs the sum of its units, offered twice at one cost.
func TestMinMaxPartition(t *testing.T) {
	units := []float64{1, 2, 3, 4, 5}
	calls := 0
	sum := func(from, to, _ int, offer func(float64, OpSetting)) {
		calls++
		c := 0.0
		for _, u := range units[from:to] {
			c += u
		}
		offer(c, OpSetting{TP: 1})
		offer(c, OpSetting{TP: 2}) // a tie: the first offer stays
	}
	tp1 := []OpSetting{{TP: 1}, {TP: 1}}
	cuts, sets, cost := MinMaxPartition(len(units), 2, 1, 5, sum)
	if cost != 9 || !reflect.DeepEqual(cuts, []int{0, 3, 5}) || !reflect.DeepEqual(sets, tp1) {
		t.Errorf("MinMaxPartition = %v, %v, %v; want [0 3 5], %v, 9", cuts, sets, cost, tp1)
	}
	// Stage 0 is asked about [0,1)…[0,4); the last stage only about the
	// ranges [k, 5) that end the units, 1 ≤ k < 5.
	if calls != 4+4 {
		t.Errorf("eval called %d times, want 8", calls)
	}
	// No range of 3…5 units splits 5 units in two.
	if cuts, _, _ := MinMaxPartition(len(units), 2, 3, 5, sum); cuts != nil {
		t.Errorf("infeasible lengths partitioned: %v", cuts)
	}
	// A stage that offers nothing leaves its prefix infeasible, and the
	// next stage is not asked about it.
	calls = 0
	cuts, sets, _ = MinMaxPartition(len(units), 2, 1, 5, func(from, to, s int, offer func(float64, OpSetting)) {
		if s == 0 && to < 4 {
			calls++
			return
		}
		sum(from, to, s, offer)
	})
	if !reflect.DeepEqual(cuts, []int{0, 4, 5}) || !reflect.DeepEqual(sets, tp1) || calls != 3+2 {
		t.Errorf("MinMaxPartition = %v, %v after %d calls; want [0 4 5], %v after 5", cuts, sets, calls, tp1)
	}
}

func TestBalancedValidates(t *testing.T) {
	g := model.Uniform(32, 1e9, 1e6, 1e5, 64)
	for _, tc := range []struct{ dev, st int }{{16, 4}, {16, 3}, {8, 1}, {4, 4}, {1, 1}} {
		c := mustBalanced(t, g, tc.dev, tc.st, 1)
		if err := c.Validate(g, tc.dev); err != nil {
			t.Errorf("Balanced(%d, %d) invalid: %v", tc.dev, tc.st, err)
		}
		if c.NumStages() != tc.st {
			t.Errorf("stages = %d, want %d", c.NumStages(), tc.st)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	g := model.Uniform(16, 1e9, 1e6, 1e5, 64)
	fresh := func() *Config { return mustBalanced(t, g, 8, 2, 4) }

	c := fresh()
	c.MicroBatch = 3 // does not divide batch 64... actually it doesn't divide 64
	if err := c.Validate(g, 8); err == nil {
		t.Error("non-dividing microbatch not caught")
	}

	c = fresh()
	c.Stages[0].Devices = 3
	if err := c.Validate(g, 8); err == nil {
		t.Error("non-power-of-two devices not caught")
	}

	c = fresh()
	c.Stages[1].Start++ // gap between stages
	c.Stages[1].Ops = c.Stages[1].Ops[1:]
	if err := c.Validate(g, 8); err == nil {
		t.Error("op-range gap not caught")
	}

	c = fresh()
	c.Stages[0].Ops[0].TP = 2 // tp·dp != devices
	if err := c.Validate(g, 8); err == nil {
		t.Error("tp·dp mismatch not caught")
	}

	c = fresh()
	c.Stages[0].Ops[0].Dim = 5
	if err := c.Validate(g, 8); err == nil {
		t.Error("out-of-range dim not caught")
	}

	c = fresh()
	if err := c.Validate(g, 16); err == nil {
		t.Error("device-count mismatch not caught")
	}

	c = fresh()
	c.MicroBatch = 0
	if err := c.Validate(g, 8); err == nil {
		t.Error("zero microbatch not caught")
	}
}

func TestValidateDPDividesMicrobatch(t *testing.T) {
	g := model.Uniform(16, 1e9, 1e6, 1e5, 64)
	c := mustBalanced(t, g, 8, 2, 2)
	for j := range c.Stages[0].Ops {
		c.Stages[0].Ops[j] = OpSetting{TP: 1, DP: 4, Dim: 0}
	}
	// dp=4 does not divide mbs=2.
	if err := c.Validate(g, 8); err == nil {
		t.Error("dp not dividing microbatch not caught")
	}
	c.MicroBatch = 4
	if err := c.Validate(g, 8); err != nil {
		t.Errorf("mbs=4 dp=4 should be valid: %v", err)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := model.Uniform(16, 1e9, 1e6, 1e5, 64)
	c := mustBalanced(t, g, 8, 2, 4)
	d := c.Clone()
	d.Stages[0].Ops[0].Recompute = true
	d.MicroBatch = 8
	if c.Stages[0].Ops[0].Recompute {
		t.Error("Clone shares op settings with original")
	}
	if c.MicroBatch != 4 {
		t.Error("Clone shares scalar state")
	}
}

func TestHashDistinguishesAndMatches(t *testing.T) {
	g := model.Uniform(16, 1e9, 1e6, 1e5, 64)
	a := mustBalanced(t, g, 8, 2, 4)
	b := a.Clone()
	if a.Hash() != b.Hash() || a.Key() != b.Key() {
		t.Error("clone hash or key differs")
	}
	if a.Canonical() != b.Canonical() {
		t.Error("clone canonical differs")
	}
	differs := func(what string, c *Config) {
		t.Helper()
		if a.Hash() == c.Hash() {
			t.Errorf("%s not reflected in hash", what)
		}
		if a.Key() == c.Key() {
			t.Errorf("%s not reflected in key", what)
		}
	}
	b.MutOp(0, 3, func(op *OpSetting) { op.Recompute = true })
	differs("recompute flag", b)
	c := a.Clone()
	c.SetMicroBatch(8)
	differs("microbatch", c)
	d := a.Clone()
	d.MutOp(0, 0, func(op *OpSetting) { op.Dim = 1 })
	differs("dim", d)
}

// rebuilt copies c's exported fields only — no memo survives. The
// memoized key and hash must always equal the rebuild's: the
// invalidation contract of the mutation helpers (DESIGN.md §5b).
func rebuilt(c *Config) *Config {
	fresh := &Config{MicroBatch: c.MicroBatch, Stages: make([]Stage, len(c.Stages))}
	for i := range c.Stages {
		s := c.Stages[i]
		fresh.Stages[i] = Stage{Start: s.Start, End: s.End, Devices: s.Devices,
			Ops: append([]OpSetting(nil), s.Ops...)}
	}
	return fresh
}

// checkMemos fails when any memo of c disagrees with a from-scratch
// rebuild.
func checkMemos(t *testing.T, what string, c *Config) {
	t.Helper()
	fresh := rebuilt(c)
	if got, want := c.Key(), fresh.Key(); got != want {
		t.Errorf("%s: memoized key %x != rebuilt key %x", what, got, want)
	}
	if got, want := c.Hash(), fresh.Hash(); got != want {
		t.Errorf("%s: memoized hash %x != rebuilt hash %x", what, got, want)
	}
	for i := range c.Stages {
		if got, want := c.Stages[i].SubHash(), fresh.Stages[i].SubHash(); got != want {
			t.Errorf("%s: stage %d memoized sub-hash %x != rebuilt %x", what, i, got, want)
		}
	}
	if got, want := c.Canonical(), fresh.Canonical(); got != want {
		t.Errorf("%s: canonical form %q, rebuilt %q", what, got, want)
	}
}

func TestMutationHelpersInvalidate(t *testing.T) {
	g := model.Uniform(16, 1e9, 1e6, 1e5, 64)
	c := mustBalanced(t, g, 8, 2, 4)
	check := func(what string) {
		t.Helper()
		checkMemos(t, what, c)
	}
	check("fresh")
	c.MutOp(0, 1, func(op *OpSetting) { op.Recompute = true })
	check("MutOp")
	c.MutStage(1, func(s *Stage) {
		for j := range s.Ops {
			s.Ops[j].Recompute = true
		}
	})
	check("MutStage")
	c.SetMicroBatch(8)
	check("SetMicroBatch")

	// Direct mutation after hashing goes stale until Invalidate (check
	// has just filled every memo).
	c.Stages[0].Ops[0].Dim = 1
	c.Invalidate()
	check("Invalidate after direct mutation")

	c.Stages[1].Ops[0].Dim = 1
	c.InvalidateStage(1)
	check("InvalidateStage after direct mutation")

	// A clone carries the memos; mutating it must not leave them behind.
	d := c.Clone()
	d.MutOp(1, c.Stages[1].Start, func(op *OpSetting) { op.ZeRO = !op.ZeRO })
	checkMemos(t, "MutOp on a clone", d)
	check("original after its clone was mutated")
}

// SetMicroBatch must not disturb stage sub-hashes: the perfmodel stage
// cache keys the microbatch separately.
func TestSubHashIgnoresMicroBatch(t *testing.T) {
	g := model.Uniform(16, 1e9, 1e6, 1e5, 64)
	c := mustBalanced(t, g, 8, 2, 4)
	before := c.Stages[0].SubHash()
	c.SetMicroBatch(8)
	if c.Stages[0].SubHash() != before {
		t.Error("SetMicroBatch changed a stage sub-hash")
	}
	// But a stage mutation must change it.
	c.MutOp(0, 0, func(op *OpSetting) { op.Recompute = true })
	if c.Stages[0].SubHash() == before {
		t.Error("stage mutation did not change the sub-hash")
	}
}

// walkStep applies one random search-shaped mutation to c through the
// mutation helpers: a single-bit Recompute/ZeRO/SeqPar flip, a dim
// change, a tp↔dp retile of a stage, an op moved across a stage
// boundary, or a microbatch change. Validity is irrelevant here — the
// identity functions are total.
func walkStep(rng *rand.Rand, c *Config) {
	si := rng.Intn(len(c.Stages))
	st := &c.Stages[si]
	op := st.Start + rng.Intn(st.NumOps())
	switch rng.Intn(7) {
	case 0:
		c.MutOp(si, op, func(o *OpSetting) { o.Recompute = !o.Recompute })
	case 1:
		c.MutOp(si, op, func(o *OpSetting) { o.ZeRO = !o.ZeRO })
	case 2:
		c.MutOp(si, op, func(o *OpSetting) { o.SeqPar = !o.SeqPar })
	case 3:
		c.MutOp(si, op, func(o *OpSetting) { o.Dim ^= 1 })
	case 4:
		c.MutStage(si, func(s *Stage) {
			for j := range s.Ops {
				s.Ops[j].TP, s.Ops[j].DP = s.Ops[j].DP, s.Ops[j].TP
			}
		})
	case 5:
		// Move the boundary op of stage si into its right neighbor.
		if si+1 == len(c.Stages) || st.NumOps() < 2 {
			return
		}
		moved := st.Ops[len(st.Ops)-1]
		c.MutStage(si, func(s *Stage) { s.End--; s.Ops = s.Ops[:len(s.Ops)-1] })
		c.MutStage(si+1, func(s *Stage) {
			s.Start--
			s.Ops = append([]OpSetting{moved}, s.Ops...)
		})
	case 6:
		c.SetMicroBatch(1 << rng.Intn(5))
	}
}

// Property: key equality ⇔ hash equality ⇔ canonical equality over
// random primitive walks, and no memo ever goes stale along one
// (DESIGN.md §6, invariant 7). Short walks from one base revisit
// configurations often, so both directions are exercised.
func TestHashCanonicalEquivalence(t *testing.T) {
	g := model.Uniform(16, 1e9, 1e6, 1e5, 64)
	base := mustBalanced(t, g, 8, 2, 4)
	base.Freeze() // walks start from filled memos, as search clones do
	walk := func(seed int64) *Config {
		rng := rand.New(rand.NewSource(seed))
		c := base.Clone()
		for n := rng.Intn(4); n > 0; n-- {
			walkStep(rng, c)
			if rng.Intn(2) == 0 {
				c.Key() // refill memos mid-walk so later steps must drop them
			}
		}
		return c
	}
	equal, distinct := 0, 0
	f := func(s1, s2 int64) bool {
		a, b := walk(s1), walk(s2)
		checkMemos(t, "walk", a)
		same := a.Canonical() == b.Canonical()
		if same {
			equal++
		} else {
			distinct++
		}
		return (a.Hash() == b.Hash()) == same && (a.Key() == b.Key()) == same
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	if equal == 0 || distinct == 0 {
		t.Errorf("walk pairs: %d equal, %d distinct — one direction of ⇔ went untested", equal, distinct)
	}
}

// TestIdentityCoversEveryField walks the fields of Stage and OpSetting
// by reflection and perturbs each one: the canonical segment (what
// Hash folds) and SubHash (what Key folds) must both change, and a
// field with no registered perturbation fails the test by name. Adding
// a field therefore forces folding it into both — or listing it here as
// a memo — so the two identities cannot drift apart.
func TestIdentityCoversEveryField(t *testing.T) {
	memos := map[string]bool{"sub": true}
	stageMuts := map[string]func(*Stage){
		"Start":   func(s *Stage) { s.Start++ },
		"End":     func(s *Stage) { s.End++ },
		"Devices": func(s *Stage) { s.Devices *= 2 },
		"Ops":     func(s *Stage) { s.Ops = s.Ops[:len(s.Ops)-1] },
	}
	opMuts := map[string]func(*Stage){
		"TP":        func(s *Stage) { s.Ops[1].TP *= 2 },
		"DP":        func(s *Stage) { s.Ops[1].DP *= 2 },
		"Dim":       func(s *Stage) { s.Ops[1].Dim++ },
		"Recompute": func(s *Stage) { s.Ops[1].Recompute = true },
		"ZeRO":      func(s *Stage) { s.Ops[1].ZeRO = true },
		"SeqPar":    func(s *Stage) { s.Ops[1].SeqPar = true },
	}
	for _, tc := range []struct {
		typ  reflect.Type
		muts map[string]func(*Stage)
	}{
		{reflect.TypeOf(Stage{}), stageMuts},
		{reflect.TypeOf(OpSetting{}), opMuts},
	} {
		for i := 0; i < tc.typ.NumField(); i++ {
			name := tc.typ.Field(i).Name
			if memos[name] {
				continue
			}
			mut, ok := tc.muts[name]
			if !ok {
				t.Errorf("%s.%s is not covered: fold it into appendSegment and SubHash and add it to this test's perturbation table",
					tc.typ.Name(), name)
				continue
			}
			st := Stage{Start: 4, End: 8, Devices: 4, Ops: make([]OpSetting, 4)}
			for j := range st.Ops {
				st.Ops[j] = OpSetting{TP: 2, DP: 2}
			}
			fresh := st // no memo yet
			seg, sub := string(st.appendSegment(nil)), st.SubHash()
			mut(&fresh)
			if string(fresh.appendSegment(nil)) == seg {
				t.Errorf("perturbing %s.%s did not change the canonical segment", tc.typ.Name(), name)
			}
			if fresh.SubHash() == sub {
				t.Errorf("perturbing %s.%s did not change SubHash", tc.typ.Name(), name)
			}
		}
	}
}

func TestStageOfAndFirstDev(t *testing.T) {
	g := model.Uniform(16, 1e9, 1e6, 1e5, 64)
	c := mustBalanced(t, g, 16, 3, 4) // devices 4,4,8
	if c.FirstDev(0) != 0 || c.FirstDev(1) != 4 || c.FirstDev(2) != 8 {
		t.Errorf("FirstDev = %d,%d,%d, want 0,4,8",
			c.FirstDev(0), c.FirstDev(1), c.FirstDev(2))
	}
	if c.StageOf(0) != 0 {
		t.Errorf("StageOf(0) = %d", c.StageOf(0))
	}
	if c.StageOf(15) != 2 {
		t.Errorf("StageOf(15) = %d", c.StageOf(15))
	}
	if c.StageOf(99) != -1 {
		t.Errorf("StageOf(99) = %d, want -1", c.StageOf(99))
	}
}

func TestNumMicrobatches(t *testing.T) {
	g := model.Uniform(16, 1e9, 1e6, 1e5, 64)
	c := mustBalanced(t, g, 8, 2, 4)
	if got := c.NumMicrobatches(g.GlobalBatch); got != 16 {
		t.Errorf("NumMicrobatches = %d, want 16", got)
	}
}

func TestStringCollapsesRuns(t *testing.T) {
	g := model.Uniform(16, 1e9, 1e6, 1e5, 64)
	c := mustBalanced(t, g, 8, 2, 4)
	s := c.String()
	if !strings.Contains(s, "mbs=4") {
		t.Errorf("String() = %q, missing mbs", s)
	}
	if !strings.Contains(s, "stage0") || !strings.Contains(s, "stage1") {
		t.Errorf("String() = %q, missing stages", s)
	}
	// Mixed settings should print per-range.
	c.Stages[0].Ops[0].TP, c.Stages[0].Ops[0].DP = 1, 4
	if !strings.Contains(c.String(), "tp1×dp4") {
		t.Errorf("String() = %q, missing heterogeneous run", c.String())
	}
}

func TestImbalancedInitializers(t *testing.T) {
	g := model.Uniform(32, 1e9, 1e6, 1e5, 64)
	io, err := ImbalancedOps(g, 8, 4, 1)
	if err != nil {
		t.Fatalf("ImbalancedOps: %v", err)
	}
	if err := io.Validate(g, 8); err != nil {
		t.Errorf("ImbalancedOps invalid: %v", err)
	}
	if got := io.Stages[0].NumOps(); got != 16 {
		t.Errorf("ImbalancedOps first stage has %d ops, want 16", got)
	}

	ig, err := ImbalancedGPUs(g, 16, 4, 1)
	if err != nil {
		t.Fatalf("ImbalancedGPUs: %v", err)
	}
	if err := ig.Validate(g, 16); err != nil {
		t.Errorf("ImbalancedGPUs invalid: %v", err)
	}
	if ig.Stages[0].Devices != 8 {
		t.Errorf("ImbalancedGPUs first stage has %d devices, want 8", ig.Stages[0].Devices)
	}
}

func TestRecomputedOps(t *testing.T) {
	g := model.Uniform(16, 1e9, 1e6, 1e5, 64)
	c := mustBalanced(t, g, 8, 2, 4)
	if c.RecomputedOps(0) != 0 {
		t.Error("fresh config has recomputed ops")
	}
	c.Stages[0].Ops[0].Recompute = true
	c.Stages[0].Ops[2].Recompute = true
	if got := c.RecomputedOps(0); got != 2 {
		t.Errorf("RecomputedOps = %d, want 2", got)
	}
}
