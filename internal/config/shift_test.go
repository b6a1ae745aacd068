package config

import (
	"math/rand"
	"reflect"
	"testing"

	"aceso/internal/model"
)

// shiftMoveOps is core.shift on the config API: shift
// the boundary in place, then give the moved ops the receiving stage's
// template with their own dim. mutMoveOps is the same move built with
// append, the way core built it before boundaries were re-cut.
func shiftMoveOps(c *Config, from, dir, k int) {
	to := from + dir
	dst := c.Stages[to].Ops
	var tpl OpSetting
	var moved []OpSetting
	if dir < 0 {
		tpl = dst[len(dst)-1]
		moved = c.ShiftBoundary(to, k)
	} else {
		tpl = dst[0]
		moved = c.ShiftBoundary(from, -k)
	}
	for i := range moved {
		dim := moved[i].Dim
		moved[i] = tpl
		moved[i].Dim = dim
	}
}

// checkTiled fails unless c's windows tile its flat backing, each with
// cap == len so an append on one stage cannot reach its neighbour.
func checkTiled(t *testing.T, c *Config, what string) {
	t.Helper()
	if !c.tiled() {
		t.Fatalf("%s: windows do not tile flat", what)
	}
	for i := range c.Stages {
		if ops := c.Stages[i].Ops; cap(ops) != len(ops) {
			t.Fatalf("%s: stage %d window has cap %d, len %d", what, i, cap(ops), len(ops))
		}
	}
}

// TestShiftBoundaryMatchesAppend walks random boundary moves over the
// zoo × 1–32 stages, shifting one config in place — now and then
// re-tiled through an arena, as the search's next clone would be —
// beside the append-built reference: at every step both have the same
// canonical form, Key and Hash, the shifted one validates, and its
// windows still tile its backing.
func TestShiftBoundaryMatchesAppend(t *testing.T) {
	const devices = 32
	shifts := 0
	for gi, g := range zoo(t) {
		for stages := 1; stages <= 32; stages++ {
			ref, err := Balanced(g, devices, stages, 1)
			if err != nil {
				continue // more stages than the split allows
			}
			got := ref.Clone()
			var arena Arena
			r := rand.New(rand.NewSource(int64(gi*100 + stages)))
			for step := 0; step < 40; step++ {
				from, dir, k := r.Intn(stages), 2*r.Intn(2)-1, 1<<r.Intn(4)
				next := mutMoveOps(ref, from, dir, k)
				if next == nil {
					continue // an illegal move
				}
				ref = next
				shiftMoveOps(got, from, dir, k)
				shifts++
				if got.Canonical() != ref.Canonical() || got.Key() != ref.Key() || got.Hash() != ref.Hash() {
					t.Fatalf("%s/%d: shift(from=%d dir=%d k=%d) differs from append\n got %s\nwant %s",
						g.Name, stages, from, dir, k, got, ref)
				}
				if err := got.Validate(g, devices); err != nil {
					t.Fatalf("%s/%d: shifted config is invalid: %v", g.Name, stages, err)
				}
				checkTiled(t, got, g.Name)
				if r.Intn(4) == 0 {
					c := got.CloneIn(&arena)
					arena.Put(got)
					got = c
				}
			}
		}
	}
	if shifts < 1000 {
		t.Errorf("only %d shifts made: the walk is vacuous", shifts)
	}
}

// TestShiftBoundaryAllocatesNothing: on a config that tiles its backing
// — every Clone and CloneIn result — a shift allocates nothing.
func TestShiftBoundaryAllocatesNothing(t *testing.T) {
	g, err := model.GPT3("2.6B")
	if err != nil {
		t.Fatal(err)
	}
	c := mustBalanced(t, g, 16, 16, 1).Clone()
	checkTiled(t, c, "clone")
	if got := testing.AllocsPerRun(100, func() {
		c.ShiftBoundary(3, 1)
		c.ShiftBoundary(3, -1)
	}); got != 0 {
		t.Errorf("ShiftBoundary: %.1f allocs per pair of shifts, want 0", got)
	}
}

// TestShiftBoundaryRepacks: a config whose windows do not tile a backing
// of its own — built from literals, or a clone with one stage's window
// replaced — is repacked into a fresh backing before the shift, which
// then moves what the append would have and writes none of the memory
// the old windows point to.
func TestShiftBoundaryRepacks(t *testing.T) {
	g := model.Uniform(24, 1e9, 1e6, 1e5, 64)
	literal := mustBalanced(t, g, 8, 4, 1) // one make per stage, no flat
	replaced := literal.Clone()
	replaced.Stages[2].Ops = append([]OpSetting(nil), replaced.Stages[2].Ops...)
	for name, c := range map[string]*Config{"literal": literal, "replaced window": replaced} {
		if c.tiled() {
			t.Fatalf("%s: tiles its backing already", name)
		}
		old := make([][]OpSetting, len(c.Stages))
		was := make([][]OpSetting, len(c.Stages))
		for i := range c.Stages {
			old[i] = c.Stages[i].Ops
			was[i] = append([]OpSetting(nil), c.Stages[i].Ops...)
		}
		// Give the receiving stage a template the moved ops must take.
		c.MutStage(1, func(s *Stage) {
			for j := range s.Ops {
				s.Ops[j].Recompute = true
			}
		})
		was[1] = append([]OpSetting(nil), c.Stages[1].Ops...)
		want := mutMoveOps(c, 2, -1, 2)
		shiftMoveOps(c, 2, -1, 2)
		if c.Canonical() != want.Canonical() || c.Key() != want.Key() || c.Hash() != want.Hash() {
			t.Errorf("%s: shift differs from append\n got %s\nwant %s", name, c, want)
		}
		checkTiled(t, c, name)
		for i := range old {
			if !reflect.DeepEqual(old[i], was[i]) {
				t.Errorf("%s: the shift wrote into stage %d's old window", name, i)
			}
		}
	}
}
