package config

import (
	"testing"

	"aceso/internal/model"
)

// FuzzDeviceSplit asserts DeviceSplit's contract over arbitrary
// inputs: on success, the parts are powers of two summing exactly to
// the total; failures happen only when total < stages or no
// power-of-two composition exists.
func FuzzDeviceSplit(f *testing.F) {
	f.Add(16, 3)
	f.Add(32, 5)
	f.Add(1, 1)
	f.Add(7, 2)
	f.Add(1024, 9)
	f.Fuzz(func(t *testing.T, total, stages int) {
		if total < 0 || total > 1<<16 || stages < 0 || stages > 256 {
			t.Skip()
		}
		parts, err := DeviceSplit(total, stages)
		if err != nil {
			return
		}
		if len(parts) != stages {
			t.Fatalf("DeviceSplit(%d, %d) returned %d parts", total, stages, len(parts))
		}
		sum := 0
		for _, p := range parts {
			if !IsPow2(p) {
				t.Fatalf("part %d not a power of two (total %d, stages %d)", p, total, stages)
			}
			sum += p
		}
		if sum != total {
			t.Fatalf("parts sum to %d, want %d", sum, total)
		}
	})
}

// FuzzKeyFollowsEdits: whatever a configuration goes through — MutOp
// on every OpSetting field (the in-place edits), SetMicroBatch,
// ShiftBoundary, InvalidateStage, Restore from an earlier copy and
// CloneIn through an arena — with its memos refilled wherever the walk
// says, its Key and every SubHash equal those of a copy invalidated and
// refolded from scratch, after every step. Each step is three bytes: the
// edit, an operator (its stage is the one edited) and an argument.
func FuzzKeyFollowsEdits(f *testing.F) {
	f.Add([]byte{3, 5, 0, 0, 7, 2, 2, 20, 1, 9, 0, 1, 4, 9, 0, 5, 12, 0})
	f.Add([]byte{7, 6, 255, 3, 6, 0, 8, 6, 0, 1, 6, 1, 9, 6, 0, 10, 0, 0, 2, 3, 1})
	f.Add([]byte{10, 0, 1, 3, 1, 0, 6, 0, 3, 11, 0, 0, 3, 2, 0, 10, 2, 0, 0, 17, 2})
	f.Add([]byte{9, 0, 0, 8, 13, 0, 3, 13, 0, 11, 0, 0, 7, 13, 2, 3, 14, 0, 9, 14, 1})
	f.Fuzz(func(t *testing.T, steps []byte) {
		g := model.Uniform(24, 1e9, 1e6, 1e5, 64)
		built, err := Balanced(g, 16, 4, 4)
		if err != nil {
			t.Fatal(err)
		}
		built.Freeze()
		c, base := built.Clone(), built.Clone()
		var a Arena
		lo, hi := len(c.Stages), -1 // the stages edited since base was taken
		for ; len(steps) >= 3; steps = steps[3:] {
			op, x := int(steps[1])%len(g.Ops), int(steps[2])
			si := c.StageOf(op)
			switch steps[0] % 12 {
			case 0:
				c.MutOp(si, op, func(o *OpSetting) { o.TP = 1 << (x % 5) })
			case 1:
				c.MutOp(si, op, func(o *OpSetting) { o.DP = 1 << (x % 5) })
			case 2:
				c.MutOp(si, op, func(o *OpSetting) { o.Dim = x % 4 })
			case 3:
				c.MutOp(si, op, func(o *OpSetting) { o.Recompute = !o.Recompute })
			case 4:
				c.MutOp(si, op, func(o *OpSetting) { o.ZeRO = !o.ZeRO })
			case 5:
				c.MutOp(si, op, func(o *OpSetting) { o.SeqPar = !o.SeqPar })
			case 6:
				c.SetMicroBatch(1 << (x % 5))
			case 7:
				// Move up to x%3+1 ops across the boundary below or above
				// si, each donor keeping one.
				i, k := min(si, len(c.Stages)-2), x%3+1
				if x&4 != 0 {
					k = -k
				}
				if k > 0 && k >= c.Stages[i+1].NumOps() || k < 0 && -k >= c.Stages[i].NumOps() {
					continue
				}
				c.ShiftBoundary(i, k)
				lo, hi = min(lo, i), max(hi, i+1)
			case 8:
				c.InvalidateStage(si)
			case 9:
				if x&1 == 0 {
					c.Key()
				} else {
					c.Stages[si].SubHash()
				}
			case 10:
				// Undo everything since base, over a range at least as
				// wide as the stages edited; or take a new base.
				if x&1 == 0 {
					c.Restore(base, min(lo, si), max(hi, si))
				} else {
					base = c.Clone()
				}
				lo, hi = len(c.Stages), -1
			case 11:
				next := c.CloneIn(&a)
				a.Put(c)
				c = next
			}
			if steps[0]%12 < 6 {
				lo, hi = min(lo, si), max(hi, si)
			}
			checkFolds(t, c)
		}
	})
}

// checkFolds fails unless c's Key and every SubHash, read from its
// memos as they stand, equal a fresh fold of its settings. It reads
// them on a copy, so the walk's memos stay as the walk left them.
func checkFolds(t *testing.T, c *Config) {
	t.Helper()
	got, fresh := c.Clone(), c.Clone()
	fresh.Invalidate()
	for i := range got.Stages {
		if a, w := got.Stages[i].SubHash(), fresh.Stages[i].SubHash(); a != w {
			t.Fatalf("stage %d sub-hash %x, refolded %x: %s", i, a, w, c.Canonical())
		}
	}
	if a, w := got.Key(), fresh.Key(); a != w {
		t.Fatalf("key %x, refolded %x: %s", a, w, c.Canonical())
	}
}
