package perfmodel

import (
	"fmt"
	"reflect"
	"testing"

	"aceso/internal/config"
	"aceso/internal/hardware"
	"aceso/internal/model"
)

// TestBatchEstimateMatchesFull: over zoo graphs × stage counts, a
// batched estimate of a one- or two-stage mutation of the base — and of
// a candidate with another stage count or microbatch, which shares no
// key with the base — is exactly the estimate of a twin model that
// recomputes every stage (DisableStageCache, same profiling database).
// So is every estimate of a batch begun without a base estimate.
func TestBatchEstimateMatchesFull(t *testing.T) {
	cl := hardware.DGX1V100(1)
	for _, family := range []string{"gpt3", "t5", "wresnet", "llama"} {
		sizes, err := model.Sizes(family)
		if err != nil {
			t.Fatal(err)
		}
		g, err := model.ByName(family, sizes[0])
		if err != nil {
			t.Fatal(err)
		}
		m := New(g, cl, 1)
		ref := &Model{Graph: g, Cluster: cl, Prof: m.Prof, DisableStageCache: true}
		for _, p := range []int{1, 2, 3, 4, 8} {
			base, err := config.Balanced(g, cl.TotalDevices(), p, 2)
			if err != nil {
				t.Fatal(err)
			}
			var b, blind Batch
			m.BeginBatch(&b, base, m.Estimate(base), nil)
			m.BeginBatch(&blind, base, nil, nil)
			// check returns how many stages the batched estimate looked
			// up in the stage cache rather than copied from the base.
			check := func(what string, c *config.Config) uint64 {
				t.Helper()
				want := ref.Estimate(c)
				h0, m0 := m.StageCacheStats()
				if got := b.Estimate(c); !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%d stages, %s: batched\n%+v\nwant\n%+v", family, p, what, got, want)
				}
				h1, m1 := m.StageCacheStats()
				if got := blind.Estimate(c); !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%d stages, %s: batch with a nil base\n%+v\nwant\n%+v", family, p, what, got, want)
				}
				return h1 + m1 - h0 - m0
			}
			if n := check("base", base); n != 0 {
				t.Errorf("%s/%d stages: the base itself looked up %d stages", family, p, n)
			}
			for si := range base.Stages {
				c := base.Clone()
				c.MutOp(si, c.Stages[si].Start, func(o *config.OpSetting) { o.Recompute = true })
				if n := check(fmt.Sprintf("recompute in stage %d", si), c); n != 1 {
					t.Errorf("%s/%d stages: a stage-%d mutation looked up %d stages, want 1", family, p, si, n)
				}
				if si+1 < p && c.Stages[si+1].NumOps() > 1 {
					c := base.Clone()
					c.ShiftBoundary(si, 1)
					check(fmt.Sprintf("boundary %d/%d", si, si+1), c)
				}
				if si+1 < p && base.Stages[si].Devices != base.Stages[si+1].Devices {
					// Stages si and si+1 swap device counts: both change,
					// si+1 starts on another device and si+2, unchanged
					// itself, follows a stage of another size.
					c := base.Clone()
					for i, d := range []int{base.Stages[si+1].Devices, base.Stages[si].Devices} {
						c.MutStage(si+i, func(st *config.Stage) {
							*st = config.UniformStage(st.Start, st.End, d, config.OpSetting{TP: d, DP: 1})
						})
					}
					check(fmt.Sprintf("devices %d↔%d", si, si+1), c)
				}
			}
			mbs := base.Clone()
			mbs.SetMicroBatch(4)
			check("microbatch mismatch", mbs)
			if q, err := config.Balanced(g, cl.TotalDevices(), p+1, 2); err == nil {
				check("stage-count mismatch", q)
			}
		}
	}
}
