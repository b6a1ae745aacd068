// Property test for the contract the elastic resharder consumes: a
// replanned config addresses only surviving *logical* device ranks —
// contiguous [0, degraded.TotalDevices()) — and the degraded cluster's
// PhysOf maps each of them to a physical device the fault spec did not
// kill. It lives in package core_test because it drives core.Replan
// with chaos.RandomValidFaultSpec, and chaos imports core.
package core_test

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"aceso/internal/chaos"
	"aceso/internal/config"
	"aceso/internal/core"
	"aceso/internal/hardware"
	"aceso/internal/model"
)

// TestReplanCompactsDeviceRanks: over random valid fault specs, every
// candidate Replan returns fits the compacted logical rank space, and
// the logical→physical map avoids every dead device.
func TestReplanCompactsDeviceRanks(t *testing.T) {
	if testing.Short() {
		t.Skip("property test over many replans is not short")
	}
	g := model.Uniform(8, 1e9, 1e6, 1e5, 8)
	const devices = 8
	healthy := hardware.DGX1V100(1).Restrict(devices)
	prev, err := config.Balanced(g, devices, 2, 4)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(20260806))
	trials := 0
	for trials < 12 {
		spec := chaos.RandomValidFaultSpec(rng, devices)
		degraded, err := healthy.Degrade(spec)
		if err != nil {
			t.Fatalf("RandomValidFaultSpec produced a rejected spec: %v", err)
		}
		if degraded.TotalDevices() == devices {
			continue // no device actually died; the property is vacuous
		}
		trials++

		res, err := core.Replan(context.Background(), g, healthy, spec, prev, core.Options{
			TimeBudget: 150 * time.Millisecond,
			Seed:       int64(trials),
		})
		if err != nil {
			t.Fatalf("trial %d: replan: %v", trials, err)
		}

		dead := map[int]bool{}
		for _, d := range spec.Devices {
			if d.Dead {
				dead[d.Device] = true
			}
		}
		survivors := degraded.TotalDevices()
		for ci, cand := range res.TopK {
			c := cand.Config
			if c == nil {
				continue
			}
			// Compaction: the plan must fit the contiguous logical rank
			// space of the survivors — no plan may address a rank that
			// no longer exists.
			if c.TotalDevices() > survivors {
				t.Fatalf("trial %d cand %d: plan uses %d devices, only %d survive",
					trials, ci, c.TotalDevices(), survivors)
			}
			if verr := c.Validate(g, survivors); verr != nil {
				t.Fatalf("trial %d cand %d: plan invalid on degraded cluster: %v", trials, ci, verr)
			}
			// Every logical rank the plan addresses maps to a live
			// physical device, and the mapping is strictly increasing
			// (contiguous renumbering, no permutation surprises).
			prevPhys := -1
			for r := 0; r < c.TotalDevices(); r++ {
				phys := degraded.PhysOf(r)
				if dead[phys] {
					t.Fatalf("trial %d cand %d: logical rank %d maps to dead device %d",
						trials, ci, r, phys)
				}
				if phys < 0 || phys >= devices {
					t.Fatalf("trial %d cand %d: logical rank %d maps off-grid to %d",
						trials, ci, r, phys)
				}
				if phys <= prevPhys {
					t.Fatalf("trial %d cand %d: PhysOf not strictly increasing at rank %d (%d after %d)",
						trials, ci, r, phys, prevPhys)
				}
				prevPhys = phys
			}
		}
	}
}
