package core

import (
	"context"
	"fmt"
	"slices"

	"aceso/internal/config"
	"aceso/internal/hardware"
	"aceso/internal/model"
)

// Replan re-runs the search for a cluster that has degraded since prev
// was found: faults is applied to the healthy cluster (dead devices
// removed, stragglers and bad links derated), and the search is seeded
// from the surviving configuration — prev projected onto the remaining
// devices — so it converges on a repaired plan far faster than a cold
// start. prev may be nil, in which case Replan is just SearchContext
// over the degraded cluster.
//
// This is the fault-recovery twin of the elastic WarmStart path: where
// WarmStart handles a resized cluster, Replan handles a *wounded* one —
// the performance model sees the deratings, so the seeded search
// naturally shifts work off the straggler instead of rebalancing onto
// it.
func Replan(ctx context.Context, g *model.Graph, cl hardware.Cluster, faults hardware.FaultSpec, prev *config.Config, opts Options) (*Result, error) {
	degraded, err := cl.Degrade(faults)
	if err != nil {
		return nil, fmt.Errorf("core: replan: %w", err)
	}
	opts = WarmOptions(g, prev, degraded.TotalDevices(), opts)
	return SearchContext(ctx, g, degraded, opts)
}

// WarmOptions returns opts seeded to warm-start the search from prev
// on a cluster with the given device count: the initializer replays
// prev (projected onto the available devices) and the searched stage
// counts are extended with the projection's depth so the warm start
// engages. prev == nil returns opts unchanged. This is the shared
// seeding step behind Replan and the plan-cache near-miss path in the
// acesod daemon.
func WarmOptions(g *model.Graph, prev *config.Config, devices int, opts Options) Options {
	if prev == nil {
		return opts
	}
	opts.Initializer = WarmStart(prev)
	// Make sure the surviving configuration's depth is among the
	// searched stage counts, or the warm start would never engage.
	if proj, err := ProjectConfig(g, prev, devices); err == nil {
		depth := proj.NumStages()
		counts := opts.StageCounts
		if len(counts) == 0 {
			counts = defaultStageCounts(devices, len(g.Ops))
		}
		if !slices.Contains(counts, depth) {
			counts = append(append([]int(nil), counts...), depth)
		}
		opts.StageCounts = counts
	}
	return opts
}
