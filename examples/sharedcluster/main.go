// Shared cluster: quantify the paper's §1 motivation. A GPT-3 2.6B
// training job runs on a shared cluster whose allocation changes every
// half hour; each change forces a re-plan before training can resume,
// so planner latency translates directly into lost samples. Compare a
// cold Aceso search, a warm-started Aceso search, and the Alpa-like
// solver (whose emulated per-kernel compile cost is what the paper's
// Figure 8 measures).
package main

import (
	"fmt"
	"log"
	"time"

	"aceso/internal/hardware"
	"aceso/internal/model"
)

func main() {
	g, err := model.GPT3("2.6B")
	if err != nil {
		log.Fatal(err)
	}
	allocations := []Event{
		{At: 0, GPUs: 16},
		{At: 1 * time.Hour, GPUs: 8},
		{At: 2 * time.Hour, GPUs: 16},
		{At: 3 * time.Hour, GPUs: 24},
		{At: 4 * time.Hour, GPUs: 16},
	}
	const horizon = 5 * time.Hour
	fmt.Printf("job: %s (batch %d) on a shared cluster, %d allocation changes over %v\n\n",
		g.Name, g.GlobalBatch, len(allocations)-1, horizon)

	results, err := Run(g, hardware.DGX1V100(4), allocations, horizon,
		[]Strategy{
			AcesoStrategy{Budget: 2 * time.Second, Seed: 1},
			AcesoStrategy{Budget: 2 * time.Second, Seed: 1, Warm: true},
			AlpaStrategy{Seed: 1},
		}, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-12s %-16s %-14s %-12s\n", "planner", "samples trained", "plan overhead", "utilization")
	base := results[0].Samples
	for _, r := range results {
		fmt.Printf("%-12s %-16.0f %-14v %.1f%%  (%.2fx vs aceso)\n",
			r.Strategy, r.Samples, r.PlanOverhead.Round(time.Second),
			100*r.Utilization, r.Samples/base)
	}
	fmt.Println("\nper-window detail (aceso):")
	for i, w := range results[0].Windows {
		fmt.Printf("  window %d: %2d GPUs for %-10v plan %-8v %.2f s/iter → %.0f samples\n",
			i, w.GPUs, w.Duration, w.PlanTime.Round(time.Millisecond), w.IterTime, w.Samples)
	}
}
