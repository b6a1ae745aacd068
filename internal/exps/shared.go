package exps

import (
	"fmt"
	"time"

	"aceso/internal/baselines/alpa"
	"aceso/internal/config"
	"aceso/internal/core"
	"aceso/internal/hardware"
	"aceso/internal/model"
)

// allocation is one change of a job's GPU allocation: from At on, the
// job owns GPUs devices.
type allocation struct {
	At   time.Duration
	GPUs int
}

// SharedWindow is one allocation interval under one planner.
type SharedWindow struct {
	GPUs     int
	Duration time.Duration
	PlanTime time.Duration // wall time lost to planning
	IterTime float64       // simulated s/iter of the planned config
	Samples  float64       // samples trained in the rest of the window
}

// SharedRow is one planner's outcome over the whole allocation trace.
type SharedRow struct {
	Planner      string
	Samples      float64
	PlanOverhead time.Duration
	Utilization  float64 // share of the horizon spent training
	Windows      []SharedWindow
}

// SharedRows are the shared-cluster scenario's planners.
type SharedRows []SharedRow

// SharedCluster quantifies the paper's §1 motivation: "search overhead
// can be a huge burden when quick reconfiguration is needed, e.g., in a
// shared cluster with frequent changes in resources". A GPT-3 2.6B job
// is reallocated every hour (16 → 8 → 16 → 24 → 16 GPUs over five
// hours) and must replan before it trains again, so planning time is
// training time lost. It compares a cold Aceso search, Aceso seeded
// from the previous plan, and the Alpa-like solver, whose emulated
// compile and profile cost is its planning time (Figure 8).
func SharedCluster(set Settings) (SharedRows, error) {
	g, err := model.ByName("gpt3", "2.6B")
	if err != nil {
		return nil, err
	}
	trace := []allocation{{0, 16}, {time.Hour, 8}, {2 * time.Hour, 16}, {3 * time.Hour, 24}, {4 * time.Hour, 16}}
	return sharedCluster(g, hardware.DGX1V100(4), trace, 5*time.Hour, set.withDefaults())
}

// sharedCluster plays trace, which starts at 0 and ends before horizon,
// for each planner and executes every window's plan in the runtime.
func sharedCluster(g *model.Graph, base hardware.Cluster, trace []allocation, horizon time.Duration, set Settings) (SharedRows, error) {
	// plan answers one window for a planner: the configuration and the
	// time the job waited for it. The warm planner starts from its own
	// previous plan, as Replan and the plan server's near misses do.
	plan := func(planner string, cl hardware.Cluster, prev *config.Config) (*config.Config, time.Duration, error) {
		if planner == "alpa" {
			res, err := alpa.Search(g, cl, alpa.Options{Seed: set.Seed})
			if err != nil {
				return nil, 0, err
			}
			return res.Best, res.EmulatedSearchCost, nil
		}
		run, err := runAceso(g, cl, set, func(o *core.Options) {
			if planner == "aceso-warm" {
				*o = core.WarmOptions(g, prev, cl.TotalDevices(), *o)
			}
		})
		if err != nil {
			return nil, 0, err
		}
		return run.Best, run.SearchTime, nil
	}
	var rows SharedRows
	for _, planner := range []string{"aceso", "aceso-warm", "alpa"} {
		row := SharedRow{Planner: planner}
		var prev *config.Config
		for i, a := range trace {
			end := horizon
			if i+1 < len(trace) {
				end = trace[i+1].At
			}
			cl := base.Restrict(a.GPUs)
			cfg, planTime, err := plan(planner, cl, prev)
			if err != nil {
				return nil, fmt.Errorf("exps: shared %s at %v: %w", planner, a.At, err)
			}
			prev = cfg
			w := SharedWindow{GPUs: a.GPUs, Duration: end - a.At, PlanTime: planTime, IterTime: simIter(g, cl, cfg, set.Seed)}
			w.Samples = samples(w.Duration, planTime, w.IterTime, g.GlobalBatch)
			row.Samples += w.Samples
			row.PlanOverhead += planTime
			row.Windows = append(row.Windows, w)
		}
		row.Utilization = max(0, 1-row.PlanOverhead.Seconds()/horizon.Seconds())
		rows = append(rows, row)
	}
	return rows, nil
}

// samples is what a window trains at iterTime s/iter once planning has
// taken planTime of it: nothing when planning outlasts the window.
func samples(window, planTime time.Duration, iterTime float64, batch int) float64 {
	train := window - planTime
	if train <= 0 || iterTime <= 0 {
		return 0
	}
	return train.Seconds() / iterTime * float64(batch)
}

// Tables is each planner's totals, then the first (cold Aceso)
// planner's windows.
func (rows SharedRows) Tables() []Table {
	totals := Table{Key: "planners",
		Title: "Shared cluster (§1): samples trained when every allocation change forces a replan",
		Cols: []Col{{Head: "planner"}, {Head: "samples trained", Fmt: "%.0f"}, {Head: "plan overhead", Round: time.Second},
			{Head: "utilization", Fmt: "%.1f%%"}, {Head: "vs aceso", Fmt: "%.2fx"}}}
	for _, r := range rows {
		totals.Rows = append(totals.Rows, []any{r.Planner, r.Samples, r.PlanOverhead, 100 * r.Utilization, r.Samples / rows[0].Samples})
	}
	windows := Table{Key: "windows", Title: fmt.Sprintf("\nper-window detail (%s):", rows[0].Planner),
		Cols: []Col{{Head: "window"}, {Head: "GPUs"}, {Head: "duration"}, {Head: "plan", Round: time.Millisecond},
			{Head: "iter (s)"}, {Head: "samples", Fmt: "%.0f"}}}
	for i, win := range rows[0].Windows {
		windows.Rows = append(windows.Rows, []any{i, win.GPUs, win.Duration, win.PlanTime, win.IterTime, win.Samples})
	}
	return []Table{totals, windows}
}
