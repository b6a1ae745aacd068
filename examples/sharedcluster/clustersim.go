package main

// The simulation behind main.go. It quantifies the paper's motivating
// scenario (§1): "search overhead can be a huge burden when quick
// reconfiguration is needed, e.g., in a shared cluster with frequent
// changes in resources". It simulates a long-running training job whose GPU
// allocation changes over time; after every change the job must plan a
// new parallel configuration before it can train again, so planning
// time directly eats training time. Different planning strategies
// (Aceso, warm-started Aceso, the Alpa-like solver) can then be
// compared on total samples trained.

import (
	"fmt"
	"time"

	"aceso/internal/baselines/alpa"
	"aceso/internal/config"
	"aceso/internal/core"
	"aceso/internal/hardware"
	"aceso/internal/model"
	"aceso/internal/perfmodel"
	"aceso/internal/pipesim"
)

// Event is one allocation change: from At onward the job owns GPUs
// devices. Events must be sorted by At, starting at 0.
type Event struct {
	At   time.Duration
	GPUs int
}

// Strategy plans a configuration for a (re)allocated cluster and
// reports how long the planning took (in simulated job wall time —
// time the job cannot train).
type Strategy interface {
	Name() string
	Plan(g *model.Graph, cl hardware.Cluster, prev *config.Config) (*config.Config, time.Duration, error)
}

// AcesoStrategy plans with the bottleneck-alleviation search.
type AcesoStrategy struct {
	Budget time.Duration
	Seed   int64
	// Warm re-uses the previous configuration as the starting point.
	Warm bool
}

// Name implements Strategy.
func (s AcesoStrategy) Name() string {
	if s.Warm {
		return "aceso-warm"
	}
	return "aceso"
}

// Plan implements Strategy.
func (s AcesoStrategy) Plan(g *model.Graph, cl hardware.Cluster, prev *config.Config) (*config.Config, time.Duration, error) {
	opts := core.Options{TimeBudget: s.Budget, Seed: s.Seed}
	if s.Warm && prev != nil {
		opts.Initializer = core.WarmStart(prev)
	}
	res, err := core.Search(g, cl, opts)
	if err != nil {
		return nil, 0, err
	}
	return res.Best.Config, res.Elapsed, nil
}

// AlpaStrategy plans with the Alpa-like solver; its planning time is
// the emulated compile+profile cost, which is what makes frequent
// reconfiguration expensive.
type AlpaStrategy struct {
	Seed int64
}

// Name implements Strategy.
func (AlpaStrategy) Name() string { return "alpa" }

// Plan implements Strategy.
func (s AlpaStrategy) Plan(g *model.Graph, cl hardware.Cluster, _ *config.Config) (*config.Config, time.Duration, error) {
	res, err := alpa.Search(g, cl, alpa.Options{Seed: s.Seed})
	if err != nil {
		return nil, 0, err
	}
	return res.Best, res.EmulatedSearchCost, nil
}

// Window is the outcome of one allocation interval.
type Window struct {
	GPUs     int
	Duration time.Duration
	PlanTime time.Duration // simulated time lost to planning
	IterTime float64       // seconds/iteration of the planned config
	Samples  float64       // samples trained in the window
}

// Result is one strategy's outcome over the whole trace.
type Result struct {
	Strategy     string
	Samples      float64
	PlanOverhead time.Duration
	Utilization  float64 // share of wall time spent training
	Windows      []Window
}

// Run plays the allocation trace for each strategy and returns the
// samples each one trains. horizon is the simulation end time.
func Run(g *model.Graph, base hardware.Cluster, events []Event, horizon time.Duration,
	strategies []Strategy, seed int64) ([]Result, error) {

	if err := g.Validate(); err != nil {
		return nil, err
	}
	if len(events) == 0 || events[0].At != 0 {
		return nil, fmt.Errorf("clustersim: trace must start with an event at t=0")
	}
	for i := 1; i < len(events); i++ {
		if events[i].At <= events[i-1].At {
			return nil, fmt.Errorf("clustersim: events not strictly ordered at %d", i)
		}
	}
	if horizon <= events[len(events)-1].At {
		return nil, fmt.Errorf("clustersim: horizon %v before last event", horizon)
	}

	var out []Result
	for _, strat := range strategies {
		res := Result{Strategy: strat.Name()}
		var prev *config.Config
		for i, ev := range events {
			end := horizon
			if i+1 < len(events) {
				end = events[i+1].At
			}
			window := end - ev.At
			cl := base.Restrict(ev.GPUs)
			cfg, planTime, err := strat.Plan(g, cl, prev)
			if err != nil {
				return nil, fmt.Errorf("clustersim: %s at %v: %w", strat.Name(), ev.At, err)
			}
			prev = cfg
			pm := perfmodel.New(g, cl, seed)
			sim, err := pipesim.Simulate(pm, cfg, seed)
			if err != nil {
				return nil, fmt.Errorf("clustersim: %s simulate: %w", strat.Name(), err)
			}
			w := Window{GPUs: ev.GPUs, Duration: window, PlanTime: planTime, IterTime: sim.IterTime}
			trainTime := window - planTime
			if trainTime > 0 && sim.IterTime > 0 {
				iters := trainTime.Seconds() / sim.IterTime
				w.Samples = iters * float64(g.GlobalBatch)
			}
			res.Samples += w.Samples
			res.PlanOverhead += planTime
			res.Windows = append(res.Windows, w)
		}
		res.Utilization = 1 - res.PlanOverhead.Seconds()/horizon.Seconds()
		if res.Utilization < 0 {
			res.Utilization = 0
		}
		out = append(out, res)
	}
	return out, nil
}
