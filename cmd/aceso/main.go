// Command aceso searches, estimates and simulates parallel-training
// configurations from the terminal.
//
// Usage:
//
//	aceso search   -model gpt3 -size 1.3B -gpus 4 [-budget 2s] [-maxhops 7] [-seed 1]
//	aceso estimate -model gpt3 -size 1.3B -gpus 4 -pp 2 -tp 2 -dp 1 -mbs 1 [-recompute]
//	aceso baseline -model gpt3 -size 1.3B -gpus 4            # Megatron grid + Alpa-like
//	aceso elastic  -layers 6 -dim 16 -batch 32 -iters 8 -fault-rank 2 -fault-iter 4
//	aceso churn    -layers 6 -dim 16 -batch 32 -iters 12 [-events 8]
//
// search prints the best found configuration, its performance-model
// estimate, and the runtime simulator's verdict. estimate evaluates a
// manual (Megatron-style global) configuration. baseline runs the two
// comparison systems on the same workload. elastic and churn train a
// small MLP for real under a fault schedule — one device killed
// mid-run, or a random stream of fleet events — and narrate the
// supervisor's recovery (checkpoint → replan → reshard → resume)
// against an uninterrupted reference run.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"aceso/internal/baselines/alpa"
	"aceso/internal/baselines/megatron"
	"aceso/internal/chaos"
	"aceso/internal/config"
	"aceso/internal/core"
	"aceso/internal/elastic"
	"aceso/internal/hardware"
	"aceso/internal/model"
	"aceso/internal/perfmodel"
	"aceso/internal/pipesim"
	"aceso/internal/profiler"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "search":
		err = runSearch(os.Args[2:])
	case "estimate":
		err = runEstimate(os.Args[2:])
	case "baseline":
		err = runBaseline(os.Args[2:])
	case "profile":
		err = runProfile(os.Args[2:])
	case "elastic":
		err = runElastic(os.Args[2:])
	case "churn":
		err = runChurn(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "aceso:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: aceso <search|estimate|baseline|profile|elastic|churn> [flags]
  aceso search   -model gpt3 -size 1.3B -gpus 4 [-budget 2s] [-maxhops 7] [-seed 1] [-db db.json]
  aceso estimate -model gpt3 -size 1.3B -gpus 4 -pp 2 -tp 2 -dp 1 -mbs 1 [-recompute]
  aceso baseline -model gpt3 -size 1.3B -gpus 4
  aceso profile  -model gpt3 -size 1.3B -gpus 4 -o profile-db.json
  aceso elastic  -layers 6 -dim 16 -batch 32 -iters 8 -fault-rank 2 -fault-iter 4
  aceso churn    -layers 6 -dim 16 -batch 32 -iters 12 [-events 8] [-seed 1]
models: gpt3 (350M 1.3B 2.6B 6.7B 13B), t5 (770M 3B 6B 11B 22B),
        wresnet (0.5B 2B 4B 6.8B 13B), llama (8B 70B),
        deep-<layers> (e.g. deep-1024)`)
}

// workload parses the shared -model/-size/-gpus flags.
func workload(fs *flag.FlagSet) (get func() (*model.Graph, hardware.Cluster, error)) {
	mdl := fs.String("model", "gpt3", "model family: gpt3, t5, wresnet, llama, deep-<layers>")
	size := fs.String("size", "1.3B", "model size label (Table 2)")
	gpus := fs.Int("gpus", 4, "number of GPUs (V100-32GB, 8 per node)")
	return func() (*model.Graph, hardware.Cluster, error) {
		var g *model.Graph
		var err error
		var layers int
		if n, _ := fmt.Sscanf(*mdl, "deep-%d", &layers); n == 1 {
			g, err = model.DeepTransformer(layers)
		} else {
			g, err = model.ByName(*mdl, *size)
		}
		if err != nil {
			return nil, hardware.Cluster{}, err
		}
		return g, hardware.DGX1V100(4).Restrict(*gpus), nil
	}
}

func runSearch(args []string) error {
	fs := flag.NewFlagSet("search", flag.ExitOnError)
	get := workload(fs)
	budget := fs.Duration("budget", 2*time.Second, "search time budget")
	maxHops := fs.Int("maxhops", 7, "multi-hop search depth limit")
	seed := fs.Int64("seed", 1, "deterministic seed")
	dbPath := fs.String("db", "", "profiling database to reuse (from `aceso profile`)")
	fs.Parse(args)

	g, cl, err := get()
	if err != nil {
		return err
	}
	fmt.Printf("searching %s: %d ops, %.2fB params, batch %d, on %d GPUs (budget %v)\n",
		g.Name, len(g.Ops), g.TotalParams()/1e9, g.GlobalBatch, cl.TotalDevices(), *budget)

	sharedPM := perfmodel.New(g, cl, *seed)
	if *dbPath != "" {
		f, err := os.Open(*dbPath)
		if err != nil {
			return err
		}
		err = sharedPM.Prof.Load(f)
		f.Close()
		if err != nil {
			return err
		}
		fmt.Printf("loaded profiling database %s (%d entries)\n", *dbPath, sharedPM.Prof.Entries())
	}
	res, err := core.Search(g, cl, core.Options{
		TimeBudget: *budget, MaxHops: *maxHops, Seed: *seed, Model: sharedPM,
	})
	if err != nil {
		return err
	}
	fmt.Printf("\nexplored %d configurations in %v over %d iterations\n",
		res.Explored, res.Elapsed.Round(time.Millisecond), res.Iterations)
	fmt.Printf("best configuration:\n  %v\n", res.Best.Config)
	printEstimate(g, res.Best.Estimate)

	if sim, err := pipesim.Simulate(sharedPM, res.Best.Config, *seed); err == nil {
		fmt.Printf("simulated execution: %.3f s/iter, peak memory %.2f GiB, OOM=%v\n",
			sim.IterTime, sim.PeakMem/(1<<30), sim.OOM)
	}
	fmt.Println("\ntop candidates:")
	for i, c := range res.TopK {
		fmt.Printf("  #%d est %.3f s/iter, %d stages, mbs %d\n",
			i+1, c.Score, c.Config.NumStages(), c.Config.MicroBatch)
	}
	return nil
}

func printEstimate(g *model.Graph, est *perfmodel.Estimate) {
	fmt.Printf("performance model: %.3f s/iter (%.1f samples/s), peak memory %.2f GiB, feasible=%v\n",
		est.IterTime, est.Throughput(g.GlobalBatch), est.PeakMem/(1<<30), est.Feasible)
}

func runEstimate(args []string) error {
	fs := flag.NewFlagSet("estimate", flag.ExitOnError)
	get := workload(fs)
	pp := fs.Int("pp", 1, "pipeline stages")
	tp := fs.Int("tp", 1, "tensor-parallel degree")
	dp := fs.Int("dp", 1, "data-parallel degree")
	mbs := fs.Int("mbs", 1, "microbatch size")
	rc := fs.Bool("recompute", false, "recompute all operators")
	seed := fs.Int64("seed", 1, "deterministic seed")
	fs.Parse(args)

	g, cl, err := get()
	if err != nil {
		return err
	}
	if *tp**dp**pp != cl.TotalDevices() {
		return fmt.Errorf("tp(%d)·dp(%d)·pp(%d) must equal %d GPUs", *tp, *dp, *pp, cl.TotalDevices())
	}
	cfg, err := config.Balanced(g, cl.TotalDevices(), *pp, *mbs)
	if err != nil {
		return err
	}
	for i := range cfg.Stages {
		for j := range cfg.Stages[i].Ops {
			cfg.Stages[i].Ops[j] = config.OpSetting{TP: *tp, DP: *dp, Recompute: *rc}
		}
	}
	if err := cfg.Validate(g, cl.TotalDevices()); err != nil {
		return err
	}
	pm := perfmodel.New(g, cl, *seed)
	printEstimate(g, pm.Estimate(cfg))
	if sim, err := pipesim.Simulate(pm, cfg, *seed); err == nil {
		fmt.Printf("simulated execution: %.3f s/iter, peak memory %.2f GiB, OOM=%v\n",
			sim.IterTime, sim.PeakMem/(1<<30), sim.OOM)
	}
	return nil
}

func runBaseline(args []string) error {
	fs := flag.NewFlagSet("baseline", flag.ExitOnError)
	get := workload(fs)
	seed := fs.Int64("seed", 1, "deterministic seed")
	fs.Parse(args)

	g, cl, err := get()
	if err != nil {
		return err
	}
	if mg, err := megatron.Search(g, cl, megatron.Options{Seed: *seed}); err != nil {
		fmt.Printf("Megatron-LM grid: failed: %v\n", err)
	} else {
		fmt.Printf("Megatron-LM grid: %d points, best %.3f s/iter\n  %v\n",
			mg.Evaluated, mg.Estimate.IterTime, mg.Best)
	}
	if al, err := alpa.Search(g, cl, alpa.Options{Seed: *seed}); err != nil {
		fmt.Printf("Alpa-like solver: failed: %v\n", err)
	} else {
		fmt.Printf("Alpa-like solver: %d kernels, emulated cost %v, best %.3f s/iter\n  %v\n",
			al.Kernels, al.EmulatedSearchCost.Round(time.Millisecond), al.Estimate.IterTime, al.Best)
	}
	return nil
}

// demoFlags are the flags `aceso elastic` and `aceso churn` share.
type demoFlags struct {
	layers, dim, batch, iters, ckptEvery int
	seed                                 int64
}

func (f *demoFlags) bind(fs *flag.FlagSet, iters int) {
	fs.IntVar(&f.layers, "layers", 6, "MLP layers")
	fs.IntVar(&f.dim, "dim", 16, "MLP hidden width")
	fs.IntVar(&f.batch, "batch", 32, "global batch rows")
	fs.IntVar(&f.iters, "iters", iters, "training iterations")
	fs.IntVar(&f.ckptEvery, "ckpt-every", 2, "initial checkpoint cadence in iterations")
	fs.Int64Var(&f.seed, "seed", 1, "deterministic seed")
}

// runElastic kills one device mid-run: the smallest fault schedule.
func runElastic(args []string) error {
	fs := flag.NewFlagSet("elastic", flag.ExitOnError)
	var f demoFlags
	f.bind(fs, 8)
	faultRank := fs.Int("fault-rank", 2, "device rank to kill (-1 disables the fault)")
	faultIter := fs.Int("fault-iter", 4, "iteration at which the device dies")
	fs.Parse(args)
	return superviseDemo("elastic", f, func(*rand.Rand, int) elastic.ChurnSpec {
		if *faultRank < 0 {
			return elastic.ChurnSpec{}
		}
		return elastic.ChurnSpec{Events: []elastic.ChurnEvent{
			{Iteration: *faultIter, Kind: elastic.Preempt, Device: *faultRank},
		}}
	})
}

// runChurn draws a random stream of preemptions, re-additions and
// derates.
func runChurn(args []string) error {
	fs := flag.NewFlagSet("churn", flag.ExitOnError)
	var f demoFlags
	f.bind(fs, 12)
	events := fs.Int("events", 8, "maximum churn events to draw")
	fs.Parse(args)
	return superviseDemo("churn", f, func(rng *rand.Rand, devices int) elastic.ChurnSpec {
		spec := chaos.RandomChurnSpec(rng, devices, f.iters, *events)
		for tries := 0; *events > 0 && len(spec.Events) == 0 && tries < 16; tries++ {
			// The generator draws 0..events; an empty schedule makes a dull
			// demo, so keep drawing from the same deterministic stream.
			spec = chaos.RandomChurnSpec(rng, devices, f.iters, *events)
		}
		return spec
	})
}

// superviseDemo is the recovery demo: really train a small MLP on an
// emulated cluster under a fault schedule and narrate every supervisor
// decision — deferred and forced replans, ladder rungs, backoff
// retries, pauses — as a live timeline, ending with the availability
// ledger and the divergence from an uninterrupted reference run.
func superviseDemo(name string, f demoFlags, schedule func(rng *rand.Rand, devices int) elastic.ChurnSpec) error {
	rng := rand.New(rand.NewSource(f.seed))
	cl := hardware.DGX1V100(1).Restrict(4)
	job, err := chaos.MLPJob(rng, cl, f.layers, f.dim, f.batch, chaos.Shape{Stages: 2, TP: 2, DP: 1}, f.batch/4, f.seed)
	if err != nil {
		return err
	}
	job.Iters = f.iters
	spec := schedule(rng, cl.TotalDevices())
	fmt.Printf("%s: MLP(%d layers, dim %d, batch %d), pp2×tp2 on %d emulated V100s, %d scheduled events:\n",
		name, f.layers, f.dim, f.batch, cl.TotalDevices(), len(spec.Events))
	for _, ev := range spec.Events {
		switch ev.Kind {
		case elastic.Preempt, elastic.Readd:
			fmt.Printf("  iter %-3d %s device %d\n", ev.Iteration, ev.Kind, ev.Device)
		case elastic.SlowNode:
			fmt.Printf("  iter %-3d %s device %d scale %.2f\n", ev.Iteration, ev.Kind, ev.Device, ev.Scale)
		default:
			fmt.Printf("  iter %-3d %s scale %.2f\n", ev.Iteration, ev.Kind, ev.Scale)
		}
	}

	refLosses, ref, err := chaos.Reference(job)
	if err != nil {
		return err
	}
	fmt.Println("\ntimeline:")
	rep, err := elastic.Supervise(context.Background(), job, spec, elastic.Options{
		LR: chaos.LR, CheckpointEvery: f.ckptEvery, Seed: f.seed,
		SearchBudget: 300 * time.Millisecond,
		OnTransition: func(tr elastic.Transition) {
			fmt.Printf("  step %-3d [%s] %s\n", tr.Step, tr.Kind, tr.Detail)
		},
	})
	if err != nil {
		return err
	}

	fmt.Printf("\n%-5s %-14s %-14s\n", "iter", "uninterrupted", name)
	for i := range rep.Losses {
		fmt.Printf("%-5d %-14.9f %-14.9f\n", i, refLosses[i], rep.Losses[i])
	}
	fmt.Printf("\nsurvived %d events (%d in-plan faults): availability %.1f%%, %d steps lost, %d replans (%d avoided by hysteresis), %d retries, %d pauses, %d checkpoints, cadence %d→%d\n",
		rep.EventsApplied, rep.FaultsDetected, 100*rep.Availability(), rep.StepsLost,
		rep.Replans, rep.ReplansAvoided, rep.Retries, rep.Pauses, rep.Checkpoints, f.ckptEvery, rep.FinalCadence)
	if n := len(rep.Recoveries); n > 0 {
		fmt.Printf("recovery p50 %v, p99 %v over %d recoveries; %d bytes resharded\n",
			rep.RecoveryPercentile(0.5).Round(time.Microsecond),
			rep.RecoveryPercentile(0.99).Round(time.Microsecond), n, rep.ReshardBytesMoved)
	}
	fmt.Printf("final state: step %d on %d devices (%d stages, mbs %d), max parameter divergence from uninterrupted run %.3g\n",
		rep.FinalStep, rep.Config.TotalDevices(), rep.Config.NumStages(), rep.Config.MicroBatch, ref.MaxDiff(rep.Params))
	return nil
}

// runProfile pre-warms a profiling database for a workload and saves
// it (§3.3: "the profiled database can be reused by the search for
// models that contain the same operators"). Profiling runs one
// goroutine per operator — the parallelization the paper left as
// future work.
func runProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	get := workload(fs)
	out := fs.String("o", "profile-db.json", "output database path")
	seed := fs.Int64("seed", 1, "deterministic seed")
	fs.Parse(args)

	g, cl, err := get()
	if err != nil {
		return err
	}
	p := profiler.New(cl, *seed)
	start := time.Now()
	tps := []int{1}
	for tp := 2; tp <= cl.DevicesPerNode; tp *= 2 {
		tps = append(tps, tp)
	}
	samples := []int{1, 2, 4, 8, 16, 32}
	p.Prewarm(g, tps, samples)
	fmt.Printf("profiled %d operator entries in %v\n", p.Entries(), time.Since(start).Round(time.Millisecond))

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := p.Save(f); err != nil {
		return err
	}
	fmt.Printf("database written to %s\n", *out)
	return nil
}
