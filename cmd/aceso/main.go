// Command aceso searches, estimates and profiles parallel-training
// configurations from the terminal.
//
// Usage:
//
//	aceso search   -model gpt3 -size 1.3B -gpus 4 [-budget 2s] [-maxhops 7] [-seed 1]
//	aceso estimate -model gpt3 -size 1.3B -gpus 4 -pp 2 -tp 2 -dp 1 -mbs 1 [-recompute]
//	aceso profile  -model gpt3 -size 1.3B -gpus 4 -o profile-db.json
//
// search prints the best found configuration, its performance-model
// estimate, and the runtime simulator's verdict. estimate evaluates a
// manual (Megatron-style global) configuration. profile pre-warms a
// profiling database that search -db reuses. The baselines, the
// recovery demos and the paper's figures are acesobench targets.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"aceso/internal/config"
	"aceso/internal/core"
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
	case "profile":
		err = runProfile(os.Args[2:])
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
	fmt.Fprintln(os.Stderr, `usage: aceso <search|estimate|profile> [flags]
  aceso search   -model gpt3 -size 1.3B -gpus 4 [-budget 2s] [-maxhops 7] [-seed 1] [-db db.json]
  aceso estimate -model gpt3 -size 1.3B -gpus 4 -pp 2 -tp 2 -dp 1 -mbs 1 [-recompute]
  aceso profile  -model gpt3 -size 1.3B -gpus 4 -o profile-db.json
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
