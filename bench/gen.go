package main

// Input generators. Every request the planner sees is made here; the
// planner receives only the generated requests, never the seed.
//
// The two search workloads have one pinned input each and ignore -seed
// on purpose: Options.Seed selects the profiling database, and on
// GPT-3 2.6B / 16 V100 a different database changes the work of one
// search fourfold (4 095 to 26 303 configurations explored for seeds
// 1-10), so a seed-derived search input would make the seed, not the
// code, set every metric. The serve workloads take everything that can
// vary without changing the expected work from -seed: the order of the
// hot set and every fault, derate, hazard and reseed value of the miss
// list.

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"aceso/internal/planserver"
)

// budgetMS is far above what any generated search needs: every search
// is bounded by max_iterations, so the budget never fires and every op
// does identical work. 30 s is also the server's default MaxBudget.
const budgetMS = 30_000

func dgx(nodes int) planserver.ClusterSpec { return planserver.ClusterSpec{Nodes: nodes} }

func gpt3(size string) planserver.ModelSpec {
	return planserver.ModelSpec{Family: "gpt3", Size: size}
}

// deepRequest is search-deep's input: the paper's setting and the
// repo's pinned exploration (24 701 configurations at seed 1).
func deepRequest(quick bool) planserver.PlanRequest {
	r := planserver.PlanRequest{
		Model:   gpt3("2.6B"),
		Cluster: dgx(2),
		Options: planserver.SearchOptions{BudgetMS: budgetMS, MaxIterations: 4, Seed: 1},
	}
	if quick {
		r.Model, r.Cluster, r.Options.MaxIterations = gpt3("350M"), dgx(1), 2
	}
	return r
}

// scaleRequest is search-scale's input: 10 240 uniform ops on 4 096
// devices, where per-search construction, not exploration, is the cost.
func scaleRequest(quick bool) planserver.PlanRequest {
	r := planserver.PlanRequest{
		Model:   planserver.ModelSpec{Family: "uniform", Ops: 10240, FLOPs: 1e9, Params: 1e6, Act: 1e5, Batch: 1024},
		Cluster: dgx(512),
		Options: planserver.SearchOptions{BudgetMS: budgetMS, MaxIterations: 2, Seed: 1, StageCounts: []int{8, 16, 32}},
	}
	if quick {
		r.Model.Ops, r.Cluster = 640, dgx(32)
	}
	return r
}

// hotKeys is serve-hit's population, in the order set-up plans it: per
// model the healthy fleets first, so the fleet with a dead device
// warm-starts from a plan of the same model (a cold search of 15
// devices cannot split them for seven of its stage counts and comes
// back Partial). Model size sets the cost of a hit: prepare rebuilds the
// graph and hashes it on every request.
func hotKeys(quick bool) []planserver.PlanRequest {
	models := []planserver.ModelSpec{
		gpt3("350M"), gpt3("1.3B"), gpt3("2.6B"), gpt3("6.7B"),
		{Family: "t5", Size: "770M"}, {Family: "t5", Size: "3B"},
		{Family: "wideresnet", Size: "0.5B"}, {Family: "wideresnet", Size: "2B"},
	}
	clusters := []planserver.ClusterSpec{
		dgx(1),
		dgx(2),
		{Preset: "a100v100", Nodes: 2},
		{Nodes: 2, Faults: &planserver.FaultsSpec{Dead: []int{15}}},
	}
	if quick {
		models, clusters = models[:2], clusters[2:]
	}
	var out []planserver.PlanRequest
	for _, m := range models {
		for _, c := range clusters {
			out = append(out, planserver.PlanRequest{
				Model:   m,
				Cluster: c,
				Options: planserver.SearchOptions{BudgetMS: budgetMS, MaxIterations: 2, Seed: 1},
			})
		}
	}
	return out
}

// hotOrder is the order in which serve-hit visits the keys: the
// population is fixed, so the work of a run does not depend on the
// seed, but a request's round-robin neighbours, and so what it finds in
// the CPU caches, do.
func hotOrder(seed int64, n int) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}

// missKinds is serve-miss's interleave, fixed and seed-independent so
// that every run and every seed has the same mix. The first four kinds
// share options, so each warm-starts from the previous plan of the
// family; reseed changes options.seed and is a cold search.
var missKinds = []string{"derate", "hetero", "dead", "spot", "reseed"}

func missKind(i int) string { return missKinds[i%len(missKinds)] }

// missList returns n never-repeating requests, all for GPT-3 350M on 16
// devices at max_iterations=2: first the warm chain, which is the same
// for every seed, then the seed's own stream. Set-up sends the warm
// chain to a fresh server, so the plans it gets are the same on every
// run and seed and their predicted iteration time can guard plan
// quality; which plan a later request warm-starts from, and so how good
// its own plan is, depends on everything sent before it. Continuous
// values carry 53 random bits each, so no two bodies are equal (the
// unit test checks it rather than trusting it).
func missList(seed int64, warm, n int) []planserver.PlanRequest {
	// Even and odd sources: the seed's stream never replays the chain.
	rng := rand.New(rand.NewSource(0))
	v100 := planserver.DeviceClassSpec{
		Name: "v100", FP16FLOPS: 125e12, FP32FLOPS: 15.7e12, MaxUtil: 0.55, MemoryBytes: 32 * (1 << 30),
		IntraBW: 130e9, InterBW: 12.5e9, IntraLat: 5e-6, InterLat: 20e-6,
	}
	const nodes, devices = 2, 16
	out := make([]planserver.PlanRequest, n)
	for i := range out {
		if i == warm {
			rng = rand.New(rand.NewSource(2*seed + 1))
		}
		r := planserver.PlanRequest{
			Model:   gpt3("350M"),
			Cluster: dgx(nodes),
			Options: planserver.SearchOptions{BudgetMS: budgetMS, MaxIterations: 2, Seed: 1},
		}
		derate := planserver.DerateSpec{Device: rng.Intn(devices), FLOPSScale: 0.5 + 0.45*rng.Float64()}
		switch missKind(i) {
		case "derate":
			r.Cluster.Faults = &planserver.FaultsSpec{Derates: []planserver.DerateSpec{derate}}
		case "hetero":
			r.Cluster.Preset = "a100v100"
			r.Cluster.Faults = &planserver.FaultsSpec{Derates: []planserver.DerateSpec{derate}}
		case "dead":
			r.Cluster.Faults = &planserver.FaultsSpec{
				Dead:         []int{rng.Intn(devices)},
				InterBWScale: 0.3 + 0.6*rng.Float64(),
			}
		case "spot":
			spot := v100
			spot.Name, spot.Capacity = "v100-spot", "spot"
			spot.HazardPerHour = 2 + 8*rng.Float64()
			spot.NoticeSeconds = 30 + 120*rng.Float64()
			r.Cluster.Classes = []planserver.DeviceClassSpec{v100, spot}
			r.Cluster.NodeClasses = make([]int, nodes)
			r.Cluster.NodeClasses[nodes-1] = 1
		case "reseed":
			r.Options.Seed = 2 + rng.Int63n(1<<40)
		}
		out[i] = r
	}
	return out
}

// marshalAll pre-marshals request bodies: the client sends bytes, so
// no encoding happens inside a timed op.
func marshalAll(reqs []planserver.PlanRequest) ([][]byte, error) {
	out := make([][]byte, len(reqs))
	for i := range reqs {
		b, err := json.Marshal(&reqs[i])
		if err != nil {
			return nil, fmt.Errorf("marshal request %d: %w", i, err)
		}
		out[i] = b
	}
	return out, nil
}
