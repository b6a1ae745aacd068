package main

// The hetero target, and the aware-vs-blind comparison it shares with
// the spot target.

import (
	"fmt"
	"strings"
	"time"

	"aceso/internal/config"
	"aceso/internal/core"
	"aceso/internal/diffcheck"
	"aceso/internal/exps"
	"aceso/internal/hardware"
	"aceso/internal/model"
	"aceso/internal/perfmodel"
)

// caseStudyOptions is the search both planning case studies run:
// iterations are the binding limit, so explored counts and plans are
// exact fingerprints.
func caseStudyOptions(seed int64) core.Options {
	return core.Options{TimeBudget: time.Hour, MaxIterations: 4, StageCounts: []int{2, 4}, Seed: seed}
}

// blindComparison is what a planner pays for not seeing a property of
// the fleet (its device classes, its reclaim hazard).
type blindComparison struct {
	Aware, Blind *core.Result
	// BlindBest is the plan of the blind search's top-K (its best
	// first) that is cheapest once priced under the truth, BlindCost
	// that price, and Feasible how many of those plans the truth accepts.
	BlindBest core.Candidate
	BlindCost float64
	Feasible  int
}

// awareVsBlind searches g on the true fleet and on its blind twin (the
// same fleet with the property stripped), then re-prices every plan the
// blind search kept under the truth. price returns false for a plan the
// truth finds infeasible.
func awareVsBlind(g *model.Graph, truth, blind hardware.Cluster, opts core.Options,
	price func(core.Candidate) (float64, bool)) (*blindComparison, error) {
	aware, err := core.Search(g, truth, opts)
	if err != nil {
		return nil, err
	}
	if !aware.Best.Estimate.Feasible {
		return nil, fmt.Errorf("the aware search found no feasible plan")
	}
	blindRes, err := core.Search(g, blind, opts)
	if err != nil {
		return nil, err
	}
	cmp := &blindComparison{Aware: aware, Blind: blindRes}
	for _, cand := range blindRes.TopK {
		if cand.Config == nil {
			continue
		}
		cost, ok := price(cand)
		if !ok {
			continue
		}
		cmp.Feasible++
		if cmp.Feasible == 1 || cost < cmp.BlindCost {
			cmp.BlindBest, cmp.BlindCost = cand, cost
		}
	}
	if cmp.Feasible == 0 {
		return nil, fmt.Errorf("no blind plan is feasible under the truth; the comparison is vacuous")
	}
	return cmp, nil
}

// planFingerprint renders a configuration's shape as a stable string:
// stage boundaries and device counts.
func planFingerprint(cfg *config.Config) string {
	var b strings.Builder
	fmt.Fprintf(&b, "mb%d", cfg.MicroBatch)
	for _, st := range cfg.Stages {
		fmt.Fprintf(&b, ";%d-%d/%dd", st.Start, st.End, st.Devices)
	}
	return b.String()
}

// runHetero is the heterogeneous planning case study: GPT-3 1.3B on one
// A100 node + one V100 node, against (a) a class-blind search over the
// same scalar envelope — every device looks like a full-speed A100 —
// whose plans are re-priced under the true mixed model, the penalty a
// homogeneous planner pays on a real mixed fleet, and (b) homogeneous
// all-A100 / all-V100 fleets for context. The hetero-aware plan must
// strictly beat the blind one, and a slice of the differential
// validation on mixed-class clusters must find no violation.
func runHetero(e *env) ([]exps.Table, []string, error) {
	graph, err := model.GPT3("1.3B")
	if err != nil {
		return nil, nil, err
	}
	mixed := hardware.A100V100(1, 1) // 8×A100-80GB + 8×V100-32GB
	opts := caseStudyOptions(e.set.Seed)
	blind := mixed
	blind.Classes = nil
	blind.NodeClass = nil
	truth := perfmodel.New(graph, mixed, e.set.Seed)
	cmp, err := awareVsBlind(graph, mixed, blind, opts, func(c core.Candidate) (float64, bool) {
		est := truth.Estimate(c.Config)
		return est.IterTime, est.Feasible
	})
	if err != nil {
		return nil, nil, err
	}
	heteroTime := cmp.Aware.Best.Estimate.IterTime
	t := exps.Table{
		Title: fmt.Sprintf("hetero: GPT-3 1.3B on 8×A100-80GB + 8×V100-32GB, %d iterations, stage counts {2,4}, seed %d",
			opts.MaxIterations, e.set.Seed),
		Cols: []exps.Col{{Head: "planner"}, {Head: "iter s", Fmt: "%.4f"}, {Head: "vs aware", Fmt: "%.3fx"},
			{Head: "explored"}, {Head: "feasible plans"}, {Head: "plan"}},
	}
	row := func(name string, iterTime float64, res *core.Result, feasible any, plan *config.Config) {
		t.Rows = append(t.Rows, []any{name, iterTime, iterTime / heteroTime, res.Explored, feasible, planFingerprint(plan)})
	}
	row("mixed-aware", heteroTime, cmp.Aware, "-", cmp.Aware.Best.Config)
	row("class-blind re-priced", cmp.BlindCost, cmp.Blind, cmp.Feasible, cmp.BlindBest.Config)
	for _, hom := range []struct {
		name string
		cl   hardware.Cluster
	}{{"all-A100", hardware.A100V100(2, 0)}, {"all-V100", hardware.A100V100(0, 2)}} {
		res, err := core.Search(graph, hom.cl, opts)
		if err == nil && !res.Best.Estimate.Feasible {
			err = fmt.Errorf("no feasible plan")
		}
		if err != nil {
			return nil, nil, fmt.Errorf("%s baseline: %w", hom.name, err)
		}
		row(hom.name, res.Best.Estimate.IterTime, res, "-", res.Best.Config)
	}
	var g gates
	g.gate(heteroTime < cmp.BlindCost, "hetero-aware plan (%.6fs) does not strictly beat the best class-blind plan (%.6fs)",
		heteroTime, cmp.BlindCost)

	diff := runTrials(e, diffcheck.Hetero(nil).Scenario)
	return []exps.Table{t, diff.table()}, append(g.failed, diff.Violations...), nil
}
