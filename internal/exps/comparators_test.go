package exps

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"aceso/internal/baselines/alpa"
	"aceso/internal/baselines/dpsearch"
	"aceso/internal/baselines/megatron"
	"aceso/internal/config"
	"aceso/internal/hardware"
	"aceso/internal/model"
	"aceso/internal/perfmodel"
)

// TestComparatorPlans pins what the three comparators return on a
// small (graph, fleet) matrix: the best plan's hash, its iteration
// time's bits and each comparator's work count (dpsearch's Explored,
// alpa's Evaluated and Kernels, megatron's Evaluated). A refactor of a
// comparator that means to leave its answers alone must leave
// testdata/comparators.golden byte-identical.
func TestComparatorPlans(t *testing.T) {
	gpt, err := model.GPT3("350M")
	if err != nil {
		t.Fatal(err)
	}
	wrn, err := model.WideResNet("0.5B")
	if err != nil {
		t.Fatal(err)
	}
	skewed := model.Skewed(48, 2e11, 1e7, 1e6, 0.2, 64)
	uniform := model.Uniform(32, 1e11, 1e7, 1e6, 64)
	v4, v8 := hardware.DGX1V100(1).Restrict(4), hardware.DGX1V100(1)
	derated, err := v8.Degrade(hardware.FaultSpec{Devices: []hardware.DeviceFault{
		{Device: 2, FLOPSScale: 0.6, MemScale: 1}, {Device: 5, FLOPSScale: 1, MemScale: 0.5}}})
	if err != nil {
		t.Fatal(err)
	}
	fleets := []struct {
		name string
		cl   hardware.Cluster
	}{
		{"v100x4", v4}, {"v100x16", hardware.DGX1V100(2)},
		{"a100+v100", hardware.A100V100(1, 1)}, {"v100x8-derated", derated},
	}
	// dpsearch makes ~250 000 transitions on GPT-3 350M at its default
	// microbatch axis; the real models take a shorter one to keep the
	// test fast, the synthetic graphs run every default.
	short := []int{1, 2}
	points := []struct {
		graph string
		g     *model.Graph
		fleet int
		mbs   []int
	}{
		{"gpt3-350M", gpt, 0, short}, {"wrn-0.5B", wrn, 0, short},
		{"skewed-48", skewed, 0, nil}, {"uniform-32", uniform, 0, nil},
		{"skewed-48", skewed, 1, nil}, {"uniform-32", uniform, 1, nil},
		{"skewed-48", skewed, 2, nil}, {"uniform-32", uniform, 2, nil},
		{"skewed-48", skewed, 3, nil}, {"uniform-32", uniform, 3, nil},
	}
	plan := func(best *config.Config, est *perfmodel.Estimate, err error) string {
		if err != nil {
			return "error: " + err.Error()
		}
		return fmt.Sprintf("plan=%016x iter=%016x", best.Hash(), math.Float64bits(est.IterTime))
	}
	var b strings.Builder
	for _, p := range points {
		f := fleets[p.fleet]
		at := p.graph + " " + f.name
		dp, err := dpsearch.Search(p.g, f.cl, dpsearch.Options{Seed: 1, MicroBatches: p.mbs})
		fmt.Fprintf(&b, "dpsearch %s explored=%d %s\n", at, dp.Explored, plan(dp.Best, dp.Estimate, err))
		al, err := alpa.Search(p.g, f.cl, alpa.Options{Seed: 1})
		if al == nil {
			fmt.Fprintf(&b, "alpa %s %s\n", at, plan(nil, nil, err))
		} else {
			fmt.Fprintf(&b, "alpa %s evaluated=%d kernels=%d %s\n", at, al.Evaluated, al.Kernels, plan(al.Best, al.Estimate, err))
		}
		mg, err := megatron.Search(p.g, f.cl, megatron.Options{Seed: 1})
		fmt.Fprintf(&b, "megatron %s evaluated=%d %s\n", at, mg.Evaluated, plan(mg.Best, mg.Estimate, err))
	}
	want, err := os.ReadFile("testdata/comparators.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("comparator plans moved; got:\n%s", got)
	}
}
