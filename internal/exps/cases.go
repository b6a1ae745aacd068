package exps

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"aceso/internal/config"
	"aceso/internal/hardware"
	"aceso/internal/model"
)

// CaseStudy is the §5.4 qualitative analysis of one found config.
type CaseStudy struct {
	Key    string // the workload, e.g. "gpt3-1.3B"
	Title  string
	Config *config.Config
}

// CaseStudies are the §5.4 case studies.
type CaseStudies []CaseStudy

// Cases reproduces the two §5.4 case studies: GPT-3 1.3B on 4 GPUs
// (uneven pipeline stages with partial recomputation) and Wide-ResNet
// 6.8B on 16 GPUs (mixed per-op dp×tp inside a stage).
func Cases(set Settings) (CaseStudies, error) {
	set = set.withDefaults()
	var out CaseStudies
	for _, tc := range []struct {
		family, size string
		cl           hardware.Cluster
		title        string
	}{
		{"gpt3", "1.3B", hardware.DGX1V100(1).Restrict(4), "GPT-3 1.3B on 4 GPUs (§5.4: uneven pipeline stages)"},
		{"wresnet", "6.8B", hardware.DGX1V100(2), "Wide-ResNet 6.8B on 16 GPUs (§5.4: per-op dp×tp mixes)"},
	} {
		g, err := model.ByName(tc.family, tc.size)
		if err != nil {
			return nil, err
		}
		run, err := runAceso(g, tc.cl, set)
		if err != nil {
			return nil, err
		}
		out = append(out, CaseStudy{Key: tc.family + "-" + tc.size, Title: tc.title, Config: run.Best})
	}
	return out, nil
}

// Tables describes each case's plan: one line per stage with its shape,
// recompute count and distinct tp×dp mixes.
func (cases CaseStudies) Tables() []Table {
	out := []Table{{Title: "§5.4 case studies: configurations found by Aceso"}}
	for _, cs := range cases {
		c := cs.Config
		t := Table{Key: cs.Key, View: Lines,
			Title: fmt.Sprintf("\n%s\n  pipeline stages: %d, microbatch %d", cs.Title, c.NumStages(), c.MicroBatch),
			Cols: []Col{{Head: "stage", Fmt: "stage %d:"}, {Head: "ops", Fmt: "%d ops"}, {Head: "GPUs", Fmt: "on %d GPUs,"},
				{Head: "recomputed", Fmt: "%d recomputed,"}, {Head: "tp×dp mixes"}}}
		evenOps := true
		for i := range c.Stages {
			st := &c.Stages[i]
			evenOps = evenOps && st.NumOps() == c.Stages[0].NumOps()
			mixes := map[[2]int]int{}
			for j := range st.Ops {
				mixes[[2]int{st.Ops[j].TP, st.Ops[j].DP}]++
			}
			keys := make([][2]int, 0, len(mixes))
			for k := range mixes {
				keys = append(keys, k)
			}
			slices.SortFunc(keys, func(a, b [2]int) int { return cmp.Or(a[0]-b[0], a[1]-b[1]) })
			desc := make([]string, len(keys))
			for k, key := range keys {
				desc[k] = fmt.Sprintf("tp%d×dp%d(%d ops)", key[0], key[1], mixes[key])
			}
			t.Rows = append(t.Rows, []any{i, st.NumOps(), st.Devices, c.RecomputedOps(i), strings.Join(desc, " ")})
		}
		if !evenOps {
			t.Notes = []string{"  stages are UNEVEN op partitions (outside Megatron-LM/Alpa's space)"}
		}
		out = append(out, t)
	}
	return out
}
