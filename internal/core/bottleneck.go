package core

import (
	"sort"

	"aceso/internal/perfmodel"
)

// Bottleneck identifies one stage and the ordered list of resources to
// alleviate there.
type Bottleneck struct {
	Stage     int
	Resources []Resource // Heuristic-2 exploration order
}

// Heuristic-1 ranks stages by rankKey, largest first: memory
// consumption when the configuration is out of memory (safety first),
// execution time otherwise.
func rankKey(est *perfmodel.Estimate, si int) float64 {
	if !est.Feasible {
		return est.Stages[si].PeakMem
	}
	return est.Stages[si].StageTime
}

// consumption is the cluster-wide consumption of each resource, the
// denominators of Heuristic-2's proportions.
type consumption struct{ comp, comm, mem float64 }

func totalConsumption(est *perfmodel.Estimate) consumption {
	var t consumption
	for i := range est.Stages {
		s := &est.Stages[i]
		t.comp += s.CompTime()
		t.comm += s.CommTime(est.Microbatches)
		t.mem += s.PeakMem
	}
	return t
}

// resourceOrder appends to buf the resources to alleviate in stage si,
// in Heuristic-2 order: the time resources by the stage's consumption
// proportion — its share of the cluster-wide consumption of that
// resource, highest first — with memory in front when the stage is what
// makes the configuration infeasible, and at the back when the stage is
// feasible but under memory pressure.
func resourceOrder(buf []Resource, est *perfmodel.Estimate, si int, tot consumption) []Resource {
	// CapMem is the stage's own capacity: a fault-derated or lower-class
	// device shrinks its budget below the cluster-wide figure.
	s := &est.Stages[si]
	if !est.Feasible && s.PeakMem > s.CapMem {
		// Safety first: resolve memory, then whatever time resource
		// dominates.
		buf = append(buf, Mem)
	}
	if proportion(s.CompTime(), tot.comp) >= proportion(s.CommTime(est.Microbatches), tot.comm) {
		buf = append(buf, Comp, Comm)
	} else {
		buf = append(buf, Comm, Comp)
	}
	// High memory pressure makes memory-relieving primitives worth
	// exploring even before an OOM materializes.
	if est.Feasible && s.PeakMem > 0.9*s.CapMem {
		buf = append(buf, Mem)
	}
	return buf
}

// Bottlenecks ranks the stages of an estimate by Heuristic-1 and orders
// each one's resources by Heuristic-2. The full ranking (not just the
// top stage) is returned so that the search can fall back to secondary
// bottlenecks when the primary one cannot be improved (§3.2.3).
func Bottlenecks(est *perfmodel.Estimate) []Bottleneck {
	idx := make([]int, len(est.Stages))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return rankKey(est, idx[a]) > rankKey(est, idx[b])
	})
	tot := totalConsumption(est)
	out := make([]Bottleneck, 0, len(idx))
	for _, si := range idx {
		out = append(out, Bottleneck{Stage: si, Resources: resourceOrder(nil, est, si, tot)})
	}
	return out
}

// topBottleneck returns Bottlenecks(est)[0] without building and
// sorting the full per-stage ranking: the multi-hop branch step only
// ever consumes the top entry. The top stage is the first index
// attaining the extreme key (matching the stable sort's tie-break),
// and the resource list is built into t.res, the buffer of the node
// that branches, until the recursion consuming it returns.
func topBottleneck(t *trial, est *perfmodel.Estimate) (Bottleneck, bool) {
	if len(est.Stages) == 0 {
		return Bottleneck{}, false
	}
	top := 0
	for i := 1; i < len(est.Stages); i++ {
		if rankKey(est, i) > rankKey(est, top) {
			top = i
		}
	}
	t.res = resourceOrder(t.res[:0], est, top, totalConsumption(est))
	return Bottleneck{Stage: top, Resources: t.res}, true
}

// StageProportions returns stage si's share of the cluster-wide
// consumption of each resource — the proportions Heuristic-2 orders
// primitives by (§3.2, Table 1). These are the figures the search
// trace records per iteration, so a mis-booked bucket (the historical
// reshard-into-TPComm bug) is visible as a skewed comm proportion.
func StageProportions(est *perfmodel.Estimate, si int) (comp, comm, mem float64) {
	if est == nil || si < 0 || si >= len(est.Stages) {
		return 0, 0, 0
	}
	tot := totalConsumption(est)
	s := &est.Stages[si]
	return proportion(s.CompTime(), tot.comp),
		proportion(s.CommTime(est.Microbatches), tot.comm),
		proportion(s.PeakMem, tot.mem)
}

func proportion(part, total float64) float64 {
	if total <= 0 {
		return 0
	}
	return part / total
}
