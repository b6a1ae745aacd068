// Package collective models the cost of the collective-communication
// operations that parallel DNN training relies on: all-reduce for
// tensor- and data-parallel synchronization, all-gather/reduce-scatter
// for layout changes, and point-to-point transfers between pipeline
// stages.
//
// The models follow the ring-algorithm cost shapes NCCL exhibits:
//
//	allreduce(n, g)      = 2 (g-1)/g · n / bw + (g-1) · lat · 2
//	allgather(n, g)      =   (g-1)/g · n / bw + (g-1) · lat
//	reducescatter(n, g)  =   (g-1)/g · n / bw + (g-1) · lat
//	p2p(n)               =   n / bw + lat
//
// where bw and lat are picked from the cluster's intra-node or
// inter-node link depending on the placement of the group. The paper's
// profiler measures these on hardware (§3.3); here they are analytic,
// which preserves the orderings the search depends on (DESIGN.md §2).
package collective

import "aceso/internal/hardware"

// Placement says whether a communication group is contained in one
// node or spans several.
type Placement int

const (
	// IntraNode groups use the fast in-node links (NVLink).
	IntraNode Placement = iota
	// InterNode groups are bottlenecked by the network (InfiniBand).
	InterNode
)

// PlacementFor derives the placement of a contiguous device range.
func PlacementFor(c *hardware.Cluster, firstDev, size int) Placement {
	if c.GroupSpansNodes(firstDev, size) {
		return InterNode
	}
	return IntraNode
}

// AllReduceAt returns the time (seconds) for a ring all-reduce of
// `bytes` over the `size` devices starting at first, priced at that
// range's link (hardware.Cluster.RangeLink) — the slowest class in the
// group on a mixed fleet, derated by any fabric fault.
func AllReduceAt(c *hardware.Cluster, bytes float64, first, size int, p Placement) float64 {
	if size <= 1 || bytes <= 0 {
		return 0
	}
	bw, lat := c.RangeLink(first, size, p == InterNode)
	g := float64(size)
	return 2*(g-1)/g*bytes/bw + float64(2*(g-1)*lat)
}

// AllGatherAt returns the time for a ring all-gather over the device
// range starting at first, where every rank ends with `bytes` total
// (i.e. each contributes bytes/size). A ring reduce-scatter has the
// same cost shape.
func AllGatherAt(c *hardware.Cluster, bytes float64, first, size int, p Placement) float64 {
	if size <= 1 || bytes <= 0 {
		return 0
	}
	bw, lat := c.RangeLink(first, size, p == InterNode)
	g := float64(size)
	return (g-1)/g*bytes/bw + float64((g-1)*lat)
}

// P2PAt returns the time to move `bytes` across a pipeline-stage
// boundary, priced at the link of the two-device range starting at
// first (the sender/receiver pair).
func P2PAt(c *hardware.Cluster, bytes float64, first int, p Placement) float64 {
	if bytes <= 0 {
		return 0
	}
	bw, lat := c.RangeLink(first, 2, p == InterNode)
	return bytes/bw + lat
}
