package collective

import (
	"testing"
	"testing/quick"

	"aceso/internal/hardware"
)

var cl = hardware.DGX1V100(4)

func TestAllReduceZeroForTrivialGroups(t *testing.T) {
	if got := AllReduceAt(&cl, 1e6, 0, 1, IntraNode); got != 0 {
		t.Errorf("AllReduce(group=1) = %v, want 0", got)
	}
	if got := AllReduceAt(&cl, 0, 0, 8, IntraNode); got != 0 {
		t.Errorf("AllReduce(bytes=0) = %v, want 0", got)
	}
}

func TestInterNodeSlowerThanIntraNode(t *testing.T) {
	const bytes = 256 << 20
	for _, g := range []int{2, 4, 8, 16} {
		intra := AllReduceAt(&cl, bytes, 0, g, IntraNode)
		inter := AllReduceAt(&cl, bytes, 0, g, InterNode)
		if inter <= intra {
			t.Errorf("group %d: inter (%v) should exceed intra (%v)", g, inter, intra)
		}
	}
}

func TestAllReduceRingFormula(t *testing.T) {
	// For 2 ranks intra-node: 2·(1/2)·bytes/bw + 2·lat.
	const bytes = 1e9
	want := bytes/cl.IntraBW + 2*cl.IntraLat
	got := AllReduceAt(&cl, bytes, 0, 2, IntraNode)
	if diff := got - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("AllReduce = %v, want %v", got, want)
	}
}

func TestAllReduceCostsTwiceAllGather(t *testing.T) {
	// Ring all-reduce = reduce-scatter + all-gather, and a reduce-scatter
	// costs what an all-gather does.
	const bytes = 64 << 20
	for _, g := range []int{2, 4, 8} {
		ar := AllReduceAt(&cl, bytes, 0, g, IntraNode)
		ag := AllGatherAt(&cl, bytes, 0, g, IntraNode)
		if diff := ar - 2*ag; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("group %d: allreduce (%v) != 2 × allgather (%v)", g, ar, 2*ag)
		}
	}
}

func TestP2P(t *testing.T) {
	const bytes = 1 << 20
	wantIntra := bytes/cl.IntraBW + cl.IntraLat
	if got := P2PAt(&cl, bytes, 0, IntraNode); got != wantIntra {
		t.Errorf("P2P intra = %v, want %v", got, wantIntra)
	}
	if P2PAt(&cl, bytes, 0, InterNode) <= P2PAt(&cl, bytes, 0, IntraNode) {
		t.Error("inter-node P2P should be slower than intra-node")
	}
	if P2PAt(&cl, 0, 0, IntraNode) != 0 {
		t.Error("P2P of zero bytes should be free")
	}
}

func TestPlacementFor(t *testing.T) {
	if p := PlacementFor(&cl, 0, 8); p != IntraNode {
		t.Errorf("PlacementFor(0,8) = %v, want IntraNode", p)
	}
	if p := PlacementFor(&cl, 4, 8); p != InterNode {
		t.Errorf("PlacementFor(4,8) = %v, want InterNode", p)
	}
}

// Property: collective times are non-negative and monotone in bytes.
func TestMonotoneInBytes(t *testing.T) {
	f := func(kb uint16, extra uint16, g uint8) bool {
		group := int(g%31) + 2
		b1 := float64(kb) * 1024
		b2 := b1 + float64(extra)*1024
		for _, p := range []Placement{IntraNode, InterNode} {
			if AllReduceAt(&cl, b1, 0, group, p) > AllReduceAt(&cl, b2, 0, group, p) {
				return false
			}
			if AllGatherAt(&cl, b1, 0, group, p) > AllGatherAt(&cl, b2, 0, group, p) {
				return false
			}
			if P2PAt(&cl, b1, 0, p) > P2PAt(&cl, b2, 0, p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: per-rank all-reduce cost grows with group size (ring has
// more hops and a worse (g-1)/g factor plus latency terms).
func TestAllReduceMonotoneInGroup(t *testing.T) {
	const bytes = 128 << 20
	prev := 0.0
	for _, g := range []int{2, 4, 8, 16, 32} {
		cur := AllReduceAt(&cl, bytes, 0, g, InterNode)
		if cur <= prev {
			t.Errorf("AllReduce group %d (%v) should exceed smaller group (%v)", g, cur, prev)
		}
		prev = cur
	}
}
