// Heterogeneous device classes: real fleets mix accelerator
// generations (A100 + V100 pools, spot capacity from an older SKU) and
// the planner must price each pipeline stage at the capability of the
// devices it actually lands on, not a cluster-wide scalar
// (TensorOpt's cost–memory frontier argument; PipeDream's non-uniform
// stage/device assignment).
//
// Representation: the Cluster keeps its scalar fields as a *reference
// envelope* — the best class, the figure the profiler's roofline uses
// — and every DeviceClass expresses its capability relative to that
// envelope. A slower class is therefore a *derate*, exactly like a
// fault-spec FLOPSScale, so class and fault effects compose by
// multiplication in the same accessors (DeviceFLOPSScale,
// RangeMemory, …) and every consumer of those accessors becomes
// class-aware for free. Validate enforces the envelope invariant
// (no class exceeds the scalars), which keeps every scale in (0, 1].
package hardware

import "fmt"

// DeviceClass describes one device generation in a heterogeneous
// cluster: per-class throughput, utilization ceiling and memory, plus
// optional link overrides for classes wired differently (0 inherits
// the cluster scalar).
type DeviceClass struct {
	Name string

	// Peak per-device throughput in FLOP/s by precision.
	FP16FLOPS float64
	FP32FLOPS float64
	// MaxUtil is the class's achievable fraction of peak.
	MaxUtil float64
	// MemoryBytes is the class's per-device memory capacity.
	MemoryBytes float64

	// Link overrides; 0 means "inherit the cluster scalar". A group's
	// links are priced from its slowest member class (min bandwidth,
	// max latency — see Cluster.RangeLink).
	IntraBW  float64
	InterBW  float64
	IntraLat float64
	InterLat float64

	// Capacity marks the provisioning tier: Reserved (the zero value)
	// devices stay up for the job's lifetime; Spot devices carry a
	// preemption hazard and an advance reclaim notice. See spot.go.
	Capacity Capacity
	// HazardRate is the Poisson preemption rate of one Spot device,
	// in expected preemptions per hour. Must be 0 on Reserved capacity.
	HazardRate float64
	// NoticeSeconds is the advance warning a Spot reclaim gives before
	// the device disappears (0 = the device vanishes without notice).
	NoticeSeconds float64
}

// PeakFLOPS returns the class's peak throughput for a precision.
func (d *DeviceClass) PeakFLOPS(p Precision) float64 {
	if p == FP32 {
		return d.FP32FLOPS
	}
	return d.FP16FLOPS
}

// A100Class is the canonical A100-80GB description (SXM: 312 TFLOPS
// fp16, 19.5 fp32, NVLink3).
func A100Class() DeviceClass {
	return DeviceClass{
		Name:        "a100",
		FP16FLOPS:   312e12,
		FP32FLOPS:   19.5e12,
		MaxUtil:     0.5,
		MemoryBytes: 80 * (1 << 30),
		IntraBW:     300e9,
		InterBW:     12.5e9,
		IntraLat:    4e-6,
		InterLat:    20e-6,
	}
}

// V100Class is the canonical V100-32GB description, matching the
// DGX1V100 scalars.
func V100Class() DeviceClass {
	return DeviceClass{
		Name:        "v100",
		FP16FLOPS:   125e12,
		FP32FLOPS:   15.7e12,
		MaxUtil:     0.55,
		MemoryBytes: 32 * (1 << 30),
		IntraBW:     130e9,
		InterBW:     12.5e9,
		IntraLat:    5e-6,
		InterLat:    20e-6,
	}
}

// Mixed builds a heterogeneous cluster of len(nodeClass) nodes with
// devicesPerNode devices each; nodeClass[i] indexes into classes. The
// scalar fields are set to the per-field envelope (max over classes),
// so every class scale lies in (0, 1] and Validate's envelope
// invariant holds by construction.
func Mixed(devicesPerNode int, nodeClass []int, classes ...DeviceClass) Cluster {
	c := Cluster{
		Nodes:          len(nodeClass),
		DevicesPerNode: devicesPerNode,
		Classes:        append([]DeviceClass(nil), classes...),
		NodeClass:      append([]int(nil), nodeClass...),
	}
	for i := range classes {
		cl := &classes[i]
		c.FP16FLOPS = maxf(c.FP16FLOPS, cl.FP16FLOPS)
		c.FP32FLOPS = maxf(c.FP32FLOPS, cl.FP32FLOPS)
		c.MaxUtil = maxf(c.MaxUtil, cl.MaxUtil)
		c.MemoryBytes = maxf(c.MemoryBytes, cl.MemoryBytes)
		c.IntraBW = maxf(c.IntraBW, cl.IntraBW)
		c.InterBW = maxf(c.InterBW, cl.InterBW)
		c.IntraLat = maxf(c.IntraLat, cl.IntraLat)
		c.InterLat = maxf(c.InterLat, cl.InterLat)
	}
	return c
}

// A100V100 builds the canonical mixed fleet: a100Nodes DGX-A100-like
// nodes followed by v100Nodes DGX-1-like nodes, 8 devices each. The
// A100 nodes come first, so low device ranks are the fast ones —
// pipeline stage 0 lands on A100s.
func A100V100(a100Nodes, v100Nodes int) Cluster {
	nodeClass := make([]int, a100Nodes+v100Nodes)
	for i := a100Nodes; i < len(nodeClass); i++ {
		nodeClass[i] = 1
	}
	return Mixed(8, nodeClass, A100Class(), V100Class())
}

func maxf(a, b float64) float64 {
	if b > a {
		return b
	}
	return a
}

// validateClasses checks the class table and per-node layout against
// the scalar envelope. Errors name the offending class or node.
func (c *Cluster) validateClasses() error {
	if len(c.Classes) == 0 {
		if len(c.NodeClass) > 0 {
			return fmt.Errorf("hardware: NodeClass set on a cluster without device classes")
		}
		return nil
	}
	if len(c.NodeClass) != c.Nodes {
		return fmt.Errorf("hardware: NodeClass has %d entries for %d nodes", len(c.NodeClass), c.Nodes)
	}
	for i := range c.Classes {
		d := &c.Classes[i]
		switch {
		case !finite(d.FP16FLOPS) || !finite(d.FP32FLOPS) || d.FP16FLOPS <= 0 || d.FP32FLOPS <= 0:
			return fmt.Errorf("hardware: class %d (%s): non-positive or non-finite FLOPS", i, d.Name)
		case !finite(d.MaxUtil) || d.MaxUtil <= 0 || d.MaxUtil > 1:
			return fmt.Errorf("hardware: class %d (%s): MaxUtil = %v, want (0, 1]", i, d.Name, d.MaxUtil)
		case !finite(d.MemoryBytes) || d.MemoryBytes <= 0:
			return fmt.Errorf("hardware: class %d (%s): non-positive or non-finite MemoryBytes", i, d.Name)
		case !finite(d.IntraBW) || !finite(d.InterBW) || d.IntraBW < 0 || d.InterBW < 0:
			return fmt.Errorf("hardware: class %d (%s): negative or non-finite link bandwidth override", i, d.Name)
		case !finite(d.IntraLat) || !finite(d.InterLat) || d.IntraLat < 0 || d.InterLat < 0:
			return fmt.Errorf("hardware: class %d (%s): negative or non-finite link latency override", i, d.Name)
		}
		if err := validateSpot(i, d); err != nil {
			return err
		}
		// Envelope invariant: no class exceeds the scalar fields, so
		// every class scale is a true derate in (0, 1].
		if d.FP16FLOPS*d.MaxUtil > c.FP16FLOPS*c.MaxUtil ||
			d.FP32FLOPS*d.MaxUtil > c.FP32FLOPS*c.MaxUtil {
			return fmt.Errorf("hardware: class %d (%s) exceeds the cluster throughput envelope", i, d.Name)
		}
		if d.MemoryBytes > c.MemoryBytes {
			return fmt.Errorf("hardware: class %d (%s) MemoryBytes %v exceeds the cluster envelope %v",
				i, d.Name, d.MemoryBytes, c.MemoryBytes)
		}
	}
	for n, k := range c.NodeClass {
		if k < 0 || k >= len(c.Classes) {
			return fmt.Errorf("hardware: node %d has class %d, want [0, %d)", n, k, len(c.Classes))
		}
	}
	return nil
}

// ClassOf returns the device class of a logical rank, or nil on a
// homogeneous cluster.
func (c *Cluster) ClassOf(logical int) *DeviceClass {
	if len(c.Classes) == 0 {
		return nil
	}
	n := c.NodeOf(logical)
	if n < 0 || n >= len(c.NodeClass) {
		return nil
	}
	return &c.Classes[c.NodeClass[n]]
}

// RangeLink returns the bandwidth and latency of the link the logical
// range [first, first+size) communicates over, inter- or intra-node. A
// ring runs at its slowest member, so the bandwidth is the minimum and
// the latency the maximum over the members' links: a class override
// where the class sets one, the cluster scalar otherwise. The extremes
// start from the first member, not the scalar, because Validate lets
// an override exceed the scalar. The fault spec's fabric derates
// multiply the result where they are set.
func (c *Cluster) RangeLink(first, size int, inter bool) (bw, lat float64) {
	sbw, slat := c.IntraBW, c.IntraLat
	if inter {
		sbw, slat = c.InterBW, c.InterLat
	}
	bw, lat = sbw, slat
	for d := first; d < first+size && len(c.Classes) > 0; d++ {
		mbw, mlat := sbw, slat
		if k := c.ClassOf(d); k != nil {
			kbw, klat := k.IntraBW, k.IntraLat
			if inter {
				kbw, klat = k.InterBW, k.InterLat
			}
			if kbw > 0 {
				mbw = kbw
			}
			if klat > 0 {
				mlat = klat
			}
		}
		if d == first || mbw < bw {
			bw = mbw
		}
		if d == first || mlat > lat {
			lat = mlat
		}
	}
	if f := c.Faults; f != nil {
		bs, ls := f.IntraBWScale, f.IntraLatScale
		if inter {
			bs, ls = f.InterBWScale, f.InterLatScale
		}
		if bs != 0 {
			bw *= clampScale(bs)
		}
		if ls != 0 {
			lat *= ls
		}
	}
	return bw, lat
}
