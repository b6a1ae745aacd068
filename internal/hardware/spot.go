// Spot/preemptible capacity: real fleets mix reserved devices that
// stay up with spot devices that are cheap but can be reclaimed at any
// time, usually with a short advance notice (30–120 s on the major
// clouds). The planner prices that risk — a plan's *expected* iteration
// time folds in the rework a preemption forces (perfmodel.Rework) — and
// the elastic supervisor turns the notice into a proactive drain
// (elastic.PreemptNotice).
//
// Representation follows the class/derate discipline of classes.go:
// capacity is a property of a DeviceClass, so a homogeneous cluster
// (len(Classes) == 0) is hazard-free by construction: its ranges sum
// to +0, and the search switches to the risk-aware objective only when
// HasSpot reports a live hazard.
package hardware

import "fmt"

// Capacity classifies a device class's provisioning tier.
type Capacity int

const (
	// Reserved devices are owned for the duration of the job; they
	// carry no preemption hazard. The zero value, so every class built
	// before spot capacity existed is Reserved.
	Reserved Capacity = iota
	// Spot devices can be reclaimed by the provider: HazardRate gives
	// the expected preemption rate, NoticeSeconds the advance warning.
	Spot

	numCapacities
)

// String implements fmt.Stringer.
func (c Capacity) String() string {
	switch c {
	case Reserved:
		return "reserved"
	case Spot:
		return "spot"
	}
	return fmt.Sprintf("capacity-%d", int(c))
}

// AsSpot returns a copy of d marked as spot capacity with the given
// Poisson preemption rate (expected preemptions per hour per device)
// and advance reclaim notice.
func AsSpot(d DeviceClass, hazardPerHour, noticeSeconds float64) DeviceClass {
	d.Capacity = Spot
	d.HazardRate = hazardPerHour
	d.NoticeSeconds = noticeSeconds
	return d
}

// ReservedSpotV100 builds the canonical mixed-capacity fleet:
// reservedNodes V100 nodes followed by spotNodes spot V100 nodes,
// devicesPerNode devices each. Both classes share the V100 envelope, so
// the fleet is capability-uniform and only the preemption hazard
// differs — the shape that isolates risk-aware planning effects.
// Reserved nodes come first: low device ranks are the safe ones.
func ReservedSpotV100(devicesPerNode, reservedNodes, spotNodes int, hazardPerHour, noticeSeconds float64) Cluster {
	nodeClass := make([]int, reservedNodes+spotNodes)
	for i := reservedNodes; i < len(nodeClass); i++ {
		nodeClass[i] = 1
	}
	return Mixed(devicesPerNode, nodeClass,
		V100Class(), AsSpot(V100Class(), hazardPerHour, noticeSeconds))
}

// DeviceHazard returns the preemption hazard rate (expected
// preemptions per hour) of a logical rank: the class rate for spot
// devices, 0 for reserved devices and homogeneous clusters.
func (c *Cluster) DeviceHazard(logical int) float64 {
	if d := c.ClassOf(logical); d != nil && d.Capacity == Spot {
		return d.HazardRate
	}
	return 0
}

// RangeHazard returns the summed preemption hazard rate (expected
// preemptions per hour) over the contiguous logical device range
// [first, first+size). Poisson hazards compose by addition: losing
// *any* device of a group stalls the group, so the group's reclaim
// rate is the sum of its members'.
func (c *Cluster) RangeHazard(first, size int) float64 {
	var sum float64
	for d := first; d < first+size; d++ {
		sum += c.DeviceHazard(d)
	}
	return sum
}

// HasSpot reports whether any class carries a live preemption hazard —
// the gate the search uses to switch to the risk-aware objective.
func (c *Cluster) HasSpot() bool {
	for i := range c.Classes {
		if c.Classes[i].Capacity == Spot && c.Classes[i].HazardRate > 0 {
			return true
		}
	}
	return false
}

// StripHazard returns a copy of the cluster with every class's
// preemption hazard and notice zeroed (capacities become Reserved) —
// the risk-blind twin used by benchmarks to measure what ignoring the
// hazard costs.
func (c Cluster) StripHazard() Cluster {
	classes := append([]DeviceClass(nil), c.Classes...)
	for i := range classes {
		classes[i].Capacity = Reserved
		classes[i].HazardRate = 0
		classes[i].NoticeSeconds = 0
	}
	c.Classes = classes
	return c
}

// validateSpot checks one class's capacity fields; part of
// validateClasses.
func validateSpot(i int, d *DeviceClass) error {
	switch {
	case d.Capacity < 0 || d.Capacity >= numCapacities:
		return fmt.Errorf("hardware: class %d (%s): unknown capacity %d", i, d.Name, int(d.Capacity))
	case !finite(d.HazardRate) || d.HazardRate < 0:
		return fmt.Errorf("hardware: class %d (%s): negative or non-finite HazardRate %v", i, d.Name, d.HazardRate)
	case !finite(d.NoticeSeconds) || d.NoticeSeconds < 0:
		return fmt.Errorf("hardware: class %d (%s): negative or non-finite NoticeSeconds %v", i, d.Name, d.NoticeSeconds)
	case d.Capacity == Reserved && (d.HazardRate != 0 || d.NoticeSeconds != 0):
		return fmt.Errorf("hardware: class %d (%s): reserved capacity with a preemption hazard (hazard %v, notice %vs) — mark it Spot",
			i, d.Name, d.HazardRate, d.NoticeSeconds)
	}
	return nil
}
