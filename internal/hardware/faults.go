// Degraded-cluster modeling: a FaultSpec describes how a cluster
// deviates from its healthy parametric description — dead devices,
// derated device throughput or memory (stragglers, thermal throttling,
// partially-failed HBM), and derated or cut links. The search consumes
// a degraded cluster exactly like a healthy one, which is what lets it
// plan *around* faults instead of crashing into them (TensorOpt's
// resource-availability framing; PipeDream's placement brittleness
// under heterogeneous devices).
//
// Contract: a FaultSpec is applied with Cluster.Degrade, which
// validates the spec, removes dead devices from the device count and
// attaches a normalized, read-only copy to the returned Cluster. All
// per-device accessors (RangeFLOPSScale, RangeMemory, NodeOf, …) take
// *logical* ranks — survivors renumbered contiguously — and map to the
// physical grid internally. Prefer Degrade after Restrict; Restrict
// after Degrade is also safe — it refits the spec to the new shape,
// dropping entries whose physical rank no longer exists.
package hardware

import (
	"fmt"
	"math"
	"sort"
)

// DeviceFault derates or removes one device of the healthy cluster.
type DeviceFault struct {
	// Device is the global device rank in the healthy (pre-Degrade)
	// numbering.
	Device int
	// Dead removes the device entirely; the scales are ignored.
	Dead bool
	// FLOPSScale in (0, 1] derates the device's peak throughput
	// (1 = healthy). Synchronous SPMD groups run at the pace of their
	// slowest member, so a derate drags down every device that shares a
	// stage with this one.
	FLOPSScale float64
	// MemScale in (0, 1] derates the device's usable memory.
	MemScale float64
}

// FaultSpec describes degraded hardware. The zero value is a healthy
// cluster. Link scales of 0 mean "unchanged"; bandwidth scales must
// otherwise lie in (0, 1] and latency scales must be ≥ 1.
type FaultSpec struct {
	Devices []DeviceFault

	// Cluster-wide link derates (a flaky NIC, a congested or
	// partially-cut fabric).
	IntraBWScale  float64
	InterBWScale  float64
	IntraLatScale float64
	InterLatScale float64

	// dead holds the sorted physical ranks removed by Degrade.
	dead []int
	// derated maps surviving physical rank → its fault entry.
	derated map[int]DeviceFault
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// scaleOK reports whether v is a valid (0, 1] derating scale.
func scaleOK(v float64) bool { return finite(v) && v > 0 && v <= 1 }

// latScaleOK reports whether v is a valid latency scale (0 = unchanged,
// else ≥ 1: faults never make links faster).
func latScaleOK(v float64) bool { return v == 0 || (finite(v) && v >= 1) }

// bwScaleOK reports whether v is a valid bandwidth scale (0 = unchanged).
func bwScaleOK(v float64) bool { return v == 0 || scaleOK(v) }

// Validate checks the spec against the healthy cluster c. Every error
// names the offending physical device index (or the specific link
// scale), so a spec rejected deep inside Cluster.Validate still points
// at the bad entry.
func (f *FaultSpec) Validate(c Cluster) error {
	total := c.physTotal()
	seen := make(map[int]bool, len(f.Devices))
	deadCount := 0
	for i := range f.Devices {
		d := &f.Devices[i]
		if d.Device < 0 || d.Device >= total {
			return fmt.Errorf("hardware: fault device %d out of range [0, %d)", d.Device, total)
		}
		if seen[d.Device] {
			return fmt.Errorf("hardware: duplicate fault for device %d", d.Device)
		}
		seen[d.Device] = true
		if d.Dead {
			deadCount++
			continue
		}
		if !scaleOK(d.FLOPSScale) {
			return fmt.Errorf("hardware: device %d FLOPSScale = %v, want (0, 1]", d.Device, d.FLOPSScale)
		}
		if !scaleOK(d.MemScale) {
			return fmt.Errorf("hardware: device %d MemScale = %v, want (0, 1]", d.Device, d.MemScale)
		}
	}
	if deadCount >= total {
		return fmt.Errorf("hardware: all %d devices dead", total)
	}
	if !bwScaleOK(f.IntraBWScale) {
		return fmt.Errorf("hardware: IntraBWScale = %v, want 0 (unchanged) or (0, 1]", f.IntraBWScale)
	}
	if !bwScaleOK(f.InterBWScale) {
		return fmt.Errorf("hardware: InterBWScale = %v, want 0 (unchanged) or (0, 1]", f.InterBWScale)
	}
	if !latScaleOK(f.IntraLatScale) {
		return fmt.Errorf("hardware: IntraLatScale = %v, want 0 (unchanged) or ≥ 1", f.IntraLatScale)
	}
	if !latScaleOK(f.InterLatScale) {
		return fmt.Errorf("hardware: InterLatScale = %v, want 0 (unchanged) or ≥ 1", f.InterLatScale)
	}
	return nil
}

// normalized returns a copy of the spec holding the device entries
// whose physical rank is below total, with the private indexes the
// accessors read (sorted dead ranks, derated entries by rank) built
// for that grid — never the receiver's, so a reshaped cluster cannot
// inherit indexes built for another.
func (f *FaultSpec) normalized(total int) FaultSpec {
	norm := FaultSpec{
		IntraBWScale:  f.IntraBWScale,
		InterBWScale:  f.InterBWScale,
		IntraLatScale: f.IntraLatScale,
		InterLatScale: f.InterLatScale,
		derated:       make(map[int]DeviceFault),
	}
	for _, d := range f.Devices {
		if d.Device < 0 || d.Device >= total {
			continue
		}
		norm.Devices = append(norm.Devices, d)
		if d.Dead {
			norm.dead = append(norm.dead, d.Device)
		} else if d.FLOPSScale < 1 || d.MemScale < 1 {
			norm.derated[d.Device] = d
		}
	}
	sort.Ints(norm.dead)
	return norm
}

// refitFaults rebuilds a normalized fault spec for a cluster reshaped
// to total physical devices: entries for ranks ≥ total are dropped
// (those devices no longer exist), in-range entries and link derates
// are kept. Returns nil when nothing survives.
func refitFaults(f *FaultSpec, total int) *FaultSpec {
	if f == nil {
		return nil
	}
	norm := f.normalized(total)
	if len(norm.Devices) == 0 && norm.IntraBWScale == 0 && norm.InterBWScale == 0 &&
		norm.IntraLatScale == 0 && norm.InterLatScale == 0 {
		return nil
	}
	return &norm
}

// Degrade applies a fault spec to the cluster: dead devices are removed
// from the logical device count, deratings and link scales attach to
// the returned copy. The input cluster must be healthy (not already
// degraded) and the spec must validate against it.
func (c *Cluster) Degrade(f FaultSpec) (Cluster, error) {
	if c.Faults != nil {
		return *c, fmt.Errorf("hardware: cluster already degraded")
	}
	if err := c.Validate(); err != nil {
		return *c, err
	}
	if err := f.Validate(*c); err != nil {
		return *c, err
	}
	norm := f.normalized(c.physTotal()) // Validate kept every entry in range
	out := *c
	out.Faults = &norm
	return out, nil
}

// DeadDevices returns how many devices the fault spec removed.
func (c *Cluster) DeadDevices() int {
	if c.Faults == nil {
		return 0
	}
	return len(c.Faults.dead)
}

// PhysOf maps a logical device rank (survivors renumbered
// contiguously) to its physical rank on the healthy grid.
func (c *Cluster) PhysOf(logical int) int {
	if c.Faults == nil || len(c.Faults.dead) == 0 {
		return logical
	}
	phys := logical
	for _, d := range c.Faults.dead {
		if d <= phys {
			phys++
		}
	}
	return phys
}

// deviceFault returns the fault entry for a logical rank, or nil.
func (c *Cluster) deviceFault(logical int) *DeviceFault {
	if c.Faults == nil || len(c.Faults.derated) == 0 {
		return nil
	}
	if d, ok := c.Faults.derated[c.PhysOf(logical)]; ok {
		return &d
	}
	return nil
}

// clampScale guards hand-constructed fault entries that bypassed
// Validate: a non-positive or non-finite scale would turn derated
// times into Inf/NaN and poison every score downstream.
func clampScale(v float64) float64 {
	if !finite(v) || v <= 0 {
		return 1e-6
	}
	if v > 1 {
		return 1
	}
	return v
}

// DeviceFLOPSScale returns the throughput derate of one logical rank
// relative to the scalar envelope at precision p (1 = healthy,
// best-class). Class derates (a V100 in an A100-envelope cluster) and
// fault derates (a throttled device) compose by multiplication: a
// throttled slow device is slower than either effect alone.
func (c *Cluster) DeviceFLOPSScale(logical int, p Precision) float64 {
	s := 1.0
	if k := c.ClassOf(logical); k != nil {
		// Effective throughput is peak × utilization: two classes with
		// equal peaks but different ceilings still run at different speeds.
		if ref := c.PeakFLOPS(p) * c.MaxUtil; ref > 0 {
			s = clampScale(k.PeakFLOPS(p) * k.MaxUtil / ref)
		}
	}
	if d := c.deviceFault(logical); d != nil {
		s *= clampScale(d.FLOPSScale)
	}
	return s
}

// DeviceMemory returns the usable memory of one logical rank: its
// class capacity derated by any memory fault.
func (c *Cluster) DeviceMemory(logical int) float64 {
	mem := c.MemoryBytes
	if k := c.ClassOf(logical); k != nil {
		mem = k.MemoryBytes
	}
	if d := c.deviceFault(logical); d != nil {
		mem *= clampScale(d.MemScale)
	}
	return mem
}

// RangeFLOPSScale returns the minimum throughput derate over the
// logical range [first, first+size) at precision p: a synchronous
// group runs at its slowest member's pace, whether that member is slow
// by class or by fault.
func (c *Cluster) RangeFLOPSScale(first, size int, p Precision) float64 {
	if (c.Faults == nil || len(c.Faults.derated) == 0) && len(c.Classes) == 0 {
		return 1
	}
	min := 1.0
	for d := first; d < first+size; d++ {
		if s := c.DeviceFLOPSScale(d, p); s < min {
			min = s
		}
	}
	return min
}

// RangeMemory returns the minimum usable memory over the logical range
// [first, first+size): symmetric stages are sized for their most
// constrained device, by class capacity and fault derate alike.
func (c *Cluster) RangeMemory(first, size int) float64 {
	if (c.Faults == nil || len(c.Faults.derated) == 0) && len(c.Classes) == 0 {
		return c.MemoryBytes
	}
	min := math.Inf(1)
	for d := first; d < first+size; d++ {
		if m := c.DeviceMemory(d); m < min {
			min = m
		}
	}
	if !finite(min) {
		return c.MemoryBytes
	}
	return min
}

// MinDeviceMemory returns the smallest usable per-device memory in the
// cluster (the normalizer for infeasibility penalties).
func (c *Cluster) MinDeviceMemory() float64 {
	return c.RangeMemory(0, c.TotalDevices())
}
