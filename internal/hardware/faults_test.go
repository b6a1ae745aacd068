package hardware

import (
	"math"
	"strings"
	"testing"
)

func TestFaultSpecValidateRejectsBadSpecs(t *testing.T) {
	cl := DGX1V100(1)
	cases := []struct {
		name string
		spec FaultSpec
		want string
	}{
		{"out of range", FaultSpec{Devices: []DeviceFault{{Device: 8, FLOPSScale: 1, MemScale: 1}}}, "out of range"},
		{"negative rank", FaultSpec{Devices: []DeviceFault{{Device: -1, Dead: true}}}, "out of range"},
		{"duplicate", FaultSpec{Devices: []DeviceFault{
			{Device: 2, FLOPSScale: 0.5, MemScale: 1},
			{Device: 2, Dead: true},
		}}, "duplicate"},
		{"zero flops scale", FaultSpec{Devices: []DeviceFault{{Device: 0, FLOPSScale: 0, MemScale: 1}}}, "FLOPSScale"},
		{"nan flops scale", FaultSpec{Devices: []DeviceFault{{Device: 0, FLOPSScale: math.NaN(), MemScale: 1}}}, "FLOPSScale"},
		{"over-unity mem scale", FaultSpec{Devices: []DeviceFault{{Device: 0, FLOPSScale: 1, MemScale: 1.5}}}, "MemScale"},
		{"negative bw scale", FaultSpec{InterBWScale: -0.5}, "InterBWScale"},
		{"inf bw scale", FaultSpec{IntraBWScale: math.Inf(1)}, "IntraBWScale"},
		{"sub-unity lat scale", FaultSpec{InterLatScale: 0.5}, "InterLatScale"},
		{"nan lat scale", FaultSpec{IntraLatScale: math.NaN()}, "IntraLatScale"},
	}
	for _, tc := range cases {
		err := tc.spec.Validate(cl)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want error containing %q", tc.name, err, tc.want)
		}
	}
	allDead := FaultSpec{}
	for d := 0; d < 8; d++ {
		allDead.Devices = append(allDead.Devices, DeviceFault{Device: d, Dead: true})
	}
	if err := allDead.Validate(cl); err == nil {
		t.Error("Validate accepted a spec that kills every device")
	}
}

func TestDegradeRemovesDeadDevices(t *testing.T) {
	cl := DGX1V100(2) // 16 devices
	deg, err := cl.Degrade(FaultSpec{Devices: []DeviceFault{
		{Device: 3, Dead: true},
		{Device: 10, Dead: true},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got := deg.TotalDevices(); got != 14 {
		t.Fatalf("TotalDevices = %d, want 14", got)
	}
	// Logical ranks skip the dead physical ranks.
	wantPhys := map[int]int{0: 0, 2: 2, 3: 4, 8: 9, 9: 11, 13: 15}
	for logical, phys := range wantPhys {
		if got := deg.PhysOf(logical); got != phys {
			t.Errorf("PhysOf(%d) = %d, want %d", logical, got, phys)
		}
	}
	// Logical rank 9 lands on physical 11 → node 1.
	if got := deg.NodeOf(9); got != 1 {
		t.Errorf("NodeOf(9) = %d, want 1", got)
	}
	// The healthy original is untouched.
	if cl.TotalDevices() != 16 || cl.Faults != nil {
		t.Error("Degrade mutated the receiver")
	}
}

func TestDegradeIsSingleShot(t *testing.T) {
	cl := DGX1V100(1)
	deg, err := cl.Degrade(FaultSpec{Devices: []DeviceFault{{Device: 0, FLOPSScale: 0.5, MemScale: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := deg.Degrade(FaultSpec{}); err == nil {
		t.Error("Degrade of an already-degraded cluster should fail")
	}
}

func TestRangeScalesUseSlowestMember(t *testing.T) {
	cl := DGX1V100(1)
	deg, err := cl.Degrade(FaultSpec{Devices: []DeviceFault{
		{Device: 2, FLOPSScale: 0.25, MemScale: 0.5},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got := deg.RangeFLOPSScale(0, 2, FP16); got != 1 {
		t.Errorf("RangeFLOPSScale(0,2) = %v, want 1 (straggler outside range)", got)
	}
	if got := deg.RangeFLOPSScale(0, 4, FP16); got != 0.25 {
		t.Errorf("RangeFLOPSScale(0,4) = %v, want 0.25", got)
	}
	if got := deg.RangeMemory(2, 1); got != 0.5*cl.MemoryBytes {
		t.Errorf("RangeMemory(2,1) = %v, want half capacity", got)
	}
	if got := deg.RangeMemory(4, 4); got != cl.MemoryBytes {
		t.Errorf("RangeMemory(4,4) = %v, want full capacity", got)
	}
	if got := deg.MinDeviceMemory(); got != 0.5*cl.MemoryBytes {
		t.Errorf("MinDeviceMemory = %v, want half capacity", got)
	}
}

func TestLinkDerates(t *testing.T) {
	cl := DGX1V100(2)
	deg, err := cl.Degrade(FaultSpec{
		InterBWScale:  0.5,
		InterLatScale: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	bw, lat := deg.RangeLink(0, 16, true)
	if bw != 0.5*cl.InterBW {
		t.Errorf("inter-node bandwidth = %v, want %v", bw, 0.5*cl.InterBW)
	}
	if lat != 4*cl.InterLat {
		t.Errorf("inter-node latency = %v, want %v", lat, 4*cl.InterLat)
	}
	// Unset scales (0) leave the intra-node link unchanged.
	if bw, lat := deg.RangeLink(0, 8, false); bw != cl.IntraBW || lat != cl.IntraLat {
		t.Error("unset link scales must mean unchanged")
	}
}

func TestDegradedClusterValidates(t *testing.T) {
	cl := DGX1V100(1)
	deg, err := cl.Degrade(FaultSpec{Devices: []DeviceFault{
		{Device: 1, Dead: true},
		{Device: 5, FLOPSScale: 0.3, MemScale: 0.9},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := deg.Validate(); err != nil {
		t.Errorf("degraded cluster failed Validate: %v", err)
	}
}

func TestClusterValidateRejectsNonFinite(t *testing.T) {
	for _, mutate := range []func(*Cluster){
		func(c *Cluster) { c.FP16FLOPS = math.NaN() },
		func(c *Cluster) { c.MemoryBytes = math.Inf(1) },
		func(c *Cluster) { c.InterBW = math.NaN() },
		func(c *Cluster) { c.IntraLat = math.Inf(-1) },
		func(c *Cluster) { c.MaxUtil = math.NaN() },
	} {
		c := DGX1V100(1)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("Validate accepted non-finite cluster %+v", c)
		}
	}
}
