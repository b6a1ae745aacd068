package hardware

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// TestRestrictExactNonMultiples pins the "exactly n devices" contract
// on non-multiple device counts: Restrict(12) on DGX-1 used to round
// up to 2 full nodes (16 usable devices); the ragged last node makes
// it exactly 12.
func TestRestrictExactNonMultiples(t *testing.T) {
	for _, n := range []int{12, 20, 33} {
		c := DGX1V100((n + 7) / 8).Restrict(n)
		if got := c.TotalDevices(); got != n {
			t.Errorf("Restrict(%d).TotalDevices() = %d, want exactly %d", n, got, n)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("Restrict(%d).Validate() = %v", n, err)
		}
		wantNodes := (n + 7) / 8
		if c.Nodes != wantNodes || c.TailDevices != n%8 {
			t.Errorf("Restrict(%d) = %d nodes tail %d, want %d nodes tail %d",
				n, c.Nodes, c.TailDevices, wantNodes, n%8)
		}
		// The tail ranks still live on the last node.
		if got := c.NodeOf(n - 1); got != wantNodes-1 {
			t.Errorf("Restrict(%d).NodeOf(%d) = %d, want %d", n, n-1, got, wantNodes-1)
		}
	}
}

// TestRestrictRefitsFaults pins the Restrict/Degrade interaction:
// before the fix, Restrict copied the Faults pointer unchanged, so a
// spec derating device 12 survived a shrink to 8 devices and the copy
// failed Validate (fault device 12 out of range [0, 8)).
func TestRestrictRefitsFaults(t *testing.T) {
	base := DGX1V100(2)
	deg, err := base.Degrade(FaultSpec{
		Devices: []DeviceFault{
			{Device: 2, FLOPSScale: 0.5, MemScale: 1},
			{Device: 12, Dead: true},
		},
		InterBWScale: 0.5,
	})
	if err != nil {
		t.Fatalf("Degrade: %v", err)
	}
	small := deg.Restrict(8)
	if err := small.Validate(); err != nil {
		t.Fatalf("Restrict(8) after Degrade: Validate = %v (stale out-of-range fault survived)", err)
	}
	if got := small.TotalDevices(); got != 8 {
		t.Errorf("Restrict(8).TotalDevices() = %d, want 8 (dead device 12 no longer exists)", got)
	}
	// The in-range derate and the link derate must survive the refit.
	if got := small.DeviceFLOPSScale(2, FP16); got != 0.5 {
		t.Errorf("DeviceFLOPSScale(2) = %v, want 0.5 after refit", got)
	}
	if got, _ := small.RangeLink(0, 8, true); got != small.InterBW*0.5 {
		t.Errorf("inter-node bandwidth = %v, want link derate preserved", got)
	}
	if small.Faults == deg.Faults {
		t.Error("Restrict shared the old FaultSpec pointer instead of refitting a copy")
	}

	// A refit that leaves nothing behind yields a healthy cluster.
	base2 := DGX1V100(2)
	onlyFar, err := base2.Degrade(FaultSpec{
		Devices: []DeviceFault{{Device: 12, Dead: true}},
	})
	if err != nil {
		t.Fatalf("Degrade: %v", err)
	}
	if got := onlyFar.Restrict(8); got.Faults != nil {
		t.Errorf("Restrict(8) kept Faults = %+v, want nil (every entry out of range)", got.Faults)
	}
}

// TestValidateNamesOffendingDevice pins satellite 3: every derate path
// (dead, FLOPS, memory, link) must surface an error that names the
// offending physical device index or link scale, even when the spec is
// attached to a cluster and rejected via Cluster.Validate.
func TestValidateNamesOffendingDevice(t *testing.T) {
	base := DGX1V100(1)
	cases := []struct {
		name string
		spec FaultSpec
		want []string
	}{
		{"dead out of range", FaultSpec{Devices: []DeviceFault{{Device: 11, Dead: true}}},
			[]string{"device 11", "out of range [0, 8)"}},
		{"flops scale", FaultSpec{Devices: []DeviceFault{{Device: 3, FLOPSScale: -1, MemScale: 1}}},
			[]string{"device 3", "FLOPSScale"}},
		{"mem scale", FaultSpec{Devices: []DeviceFault{{Device: 5, FLOPSScale: 1, MemScale: 2}}},
			[]string{"device 5", "MemScale"}},
		{"intra bw", FaultSpec{IntraBWScale: 7}, []string{"IntraBWScale = 7"}},
		{"inter lat", FaultSpec{InterLatScale: 0.2}, []string{"InterLatScale = 0.2"}},
	}
	for _, tc := range cases {
		c := base
		spec := tc.spec
		c.Faults = &spec
		err := c.Validate()
		if err == nil {
			t.Errorf("%s: Validate() = nil, want error", tc.name)
			continue
		}
		// Cluster.Validate must add the cluster-shape context and keep
		// the device-naming detail of FaultSpec.Validate.
		if !strings.Contains(err.Error(), "invalid fault spec for 8-device cluster") {
			t.Errorf("%s: error %q lost the cluster context", tc.name, err)
		}
		for _, want := range tc.want {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not name %q", tc.name, err, want)
			}
		}
	}
}

func TestMixedConstructorEnvelope(t *testing.T) {
	c := A100V100(2, 2)
	if err := c.Validate(); err != nil {
		t.Fatalf("A100V100(2,2).Validate() = %v", err)
	}
	if got := c.TotalDevices(); got != 32 {
		t.Errorf("TotalDevices() = %d, want 32", got)
	}
	// Envelope scalars take the per-field max across classes.
	if c.FP16FLOPS != 312e12 || c.MemoryBytes != 80*(1<<30) || c.MaxUtil != 0.55 {
		t.Errorf("envelope = (%v FLOPS, %v B, util %v), want per-field max", c.FP16FLOPS, c.MemoryBytes, c.MaxUtil)
	}
	// A100 nodes first: device 0 is class 0, device 31 class 1.
	if c.ClassOf(0).Name != "a100" || c.ClassOf(31).Name != "v100" {
		t.Errorf("ClassOf = %q/%q, want a100/v100", c.ClassOf(0).Name, c.ClassOf(31).Name)
	}
}

func TestClassAwareAccessors(t *testing.T) {
	c := A100V100(1, 1) // devices 0-7 A100, 8-15 V100
	a, v := A100Class(), V100Class()
	ref16 := c.FP16FLOPS * c.MaxUtil

	wantA := a.FP16FLOPS * a.MaxUtil / ref16
	if got := c.DeviceFLOPSScale(0, FP16); got != wantA {
		t.Errorf("DeviceFLOPSScale(0, fp16) = %v, want %v", got, wantA)
	}
	wantV := v.FP16FLOPS * v.MaxUtil / ref16
	if got := c.DeviceFLOPSScale(8, FP16); got != wantV {
		t.Errorf("DeviceFLOPSScale(8, fp16) = %v, want %v", got, wantV)
	}
	if wantV >= wantA {
		t.Fatalf("test premise broken: V100 scale %v should be below A100 scale %v", wantV, wantA)
	}
	// A range spanning both classes runs at the slowest member's pace.
	if got := c.RangeFLOPSScale(0, 16, FP16); got != wantV {
		t.Errorf("RangeFLOPSScale(0,16) = %v, want slowest-class %v", got, wantV)
	}
	if got := c.RangeFLOPSScale(0, 8, FP16); got != wantA {
		t.Errorf("RangeFLOPSScale(0,8) = %v, want A100-only %v", got, wantA)
	}
	// Memory floors likewise.
	if got := c.RangeMemory(0, 8); got != a.MemoryBytes {
		t.Errorf("RangeMemory(0,8) = %v, want %v", got, a.MemoryBytes)
	}
	if got := c.RangeMemory(0, 16); got != v.MemoryBytes {
		t.Errorf("RangeMemory(0,16) = %v, want %v", got, v.MemoryBytes)
	}
	if got := c.MinDeviceMemory(); got != v.MemoryBytes {
		t.Errorf("MinDeviceMemory() = %v, want %v", got, v.MemoryBytes)
	}
	// Precision matters: fp32 scales differ from fp16 scales.
	want32 := v.FP32FLOPS * v.MaxUtil / (c.FP32FLOPS * c.MaxUtil)
	if got := c.DeviceFLOPSScale(8, FP32); got != want32 {
		t.Errorf("DeviceFLOPSScale(8, fp32) = %v, want %v", got, want32)
	}
}

func TestClassAndFaultDeratesCompose(t *testing.T) {
	mixed := A100V100(1, 1)
	deg, err := mixed.Degrade(FaultSpec{
		Devices: []DeviceFault{{Device: 8, FLOPSScale: 0.5, MemScale: 0.5}},
	})
	if err != nil {
		t.Fatalf("Degrade: %v", err)
	}
	v := V100Class()
	wantF := (v.FP16FLOPS * v.MaxUtil / (deg.FP16FLOPS * deg.MaxUtil)) * 0.5
	if got := deg.DeviceFLOPSScale(8, FP16); got != wantF {
		t.Errorf("class×fault FLOPS scale = %v, want %v", got, wantF)
	}
	if got := deg.DeviceMemory(8); got != v.MemoryBytes*0.5 {
		t.Errorf("class×fault memory = %v, want %v", got, v.MemoryBytes*0.5)
	}
	// The healthy A100 half is untouched.
	if got := deg.DeviceFLOPSScale(0, FP16); got != A100Class().FP16FLOPS*A100Class().MaxUtil/(deg.FP16FLOPS*deg.MaxUtil) {
		t.Errorf("healthy A100 scale = %v disturbed by the V100 fault", got)
	}
}

func TestValidateRejectsBadClassLayouts(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Cluster)
		want string
	}{
		{"nodeclass without classes", func(c *Cluster) { c.Classes = nil }, "without device classes"},
		{"nodeclass length", func(c *Cluster) { c.NodeClass = []int{0} }, "NodeClass has 1 entries for 2 nodes"},
		{"class index out of range", func(c *Cluster) { c.NodeClass = []int{0, 5} }, "node 1 has class 5"},
		{"zero flops", func(c *Cluster) { c.Classes[1].FP16FLOPS = 0 }, "non-positive or non-finite FLOPS"},
		{"bad util", func(c *Cluster) { c.Classes[0].MaxUtil = 2 }, "MaxUtil"},
		{"exceeds envelope", func(c *Cluster) { c.Classes[0].FP16FLOPS = 1e15 }, "exceeds the cluster throughput envelope"},
		{"exceeds memory envelope", func(c *Cluster) { c.Classes[1].MemoryBytes = 2 * c.MemoryBytes }, "exceeds the cluster envelope"},
		{"bad tail", func(c *Cluster) { c.TailDevices = 8 }, "TailDevices"},
	}
	for _, tc := range cases {
		c := A100V100(1, 1)
		tc.mut(&c)
		err := c.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestRestrictPreservesClassLayout: shrinking a mixed cluster keeps
// the surviving nodes' classes; growing repeats the last class.
func TestRestrictPreservesClassLayout(t *testing.T) {
	c := A100V100(1, 1)
	small := c.Restrict(8)
	if err := small.Validate(); err != nil {
		t.Fatalf("Restrict(8): %v", err)
	}
	if small.ClassOf(7).Name != "a100" {
		t.Errorf("Restrict(8) lost the A100 node class")
	}
	ragged := c.Restrict(12)
	if err := ragged.Validate(); err != nil {
		t.Fatalf("Restrict(12): %v", err)
	}
	if ragged.TotalDevices() != 12 || ragged.ClassOf(11).Name != "v100" {
		t.Errorf("Restrict(12) = %d devices, tail class %q; want 12 devices on a v100 tail",
			ragged.TotalDevices(), ragged.ClassOf(11).Name)
	}
	grown := c.Restrict(24)
	if err := grown.Validate(); err != nil {
		t.Fatalf("Restrict(24): %v", err)
	}
	if grown.ClassOf(23).Name != "v100" {
		t.Errorf("Restrict(24) should repeat the last class for grown nodes, got %q", grown.ClassOf(23).Name)
	}
}

func TestGroupLinkDefaults(t *testing.T) {
	// Homogeneous cluster: the class table is empty and a device's link
	// is the scalar.
	h := DGX1V100(2)
	if got, _ := h.RangeLink(3, 1, false); got != h.IntraBW {
		t.Errorf("intra-node bandwidth = %v, want scalar %v", got, h.IntraBW)
	}
	c := A100V100(1, 1)
	if got, _ := c.RangeLink(0, 1, false); got != 300e9 {
		t.Errorf("A100 intra-node bandwidth = %v, want 300e9", got)
	}
	if got, _ := c.RangeLink(8, 1, false); got != 130e9 {
		t.Errorf("V100 intra-node bandwidth = %v, want 130e9", got)
	}
}

// TestRangeLink pins RangeLink's bits: the slowest member's class link
// (or the scalar where its class sets none), times the fabric derates
// that are set.
func TestRangeLink(t *testing.T) {
	degrade := func(c Cluster, f FaultSpec) Cluster {
		d, err := c.Degrade(f)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	// A V100 class without link overrides inherits the scalars.
	bare := V100Class()
	bare.IntraBW, bare.IntraLat = 0, 0
	inherit := Mixed(8, []int{0, 1}, A100Class(), bare)
	inherit.IntraBW, inherit.IntraLat = 200e9, 6e-6
	// Scalars below every class override, which Validate allows: the
	// extremes must start from the first member, not the scalar.
	above := A100V100(1, 1)
	above.IntraBW, above.IntraLat, above.InterBW = 100e9, 1e-6, 10e9
	for _, c := range []Cluster{inherit, above} {
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name            string
		c               Cluster
		first, size     int
		inter           bool
		wantBW, wantLat float64
	}{
		{"healthy intra", DGX1V100(2), 0, 8, false, 130e9, 5e-6},
		{"healthy inter", DGX1V100(2), 0, 16, true, 12.5e9, 20e-6},
		{"derated inter", degrade(DGX1V100(2), FaultSpec{InterBWScale: 0.5, InterLatScale: 4}), 0, 16, true, 6.25e9, 80e-6},
		{"unset scale unchanged", degrade(DGX1V100(2), FaultSpec{InterBWScale: 0.5, InterLatScale: 4}), 0, 8, false, 130e9, 5e-6},
		{"derated intra", degrade(DGX1V100(2), FaultSpec{IntraBWScale: 0.25, IntraLatScale: 2}), 8, 8, false, 32.5e9, 10e-6},
		{"a100 node", A100V100(1, 1), 0, 8, false, 300e9, 4e-6},
		{"v100 node", A100V100(1, 1), 8, 8, false, 130e9, 5e-6},
		{"across classes intra", A100V100(1, 1), 4, 8, false, 130e9, 5e-6},
		{"across classes inter", A100V100(1, 1), 0, 16, true, 12.5e9, 20e-6},
		{"derated classes", degrade(A100V100(1, 1), FaultSpec{InterBWScale: 0.5}), 4, 8, true, 6.25e9, 20e-6},
		{"inherited scalar", inherit, 8, 8, false, 200e9, 6e-6},
		{"inherited scalar across", inherit, 0, 16, false, 200e9, 6e-6},
		{"override above scalar", above, 0, 16, false, 130e9, 5e-6},
		{"override above scalar, one class", above, 0, 8, true, 12.5e9, 20e-6},
	} {
		bw, lat := tc.c.RangeLink(tc.first, tc.size, tc.inter)
		if bw != tc.wantBW || lat != tc.wantLat {
			t.Errorf("%s: RangeLink(%d, %d, %v) = (%v, %v), want (%v, %v)",
				tc.name, tc.first, tc.size, tc.inter, bw, lat, tc.wantBW, tc.wantLat)
		}
	}
}

// TestRangeLinkIsSlowestMember: on random mixed fleets with random
// link overrides, fabric derates and dead devices, a range's link is
// the minimum bandwidth and maximum latency of its members' one-device
// links, bit for bit.
func TestRangeLinkIsSlowestMember(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	override := func(max float64) float64 {
		if rng.Intn(3) == 0 {
			return 0 // inherit the scalar
		}
		return max * (0.1 + rng.Float64())
	}
	scale := func(lo, hi float64) float64 {
		if rng.Intn(2) == 0 {
			return 0 // unchanged
		}
		return lo + (hi-lo)*rng.Float64()
	}
	for trial := 0; trial < 300; trial++ {
		classes := make([]DeviceClass, 1+rng.Intn(3))
		for i := range classes {
			classes[i] = V100Class()
			classes[i].IntraBW, classes[i].InterBW = override(300e9), override(25e9)
			classes[i].IntraLat, classes[i].InterLat = override(5e-6), override(20e-6)
		}
		nodeClass := make([]int, 1+rng.Intn(5))
		for i := range nodeClass {
			nodeClass[i] = rng.Intn(len(classes))
		}
		c := Mixed(1+rng.Intn(8), nodeClass, classes...)
		// Scalars drawn from the overrides' range, so some overrides
		// exceed them.
		c.IntraBW, c.InterBW = 300e9*(0.1+rng.Float64()), 25e9*(0.1+rng.Float64())
		c.IntraLat, c.InterLat = 5e-6*(0.1+rng.Float64()), 20e-6*(0.1+rng.Float64())
		f := FaultSpec{
			IntraBWScale: scale(0.01, 1), InterBWScale: scale(0.01, 1),
			IntraLatScale: scale(1, 10), InterLatScale: scale(1, 10),
		}
		for d := 0; d < c.physTotal()-1; d++ {
			if rng.Intn(6) == 0 {
				f.Devices = append(f.Devices, DeviceFault{Device: d, Dead: true})
			}
		}
		c, err := c.Degrade(f)
		if err != nil {
			t.Fatal(err)
		}
		n := c.TotalDevices()
		first := rng.Intn(n)
		size := 1 + rng.Intn(n-first)
		for _, inter := range []bool{false, true} {
			wantBW, wantLat := c.RangeLink(first, 1, inter)
			for d := first + 1; d < first+size; d++ {
				bw, lat := c.RangeLink(d, 1, inter)
				wantBW, wantLat = math.Min(wantBW, bw), math.Max(wantLat, lat)
			}
			if bw, lat := c.RangeLink(first, size, inter); bw != wantBW || lat != wantLat {
				t.Fatalf("trial %d: RangeLink(%d, %d, %v) = (%v, %v), want the members' (%v, %v)",
					trial, first, size, inter, bw, lat, wantBW, wantLat)
			}
		}
	}
}
