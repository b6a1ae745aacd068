package planserver

import (
	"encoding/json"
	"net/http"
	"testing"

	"aceso/internal/hardware"
)

// classSpecOf projects a hardware class onto the wire form.
func classSpecOf(d hardware.DeviceClass) DeviceClassSpec {
	return DeviceClassSpec{
		Name:        d.Name,
		FP16FLOPS:   d.FP16FLOPS,
		FP32FLOPS:   d.FP32FLOPS,
		MaxUtil:     d.MaxUtil,
		MemoryBytes: d.MemoryBytes,
		IntraBW:     d.IntraBW,
		InterBW:     d.InterBW,
		IntraLat:    d.IntraLat,
		InterLat:    d.InterLat,
	}
}

func TestClusterSpecBuildSpotCapacity(t *testing.T) {
	reserved := classSpecOf(hardware.V100Class())
	spot := classSpecOf(hardware.V100Class())
	spot.Name = "v100-spot"
	spot.Capacity = "spot"
	spot.HazardPerHour = 0.5
	spot.NoticeSeconds = 30

	spec := ClusterSpec{
		Nodes:       2,
		Classes:     []DeviceClassSpec{reserved, spot},
		NodeClasses: []int{0, 1},
	}
	cl, faults, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if faults != nil {
		t.Fatalf("unexpected fault spec: %+v", faults)
	}
	if !cl.HasSpot() {
		t.Fatal("built cluster does not report spot capacity")
	}
	// Node 0 is reserved, node 1 spot: per-device hazards must follow.
	if h := cl.DeviceHazard(0); h != 0 {
		t.Fatalf("reserved device hazard %v, want 0", h)
	}
	if h := cl.DeviceHazard(cl.DevicesPerNode); h != 0.5 {
		t.Fatalf("spot device hazard %v, want 0.5", h)
	}
	sc := cl.ClassOf(cl.DevicesPerNode)
	if sc == nil || sc.Capacity != hardware.Spot || sc.NoticeSeconds != 30 {
		t.Fatalf("ClassOf(spot device) = %+v, want spot with notice 30s", sc)
	}
	if rc := cl.ClassOf(0); rc == nil || rc.Capacity == hardware.Spot {
		t.Fatalf("ClassOf(reserved device) = %+v, want reserved", rc)
	}

	// Unknown capacity strings are a 4xx-shaped typed error, not a
	// silent default.
	bad := spec
	bad.Classes = append([]DeviceClassSpec(nil), spec.Classes...)
	bad.Classes[1].Capacity = "preemptible"
	if _, _, err := bad.Build(); err == nil {
		t.Fatal("capacity \"preemptible\" accepted, want error")
	}

	// A reserved class with a hazard rate is rejected by validation.
	conflicted := spec
	conflicted.Classes = append([]DeviceClassSpec(nil), spec.Classes...)
	conflicted.Classes[0].HazardPerHour = 1 // ignored: capacity is reserved
	if cl2, _, err := conflicted.Build(); err != nil {
		t.Fatalf("hazard on a reserved wire class must be ignored, got %v", err)
	} else if cl2.DeviceHazard(0) != 0 {
		t.Fatal("reserved class silently picked up a hazard rate")
	}
}

// TestPlanSpotClusterRecommendsCadence: planning against a spot fleet
// returns a risk-aware plan carrying a checkpoint cadence, and the
// hazard is part of the cache identity — stripping it is a different
// key.
func TestPlanSpotClusterRecommendsCadence(t *testing.T) {
	_, ts := testServer(t, Config{})

	spot := classSpecOf(hardware.V100Class())
	spot.Capacity = "spot"
	spot.HazardPerHour = 2
	spot.NoticeSeconds = 120

	pr := tinyRequest()
	pr.Cluster.Classes = []DeviceClassSpec{spot}
	pr.Cluster.NodeClasses = []int{0}

	resp, out := postPlan(t, ts.URL, pr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("spot plan request: status %d", resp.StatusCode)
	}
	var plan Plan
	if err := json.Unmarshal(out.Plan, &plan); err != nil {
		t.Fatalf("plan decode: %v", err)
	}
	if !plan.Feasible || plan.Config == nil {
		t.Fatalf("implausible spot plan: %+v", plan)
	}
	if plan.RecommendedCadence <= 0 {
		t.Fatalf("recommended cadence %d on a hazardous cluster, want > 0", plan.RecommendedCadence)
	}

	// Same fleet, hazard-free: different cache key, no cadence.
	flat := tinyRequest()
	flatClass := classSpecOf(hardware.V100Class())
	flat.Cluster.Classes = []DeviceClassSpec{flatClass}
	flat.Cluster.NodeClasses = []int{0}
	fresp, fout := postPlan(t, ts.URL, flat)
	if fresp.StatusCode != http.StatusOK {
		t.Fatalf("hazard-free plan request: status %d", fresp.StatusCode)
	}
	if fout.Key == out.Key {
		t.Fatal("hazard-free and spot requests share a cache key")
	}
	var flatPlan Plan
	if err := json.Unmarshal(fout.Plan, &flatPlan); err != nil {
		t.Fatalf("plan decode: %v", err)
	}
	if flatPlan.RecommendedCadence != 0 {
		t.Fatalf("recommended cadence %d on a hazard-free cluster, want 0", flatPlan.RecommendedCadence)
	}
}
