package config

import (
	"encoding/binary"
	"hash/fnv"
	"reflect"
	"testing"

	"aceso/internal/model"
)

// zoo builds every size of every model family.
func zoo(t *testing.T) []*model.Graph {
	t.Helper()
	var out []*model.Graph
	for _, fam := range []struct {
		build func(string) (*model.Graph, error)
		sizes []string
	}{
		{model.GPT3, model.GPT3Sizes},
		{model.T5, model.T5Sizes},
		{model.WideResNet, model.WideResNetSizes},
		{model.Llama, model.LlamaSizes},
	} {
		for _, size := range fam.sizes {
			g, err := fam.build(size)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, g)
		}
	}
	return out
}

// TestUniformWeightsAreBalanced pins the contract Balanced rests on:
// uniform per-stage weights split every zoo graph into 1–64 stages
// exactly where the unweighted FLOPs split did before the two were one
// function. uniformSplits is the FNV-1a fold of those 1 088 splits'
// boundaries, taken from that unweighted split.
func TestUniformWeightsAreBalanced(t *testing.T) {
	const uniformSplits uint64 = 0xe26909886626129d
	h := fnv.New64a()
	for _, g := range zoo(t) {
		for stages := 1; stages <= 64; stages++ {
			ranges, err := OpSplit(g, uniform(stages))
			if err != nil {
				t.Fatalf("%s into %d stages: %v", g.Name, stages, err)
			}
			for _, r := range ranges {
				binary.Write(h, binary.LittleEndian, [2]int32{int32(r[0]), int32(r[1])})
			}
		}
	}
	if got := h.Sum64(); got != uniformSplits {
		t.Errorf("uniform-weight splits fold to %#x, want %#x: Balanced moved", got, uniformSplits)
	}
}

// TestUniformScalesAreNotBalanced pins the other half: weights are
// summed per stage, so uniform per-*device* scales reproduce Balanced
// only where the device split is even.
func TestUniformScalesAreNotBalanced(t *testing.T) {
	g := model.Uniform(160, 1e9, 1e6, 1e5, 64)
	ones := make([]float64, 16)
	for d := range ones {
		ones[d] = 1
	}
	uneven := 0
	for stages := 1; stages <= 16; stages++ {
		devs, err := DeviceSplit(16, stages)
		if err != nil {
			t.Fatal(err)
		}
		weights, replicate := StageWeights(devs, ones, nil)
		got, err := Weighted(g, devs, 1, weights, replicate)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Balanced(g, 16, stages, 1)
		if err != nil {
			t.Fatal(err)
		}
		even := devs[0] == devs[stages-1]
		if !even {
			uneven++
		}
		if same := got.Hash() == want.Hash(); same != even {
			t.Errorf("%d stages on %v devices: capacity start equals Balanced = %v, want %v", stages, devs, same, even)
		}
	}
	if uneven != 11 {
		t.Errorf("%d of 16 stage counts split 16 devices unevenly, want 11", uneven)
	}

	// The paper's 4,4,8 split: the 8-device stage weighs two 4-device
	// ones and takes half the operators, where Balanced gives a third.
	devs, _ := DeviceSplit(16, 3)
	weights, _ := StageWeights(devs, ones, nil)
	if !reflect.DeepEqual(devs, []int{4, 4, 8}) || !reflect.DeepEqual(weights, []float64{4, 4, 8}) {
		t.Fatalf("devices %v weigh %v, want 4,4,8 each", devs, weights)
	}
	c, err := Weighted(g, devs, 1, weights, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := []int{c.Stages[0].End, c.Stages[1].End, c.Stages[2].End}; !reflect.DeepEqual(got, []int{40, 80, 160}) {
		t.Errorf("capacity split ends at %v, want [40 80 160]", got)
	}
	b, _ := Balanced(g, 16, 3, 1)
	if got := []int{b.Stages[0].End, b.Stages[1].End, b.Stages[2].End}; !reflect.DeepEqual(got, []int{53, 107, 160}) {
		t.Errorf("Balanced split ends at %v, want [53 107 160]", got)
	}
}

func TestStageWeightsHazardDiscount(t *testing.T) {
	// One device per stage; scales beyond the slice and non-positive
	// scales count as full speed.
	devs := []int{1, 1, 1, 1, 1, 1}
	scales := []float64{1, 1, 1, 0.5, 0}
	hazard := []float64{0, 0.4, 1, 1, 100}
	weights, replicate := StageWeights(devs, scales, hazard)
	want := []float64{1, 1 / 1.1, 1 / 1.25, 0.5 / 1.25, 1 / 1.25, 1}
	if !reflect.DeepEqual(weights, want) {
		t.Errorf("weights %v, want %v (discount 1+h/4, capped at 1.25)", weights, want)
	}
	if wantRep := []bool{false, true, true, true, true, false}; !reflect.DeepEqual(replicate, wantRep) {
		t.Errorf("replicate %v, want %v", replicate, wantRep)
	}
	// A stage is hazardous when any of its devices is, and weighs the
	// sum over its devices.
	weights, replicate = StageWeights([]int{2, 2}, nil, []float64{0, 0, 0, 2})
	if !reflect.DeepEqual(weights, []float64{2, 1 + 1/1.25}) || !reflect.DeepEqual(replicate, []bool{false, true}) {
		t.Errorf("two-device stages: weights %v replicate %v", weights, replicate)
	}
	// No hazard: no bias.
	if _, replicate = StageWeights(devs, scales, nil); !reflect.DeepEqual(replicate, make([]bool, 6)) {
		t.Errorf("replicate %v without hazard", replicate)
	}
}

func TestWeightedReplicatedStart(t *testing.T) {
	g := model.Uniform(32, 1e9, 1e6, 1e5, 64)
	for _, tc := range []struct {
		name   string
		devs   []int
		mbs    int
		wantTP []int
		wantDP []int
	}{
		{"even devices, even microbatch", []int{2, 2, 4}, 2, []int{1, 2, 2}, []int{2, 1, 2}},
		{"odd microbatch", []int{2, 2, 4}, 1, []int{2, 2, 4}, []int{1, 1, 1}},
		{"one device", []int{1, 1, 2}, 2, []int{1, 1, 1}, []int{1, 1, 2}},
	} {
		c, err := Weighted(g, tc.devs, tc.mbs, nil, []bool{true, false, true})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for s := range c.Stages {
			for _, op := range c.Stages[s].Ops {
				if op.TP != tc.wantTP[s] || op.DP != tc.wantDP[s] {
					t.Errorf("%s: stage %d starts tp%d×dp%d, want tp%d×dp%d", tc.name, s, op.TP, op.DP, tc.wantTP[s], tc.wantDP[s])
					break
				}
			}
		}
	}
}

func TestOpSplitMinimalShare(t *testing.T) {
	g := model.Uniform(100, 1e9, 1e6, 1e5, 64)
	ranges, err := OpSplit(g, []float64{1, 0, -3, 1})
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]int{{0, 50}, {50, 51}, {51, 52}, {52, 100}}
	if !reflect.DeepEqual(ranges, want) {
		t.Errorf("ranges %v, want %v: a non-positive weight keeps one operator", ranges, want)
	}
}
