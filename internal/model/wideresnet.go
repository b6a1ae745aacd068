package model

import (
	"math"

	"aceso/internal/hardware"
)

// WideResNetSizes lists the parameter-size labels from Table 2.
var WideResNetSizes = []string{"0.5B", "2B", "4B", "6.8B", "13B"}

var wrnTargets = map[string]float64{
	"0.5B": 0.5e9,
	"2B":   2e9,
	"4B":   4e9,
	"6.8B": 6.8e9,
	"13B":  13e9,
}

// ResNet-50 bottleneck layout: blocks per stage, base inner widths,
// and the spatial resolution of each stage for 224×224 inputs.
var (
	wrnBlocks  = [4]int{3, 4, 6, 3}
	wrnInner   = [4]int{64, 128, 256, 512}
	wrnSpatial = [4]int{56, 28, 14, 7}
)

// WideResNet builds a Wide-ResNet (ResNet-50 layout with widened
// convolutions, Zagoruyko & Komodakis 2016) whose width factor is
// solved so the total parameter count matches the size label (Table 2:
// FP32, batch 1536, 224×224×3 inputs).
func WideResNet(size string) (*Graph, error) {
	target, ok := wrnTargets[size]
	if !ok {
		return nil, &UnknownSizeError{"Wide-ResNet", size, WideResNetSizes}
	}
	// Binary-search the width factor; params grow monotonically in k.
	lo, hi := 1.0, 64.0
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if wrnParams(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	k := (lo + hi) / 2

	g := &Graph{
		Name:        "wresnet-" + size,
		Precision:   hardware.FP32,
		GlobalBatch: 1536,
	}
	buildWRN(g, k)
	return g, nil
}

// wrnChannels returns the rounded channel widths for width factor k.
func wrnChannels(k float64) (stem int, inner, outer [4]int) {
	round8 := func(v float64) int {
		n := int(math.Round(v/8) * 8)
		if n < 8 {
			n = 8
		}
		return n
	}
	stem = round8(64 * k)
	for s := 0; s < 4; s++ {
		inner[s] = round8(float64(wrnInner[s]) * k)
		outer[s] = 4 * inner[s]
	}
	return stem, inner, outer
}

// wrnParams counts total parameters at width factor k (convs + BN +
// classifier), mirroring buildWRN.
func wrnParams(k float64) float64 {
	stem, inner, outer := wrnChannels(k)
	total := 7*7*3*float64(stem) + 2*float64(stem) // stem conv + BN
	in := stem
	for s := 0; s < 4; s++ {
		for b := 0; b < wrnBlocks[s]; b++ {
			ci, co := float64(inner[s]), float64(outer[s])
			total += float64(in)*ci + 2*ci // 1x1 reduce + BN
			total += 9*ci*ci + 2*ci        // 3x3 + BN
			total += ci*co + 2*co          // 1x1 expand + BN
			if b == 0 {
				total += float64(in)*co + 2*co // downsample projection
			}
			in = outer[s]
		}
	}
	total += float64(in)*1000 + 1000 // classifier
	return total
}

// addConvBN appends a conv followed by its BatchNorm+ReLU op.
func (g *Graph) addConvBN(layer int, name string, kern, cin, cout, hout int, stride int) {
	h := float64(hout)
	fl := 2 * float64(kern*kern) * float64(cin) * float64(cout) * h * h
	g.addOp(Op{
		Name: name, Kind: KindConv, Layer: layer,
		FwdFLOPs: fl,
		Params:   float64(kern * kern * cin * cout),
		ActElems: float64(cout) * h * h,
		Dims:     []PartitionDim{DimOutChannel, DimInChannel},
	})
	g.addOp(Op{
		Name: name + "-bn", Kind: KindLayerNorm, Layer: layer,
		FwdFLOPs: 5 * float64(cout) * h * h,
		Params:   2 * float64(cout),
		ActElems: float64(cout) * h * h, BwdFLOPsFactor: 1,
		// BatchNorm is per-channel: it follows a channel-split layout.
		Dims: []PartitionDim{DimPass},
	})
}

func buildWRN(g *Graph, k float64) {
	stem, inner, outer := wrnChannels(k)
	g.addConvBN(-1, "stem", 7, 3, stem, 112, 2)
	g.addOp(Op{
		Name: "maxpool", Kind: KindPool, Layer: -1,
		FwdFLOPs: 9 * float64(stem) * 56 * 56,
		ActElems: float64(stem) * 56 * 56, BwdFLOPsFactor: 1,
		Dims: []PartitionDim{DimPass},
	})
	in := stem
	layer := 0
	for s := 0; s < 4; s++ {
		hw := wrnSpatial[s]
		for b := 0; b < wrnBlocks[s]; b++ {
			pfx := "s" + itoa(s) + "b" + itoa(b) + "-"
			g.addConvBN(layer, pfx+"conv1", 1, in, inner[s], hw, 1)
			g.addConvBN(layer, pfx+"conv2", 3, inner[s], inner[s], hw, 1)
			g.addConvBN(layer, pfx+"conv3", 1, inner[s], outer[s], hw, 1)
			if b == 0 {
				g.addConvBN(layer, pfx+"down", 1, in, outer[s], hw, 1)
			}
			in = outer[s]
			layer++
		}
	}
	g.addOp(Op{
		Name: "avgpool", Kind: KindPool, Layer: -1,
		FwdFLOPs: float64(in) * 7 * 7,
		ActElems: float64(in), BwdFLOPsFactor: 1,
		Dims: []PartitionDim{DimPass},
	})
	g.addOp(Op{
		Name: "fc", Kind: KindMatMul, Layer: -1,
		FwdFLOPs: 2 * float64(in) * 1000,
		Params:   float64(in)*1000 + 1000,
		ActElems: 1000,
		Dims:     []PartitionDim{DimColumn, DimRow},
	})
	g.addOp(Op{
		Name: "loss", Kind: KindLoss, Layer: -1,
		FwdFLOPs: 5 * 1000,
		ActElems: 1, BwdFLOPsFactor: 1,
		Dims: []PartitionDim{DimPass},
	})
}
