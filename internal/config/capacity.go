package config

// StageWeights turns per-device figures into Weighted's per-stage
// inputs for the device split devs (stage s holds the next devs[s]
// devices). A stage's weight is the *sum* of its devices' compute
// capacities — devScale[d] is device d's throughput relative to the
// best class (hardware.DeviceFLOPSScale); devices beyond len(devScale)
// or with a non-positive scale count as full-speed — so fast classes
// attract compute-heavy stages from the very first candidate. Uniform
// *scales* are therefore not uniform weights: on the 4,4,8 split of 16
// devices into 3 stages the 8-device stage takes half the FLOPs, where
// Balanced gives every stage a third.
//
// hazard[d], device d's preemption hazard in any unit (nil or all-zero
// means none), adds two biases. A hazardous device's capacity is
// discounted by 1 + hazard/4, capped at 1.25×: the bias should nudge
// stage boundaries, not starve hazardous stages of work the search then
// has to claw back. And replicate[s] is set for a stage landing on any
// hazardous device, asking Weighted for a dp-replicated start so the
// work a preemption can touch is held by a surviving replica.
func StageWeights(devs []int, devScale, hazard []float64) (weights []float64, replicate []bool) {
	weights = make([]float64, len(devs))
	replicate = make([]bool, len(devs))
	first := 0
	for s, n := range devs {
		for d := first; d < first+n; d++ {
			w := 1.0
			if d < len(devScale) && devScale[d] > 0 {
				w = devScale[d]
			}
			if d < len(hazard) && hazard[d] > 0 {
				h := hazard[d]
				if h > 1 {
					h = 1
				}
				w /= 1 + h/4
				replicate[s] = true
			}
			weights[s] += w
		}
		first += n
	}
	return weights, replicate
}
