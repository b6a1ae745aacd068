package perfmodel

import (
	"fmt"

	"aceso/internal/config"
)

// EvalStage evaluates a hypothetical pipeline stage with uniform
// settings — the building block of the dynamic-programming baselines,
// which enumerate stages without materializing full configurations.
// The result is what Estimate holds for the same stage in the same
// pipeline context, except StageTime, which Eq. 2 composes across the
// whole pipeline and EvalStage leaves zero.
//
//	start, end  operator range [start, end)
//	devices     devices assigned to the stage (power of two)
//	tp, dp      uniform tensor/data parallelism (tp·dp == devices)
//	recompute   recompute every op in the stage
//	microBatch  aggregate microbatch size (dp must divide it)
//	firstDev    global rank of the stage's first device
//	inflight    stashed microbatches (Eq. 1's p−i term)
//	prevDevices devices of the preceding stage (0 when first)
func (m *Model) EvalStage(start, end, devices, tp, dp int, recompute bool,
	microBatch, firstDev, inflight, prevDevices int) (StageMetrics, error) {

	switch {
	case start < 0 || end <= start || end > len(m.Graph.Ops):
		return StageMetrics{}, fmt.Errorf("perfmodel: bad op range [%d, %d)", start, end)
	case tp*dp != devices || !config.IsPow2(tp) || !config.IsPow2(dp):
		return StageMetrics{}, fmt.Errorf("perfmodel: tp %d · dp %d != devices %d (or not powers of two)", tp, dp, devices)
	case microBatch <= 0 || microBatch%dp != 0:
		return StageMetrics{}, fmt.Errorf("perfmodel: dp %d does not divide microbatch %d", dp, microBatch)
	case inflight < 1:
		return StageMetrics{}, fmt.Errorf("perfmodel: inflight %d < 1", inflight)
	}
	st := config.UniformStage(start, end, devices, config.OpSetting{TP: tp, DP: dp, Recompute: recompute})
	// Route through the shared stage memo: the DP baselines enumerate
	// the same (range, tp, dp) stages under many pipeline contexts.
	sm := m.stageMetrics(&st, stageKey{st.SubHash(), microBatch, firstDev, inflight, prevDevices})
	sm.CapMem = m.Cluster.RangeMemory(firstDev, devices)
	return sm, nil
}
