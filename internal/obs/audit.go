package obs

import (
	"fmt"
	"math"
	"sync"

	"aceso/internal/config"
	"aceso/internal/perfmodel"
)

// auditRelTol is the relative tolerance for the accounting identities:
// the buckets are sums of the same profiler terms added in the same
// order, so honest breakdowns agree to within a few ulps — 1e-9
// relative leaves three orders of magnitude of headroom while still
// catching any genuinely double- or mis-booked term.
const auditRelTol = 1e-9

// AuditEstimate asserts the performance model's resource-accounting
// invariants on one estimate and returns a description of every
// violated one (nil when the breakdown is sound). cfg may be nil;
// configuration-dependent invariants (TPComm must vanish without
// tensor parallelism, ReshardComm without a mid-stage dp change) are
// then skipped.
//
// The invariants (DESIGN.md §5d):
//
//  1. Every time and memory bucket is finite and non-negative
//     (perfmodel.ValidateEstimate; the first bad bucket is reported).
//  2. Per stage, CompTime + TPComm + P2P + Recomp + ReshardComm equals
//     FwdTime + BwdTime: the communication shares never exceed the
//     total they are shares of (CompTime ≥ 0), so per-resource
//     proportions sum to ≤ 1.
//  3. Recomp never exceeds BwdTime (recomputation runs in backward).
//  4. PeakMem composes from its parts: ParamMem + OptMem + ExtraMem
//     never exceeds PeakMem.
//  5. Estimate.PeakMem is the max over stages; IterTime the max stage
//     time; Devices the sum of stage device counts.
//  6. With cfg: TPComm == 0 when no op in the stage has tp > 1, and
//     ReshardComm == 0 when the stage never changes dp mid-stage —
//     the regression tripwires for the historical mis-booking of
//     dp-resample traffic into the tensor-parallel bucket.
func AuditEstimate(cfg *config.Config, est *perfmodel.Estimate) []string {
	if est == nil {
		return []string{"nil estimate"}
	}
	var out []string
	violate := func(format string, args ...any) {
		out = append(out, fmt.Sprintf(format, args...))
	}
	if cfg != nil && len(cfg.Stages) != len(est.Stages) {
		violate("estimate has %d stages for a %d-stage config", len(est.Stages), len(cfg.Stages))
		cfg = nil // stage-wise config checks would misindex
	}

	if err := perfmodel.ValidateEstimate(est); err != nil {
		violate("%v", err)
	}

	var maxPeak, maxStageTime float64
	devices := 0
	for i := range est.Stages {
		s := &est.Stages[i]
		fb := s.FwdTime + s.BwdTime
		tol := auditRelTol * fb
		if shares := s.TPComm + s.P2P + s.Recomp + s.ReshardComm; shares > fb+tol {
			violate("stage %d: comm+recomp shares %v exceed FwdTime+BwdTime %v (proportions sum > 1)",
				i, shares, fb)
		}
		if got := s.CompTime() + s.TPComm + s.P2P + s.Recomp + s.ReshardComm; math.Abs(got-fb) > tol {
			violate("stage %d: breakdown sums to %v, want FwdTime+BwdTime = %v", i, got, fb)
		}
		if s.Recomp > s.BwdTime+auditRelTol*s.BwdTime {
			violate("stage %d: Recomp %v exceeds BwdTime %v", i, s.Recomp, s.BwdTime)
		}
		if base := s.ParamMem + s.OptMem + s.ExtraMem; base > s.PeakMem+auditRelTol*s.PeakMem {
			violate("stage %d: PeakMem %v below its components %v", i, s.PeakMem, base)
		}

		if s.PeakMem > maxPeak {
			maxPeak = s.PeakMem
		}
		if s.StageTime > maxStageTime {
			maxStageTime = s.StageTime
		}
		devices += s.Devices

		if cfg != nil {
			st := &cfg.Stages[i]
			maxTP, dpChanges := 1, false
			prevDP := 0
			for j := range st.Ops {
				if st.Ops[j].TP > maxTP {
					maxTP = st.Ops[j].TP
				}
				if prevDP != 0 && st.Ops[j].DP != prevDP {
					dpChanges = true
				}
				prevDP = st.Ops[j].DP
			}
			if maxTP == 1 && s.TPComm != 0 {
				violate("stage %d: TPComm = %v with tp=1 throughout — foreign traffic booked as tensor-parallel",
					i, s.TPComm)
			}
			if !dpChanges && s.ReshardComm != 0 {
				violate("stage %d: ReshardComm = %v without a mid-stage dp change", i, s.ReshardComm)
			}
		}
	}

	if math.Abs(est.PeakMem-maxPeak) > auditRelTol*maxPeak {
		violate("PeakMem %v is not the stage max %v", est.PeakMem, maxPeak)
	}
	if math.Abs(est.IterTime-maxStageTime) > auditRelTol*maxStageTime {
		violate("IterTime %v is not the slowest stage's time %v", est.IterTime, maxStageTime)
	}
	if est.Devices != 0 && est.Devices != devices {
		violate("Devices = %d, stages sum to %d", est.Devices, devices)
	}
	if len(est.Stages) > 0 && est.Microbatches < 0 {
		violate("Microbatches = %d, want ≥ 0", est.Microbatches)
	}
	return out
}

// maxAuditViolations caps the violations an Auditor retains; a broken
// model would otherwise flood memory with one message per estimate.
const maxAuditViolations = 64

// Auditor is a Tracer that runs AuditEstimate on every estimate the
// search produces, accumulating violations. Attach it (alone or via
// MultiTracer) to core.Options.Tracer; a clean search leaves Err() nil.
type Auditor struct {
	mu        sync.Mutex
	checked   int64
	total     int64 // violations found, including dropped ones
	violation []string
}

// NewAuditor returns an empty breakdown auditor.
func NewAuditor() *Auditor { return &Auditor{} }

// OnIteration implements Tracer (iteration events carry no estimate).
func (a *Auditor) OnIteration(IterationEvent) {}

// OnEstimate implements Tracer.
func (a *Auditor) OnEstimate(cfg *config.Config, est *perfmodel.Estimate) {
	vs := AuditEstimate(cfg, est)
	a.mu.Lock()
	a.checked++
	a.total += int64(len(vs))
	for _, v := range vs {
		if len(a.violation) < maxAuditViolations {
			a.violation = append(a.violation, v)
		}
	}
	a.mu.Unlock()
}

// Checked returns the number of estimates audited.
func (a *Auditor) Checked() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.checked
}

// Violations returns the retained violation messages.
func (a *Auditor) Violations() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]string(nil), a.violation...)
}

// Err returns nil when every audited estimate was sound, else an error
// summarizing the violations.
func (a *Auditor) Err() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.total == 0 {
		return nil
	}
	return fmt.Errorf("obs: %d breakdown-invariant violations in %d estimates (first: %s)",
		a.total, a.checked, a.violation[0])
}
