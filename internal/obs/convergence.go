package obs

import (
	"slices"
	"sync"
	"time"

	"aceso/internal/config"
	"aceso/internal/perfmodel"
)

// ConvergencePoint is one sample of the best-found estimated iteration
// time over search wall time — the curves of Figures 12–14.
type ConvergencePoint struct {
	Elapsed  time.Duration `json:"elapsed_ns"`        // since NewConvergence
	IterTime float64       `json:"iter_time_seconds"` // best feasible estimate so far
}

// Convergence is the Tracer behind Exp#5–7: from OnIteration it keeps
// how many ranked bottlenecks and how many hops each improving
// iteration needed (Figure 11), from OnEstimate the best feasible
// estimate over wall time (Figures 12–14), across every worker of every
// search it is attached to.
type Convergence struct {
	mu          sync.Mutex
	start       time.Time
	curve       []ConvergencePoint
	tries, hops []int
}

// NewConvergence returns a tracer whose clock starts now.
func NewConvergence() *Convergence { return &Convergence{start: time.Now()} }

func (c *Convergence) OnIteration(ev IterationEvent) {
	if !ev.Improved {
		return
	}
	c.mu.Lock()
	c.tries = bump(c.tries, ev.BottleneckTries)
	c.hops = bump(c.hops, ev.Hops)
	c.mu.Unlock()
}

func (c *Convergence) OnEstimate(_ *config.Config, est *perfmodel.Estimate) {
	if est == nil || !est.Feasible || !(est.IterTime >= 0) {
		return
	}
	c.mu.Lock()
	if n := len(c.curve); n == 0 || est.IterTime < c.curve[n-1].IterTime {
		c.curve = append(c.curve, ConvergencePoint{time.Since(c.start), est.IterTime})
	}
	c.mu.Unlock()
}

// bump counts one observation of k ≥ 1 into hist[k-1].
func bump(hist []int, k int) []int {
	for len(hist) < k {
		hist = append(hist, 0)
	}
	if k >= 1 {
		hist[k-1]++
	}
	return hist
}

// Curve returns a copy of the best-estimate-over-time curve: strictly
// decreasing in IterTime, non-decreasing in Elapsed.
func (c *Convergence) Curve() []ConvergencePoint {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.curve)
}

// Histograms returns copies of the distributions over improving
// iterations of IterationEvent.BottleneckTries and IterationEvent.Hops:
// tries[k] iterations needed k+1 bottleneck attempts, hops[k] of the
// accepted reconfigurations were k+1 hops deep.
func (c *Convergence) Histograms() (tries, hops []int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.tries), slices.Clone(c.hops)
}
