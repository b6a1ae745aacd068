package elastic

import (
	"context"
	"math"
	"testing"
	"time"

	"aceso/internal/config"
	"aceso/internal/hardware"
	"aceso/internal/model"
	"aceso/internal/runtime"
	"aceso/internal/tensor"
)

// FuzzCheckpointLoadNeverPanics pins the loader's robustness contract:
// arbitrary, truncated or bit-flipped bytes must come back as a typed
// error — never a panic, never a runaway allocation — from Decode,
// from AssembleState, from the Reshard a recovery runs next and from
// the training step after it.
// Checkpoints are the recovery path; a loader that crashes on a torn
// file turns a survivable fault into an unrecoverable one.
func FuzzCheckpointLoadNeverPanics(f *testing.F) {
	g, err := model.MLP(2, 4, 4)
	if err != nil {
		f.Fatal(err)
	}
	p := runtime.InitParams(g, 1)
	p.Opt = runtime.Adam
	cfg, err := config.Balanced(g, 2, 2, 2)
	if err != nil {
		f.Fatal(err)
	}
	st, err := ShardState(g, cfg, p)
	if err != nil {
		f.Fatal(err)
	}
	good := Encode(st)

	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(good[:headerLen])
	f.Add([]byte{})
	f.Add([]byte("ACESOCKP"))
	// Bit-flipped header and payload variants.
	for _, off := range []int{0, 9, 12, headerLen + 3, len(good) - 4} {
		mut := append([]byte(nil), good...)
		mut[off] ^= 0x80
		f.Add(mut)
	}
	// One shard dropped under a valid checksum: the plan keeps op 0's
	// tensors whole, so its MB goes missing without a coverage gap.
	dropped := *st
	dropped.Ranks = append([]RankShard(nil), st.Ranks...)
	for ri, rs := range dropped.Ranks {
		for ti, sh := range rs.Tensors {
			if sh.Op == 0 && sh.Kind == runtime.MB {
				dropped.Ranks[ri].Tensors = append(append([]TensorShard(nil), rs.Tensors[:ti]...), rs.Tensors[ti+1:]...)
			}
		}
	}
	f.Add(Encode(&dropped))
	// Op 0's MW replaced by a 1×1 shard under a valid checksum: it
	// covers its own full shape, so only its weight's shape disagrees.
	misshapen := *st
	misshapen.Ranks = append([]RankShard(nil), st.Ranks...)
	for ri, rs := range misshapen.Ranks {
		misshapen.Ranks[ri].Tensors = append([]TensorShard(nil), rs.Tensors...)
		for ti, sh := range rs.Tensors {
			if sh.Op == 0 && sh.Kind == runtime.MW {
				misshapen.Ranks[ri].Tensors[ti] = TensorShard{Op: 0, Kind: runtime.MW, Rows: 1, Cols: 1, FullRows: 1, FullCols: 1, Data: []float64{0.5}}
			}
		}
	}
	f.Add(Encode(&misshapen))
	x, y := tensor.New(4, 4), tensor.New(4, 4)
	for i := range x.Data {
		x.Data[i], y.Data[i] = float64(i%5)/4, float64(i%3)/2
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := Decode(data)
		if err != nil {
			if st != nil {
				t.Fatal("Decode returned both state and error")
			}
			return
		}
		// Whatever decoded must survive the rest of the pipeline without
		// panicking: re-encode always; assemble, reshard onto the seed's
		// plan what assembles, and train a step on what reshards. A
		// reshard that succeeds covers exactly.
		reenc := Encode(st)
		if _, err := Decode(reenc); err != nil {
			t.Fatalf("re-encode of decoded state does not decode: %v", err)
		}
		if _, err := AssembleState(st); err != nil {
			return
		}
		out, err := Reshard(g, cfg, st)
		if err != nil {
			return
		}
		q, err := AssembleState(out)
		if err != nil {
			t.Fatalf("resharded state does not assemble: %v", err)
		}
		// Training is what comes next: it may refuse the state, never
		// panic on it.
		runtime.Serial(g, q, x, y, cfg.MicroBatch, 0.1, 1)
	})
}

// FuzzChurnEventsNeverPanic pins the supervisor's robustness contract:
// an arbitrary byte-derived churn schedule — out-of-range devices,
// NaN/Inf scales, unknown kinds, hostile orderings — either validates
// and runs to a report, or comes back as a typed error. Never a panic,
// never a hang: the supervisor is the component that must outlive the
// faults it manages.
func FuzzChurnEventsNeverPanic(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0})                          // one preempt of device 0 at iteration 0
	f.Add([]byte{0, 0, 1, 0, 0, 1, 1, 0, 0, 0})           // preempt then readd
	f.Add([]byte{0, 2, 0, 200, 0, 1, 3, 0, 255, 0})       // slow-node + link derate variants
	f.Add([]byte{5, 17, 99, 254, 7, 3, 3, 3, 3, 3, 3, 3}) // out-of-range everything
	// Odd length draws the ragged fleet: preempt all ten of its devices.
	var drain []byte
	for d := byte(1); d <= 10; d++ {
		drain = append(drain, 0, 0, d, 0, 0)
	}
	f.Add(append(drain, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := model.MLP(2, 4, 4)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := config.Balanced(g, 2, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		// The plan spans two devices; odd-length inputs run it on a ragged
		// 10-device fleet (two 8-device nodes, the last one partial) with
		// eight idle spares, even-length ones on exactly two devices.
		cl := hardware.DGX1V100(1).Restrict(2)
		if len(data)%2 == 1 {
			cl = hardware.DGX1V100(2).Restrict(10)
		}
		devices := cl.TotalDevices()

		// Decode 5 bytes per event, mapping select byte values onto the
		// hostile corners of the domain (negative iterations, NaN/Inf
		// scales) that plain byte arithmetic cannot reach.
		var spec ChurnSpec
		for i := 0; i+5 <= len(data) && len(spec.Events) < 16; i += 5 {
			iter := int(data[i]) % 8
			if data[i] == 255 {
				iter = -1
			}
			scale := float64(data[i+3]) / 255
			switch data[i+4] {
			case 250:
				scale = math.NaN()
			case 251:
				scale = math.Inf(1)
			case 252:
				scale = -0.5
			case 253:
				scale = 1
			}
			spec.Events = append(spec.Events, ChurnEvent{
				Iteration: iter,
				Kind:      ChurnKind(data[i+1] % 6),       // includes invalid kinds
				Device:    int(data[i+2])%(devices+2) - 1, // includes -1 and out-of-range
				Scale:     scale,
			})
		}

		p := runtime.InitParams(g, 1)
		p.Opt = runtime.Adam
		x := tensor.New(4, 4)
		y := tensor.New(4, 4)
		for i := range x.Data {
			x.Data[i] = float64(i%7) * 0.1
			y.Data[i] = float64(i%5) * 0.1
		}
		opt := Options{
			LR:           0.05,
			CommDeadline: 5 * time.Second,
			SearchBudget: 10 * time.Millisecond,
		}
		job := Job{Graph: g, Cluster: cl, Config: cfg, Params: p, X: x, Y: y, Iters: 2}
		rep, err := Supervise(context.Background(), job, spec, opt)
		if err != nil {
			return // typed rejection (invalid spec, stall, ...) is fine
		}
		if rep == nil || rep.FinalStep < 0 {
			t.Fatalf("nil/absurd report without error: %+v", rep)
		}
		for _, l := range rep.Losses {
			if math.IsNaN(l) || math.IsInf(l, 0) {
				t.Fatalf("non-finite loss %v in report", l)
			}
		}
	})
}

// FuzzPreemptNoticeNeverPanics pins the notice-drain state machine's
// robustness contract: arbitrary notice/preempt interleavings with
// arbitrary windows and checkpoint costs — duplicate notices, notices
// for dead devices, deadlines past the end of the run, windows shorter
// than the cost, notices racing unnoticed preempts — either run to a
// coherent report or come back as a typed error. Never a panic: the
// drain path exists precisely so reclaims stay survivable.
func FuzzPreemptNoticeNeverPanics(f *testing.F) {
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{2, 4, 2, 2}, uint8(1))                   // clean covered drain
	f.Add([]byte{2, 4, 2, 0}, uint8(3))                   // window < cost: missed
	f.Add([]byte{1, 4, 3, 2, 2, 0, 3, 0}, uint8(1))       // notice then real preempt
	f.Add([]byte{0, 4, 2, 7, 0, 4, 2, 7}, uint8(0))       // duplicate notices
	f.Add([]byte{255, 4, 0, 255, 3, 4, 1, 1}, uint8(255)) // hostile corners

	f.Fuzz(func(t *testing.T, data []byte, ckptCost uint8) {
		g, err := model.MLP(2, 4, 4)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := config.Balanced(g, 2, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		cl := hardware.DGX1V100(1).Restrict(2)

		// Decode 4 bytes per event: iteration, kind selector (notice /
		// preempt / readd), device, notice window — including negative
		// windows and deadlines far past the end of the run.
		var spec ChurnSpec
		for i := 0; i+4 <= len(data) && len(spec.Events) < 12; i += 4 {
			iter := int(data[i]) % 6
			if data[i] == 255 {
				iter = -1
			}
			kind := PreemptNotice
			switch data[i+1] % 4 {
			case 0:
				kind = Preempt
			case 1:
				kind = Readd
			}
			notice := int(data[i+3]) % 9
			if data[i+3] == 255 {
				notice = -1
			}
			spec.Events = append(spec.Events, ChurnEvent{
				Iteration: iter,
				Kind:      kind,
				Device:    int(data[i+2])%4 - 1,
				Notice:    notice,
			})
		}

		p := runtime.InitParams(g, 1)
		p.Opt = runtime.Adam
		x := tensor.New(4, 4)
		y := tensor.New(4, 4)
		for i := range x.Data {
			x.Data[i] = float64(i%7) * 0.1
			y.Data[i] = float64(i%5) * 0.1
		}
		opt := Options{
			LR:             0.05,
			CommDeadline:   5 * time.Second,
			SearchBudget:   10 * time.Millisecond,
			CheckpointCost: int(ckptCost) % 7,
		}
		job := Job{Graph: g, Cluster: cl, Config: cfg, Params: p, X: x, Y: y, Iters: 4}
		rep, err := Supervise(context.Background(), job, spec, opt)
		if err != nil {
			return // typed rejection (invalid spec, stall, ...) is fine
		}
		if rep == nil || rep.FinalStep < 0 {
			t.Fatalf("nil/absurd report without error: %+v", rep)
		}
		if rep.CleanDrains+rep.NoticesMissed > rep.Notices+rep.EventCounts["preempt-notice"] {
			t.Fatalf("drain accounting exceeds notices: %+v", rep)
		}
		if len(rep.NoticeMisses) != rep.NoticesMissed {
			t.Fatalf("NoticeMisses len %d != NoticesMissed %d", len(rep.NoticeMisses), rep.NoticesMissed)
		}
		for _, l := range rep.Losses {
			if math.IsNaN(l) || math.IsInf(l, 0) {
				t.Fatalf("non-finite loss %v in report", l)
			}
		}
	})
}
