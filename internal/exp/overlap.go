package exp

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// This file measures the nonblocking engine's two performance claims on
// dedicated clusters (no competing processes, Adapt off, so every second of
// difference is the overlap machinery itself):
//
//  1. Halo overlap: jacobi and sor with Config.Overlap hide wire time
//     behind interior compute; the virtual iteration time shrinks by the
//     hidden fraction. Particles' migration is nonblocking by construction
//     with charges identical to the former blocking exchange, so its delta
//     is structurally zero and only its hidden-wire credit is reported.
//  2. Redistribution overlap: on a wire-bound cluster with skewed senders,
//     one-sided commits (RedistRMA) let every (sender, receiver) pair settle
//     on its own epoch, so no receiver waits head-of-line on the slowest
//     sender's slab before unpacking the others, and the slowest rank's
//     redistribution window shrinks against the schedule-order drain.

// OverlapOptions parameterises the overlap study.
type OverlapOptions struct {
	// Nodes lists the world sizes (default 4/64/256: fully hidden, partially
	// hidden, and nothing-to-hide regimes of the fixed-size grid).
	Nodes []int
	// Seed offsets the cluster seeds.
	Seed uint64
}

// DefaultOverlapOptions returns the default ladder.
func DefaultOverlapOptions() OverlapOptions {
	return OverlapOptions{Nodes: []int{4, 64, 256}}
}

// OverlapRow is one (app, nodes) measurement.
type OverlapRow struct {
	App        string
	Nodes      int
	SerialS    float64 // blocking-exchange virtual makespan
	OverlapS   float64 // overlapped virtual makespan
	HiddenS    float64 // wire seconds hidden behind compute, summed over ranks
	HiddenFrac float64 // HiddenS / (HiddenS + residual wait)
}

// Delta reports the virtual-time saving of the overlapped run.
func (r OverlapRow) Delta() float64 {
	if r.SerialS == 0 {
		return 0
	}
	return (r.SerialS - r.OverlapS) / r.SerialS
}

// OverlapResult holds the halo study plus the redistribution window
// comparison.
type OverlapResult struct {
	Rows []OverlapRow
	// RedistWindowPipelinedS and RedistWindowRMAS are the slowest rank's
	// redistribution window — its RedistRecords' start_vt→vt spans, summed
	// over redistributions — on the redistribution-heavy scenario under
	// schedule-order drain commits (RedistPipelined) and one-sided commits
	// (RedistRMA). The window, not stall_s, is compared: an RMA receiver
	// does no commit work while it waits, so it stalls where the drain
	// unpacks.
	RedistWindowPipelinedS float64
	RedistWindowRMAS       float64
}

// WindowReduction reports the fractional redistribution-window saving of
// one-sided commits.
func (r *OverlapResult) WindowReduction() float64 {
	if r.RedistWindowPipelinedS == 0 {
		return 0
	}
	return (r.RedistWindowPipelinedS - r.RedistWindowRMAS) / r.RedistWindowPipelinedS
}

// overlapTelemetry sums the per-iteration hidden-wire credit and residual
// wait across a run's trace, in telemetry.Sort's order: the order the rank
// goroutines emitted in depends on the schedule, and a float sum on it.
func overlapTelemetry(ring *telemetry.Ring) (hiddenS, waitS float64) {
	recs := ring.Records()
	telemetry.Sort(recs)
	for _, rec := range recs {
		if it, ok := rec.(telemetry.IterationRecord); ok {
			hiddenS += float64(it.HiddenWireNs) / 1e9
			waitS += it.WaitS
		}
	}
	return
}

// RunOverlap executes the overlap study.
func RunOverlap(o OverlapOptions) (*OverlapResult, error) {
	if len(o.Nodes) == 0 {
		o.Nodes = []int{4, 64, 256}
	}

	// The grid is fixed while the world grows, so the interior available to
	// hide the (constant-size) halo wire shrinks from milliseconds to zero.
	// Each (app, nodes) row is a serial world and an overlapped one.
	// Particles' migration is nonblocking by construction, so it ignores
	// Overlap: its two worlds are the same program, and its delta is
	// structurally 0.
	var worlds []sweep.World
	for _, app := range []string{"jacobi", "sor", "particles"} {
		w := sweep.World{App: app, Rows: 512, Cols: 1024, Iters: 30, Cost: 40}
		if app == "particles" {
			w.Rows, w.Cols, w.Cost = 256, 256, 0
		}
		for _, n := range o.Nodes {
			w.Spec = cluster.Uniform(n)
			w.Spec.Seed += o.Seed
			ovl := w
			ovl.Overlap = true
			ovl.RingCap = 1 << 18
			worlds = append(worlds, w, ovl)
		}
	}
	hidden := make([]float64, len(worlds))
	wait := make([]float64, len(worlds))
	out, err := runWorlds(worlds, func(i int, w sweep.Outcome) error {
		if w.Ring != nil {
			hidden[i], wait[i] = overlapTelemetry(w.Ring)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("overlap: %w", err)
	}
	res := &OverlapResult{}
	for i := 0; i < len(worlds); i += 2 {
		serial, ovl := out[i], out[i+1]
		app, n := worlds[i].App, len(worlds[i].Spec.Nodes)
		if serial.Checksum != ovl.Checksum || serial.CheckInt != ovl.CheckInt {
			return nil, fmt.Errorf("overlap %s/%d: checksum changed", app, n)
		}
		frac := 0.0
		if h := hidden[i+1]; h+wait[i+1] > 0 {
			frac = h / (h + wait[i+1])
		}
		res.Rows = append(res.Rows, OverlapRow{
			App: app, Nodes: n,
			SerialS: serial.Elapsed, OverlapS: ovl.Elapsed,
			HiddenS: hidden[i+1], HiddenFrac: frac,
		})
	}

	pip, rma, err := runOverlapRedist(o.Seed)
	if err != nil {
		return nil, err
	}
	res.RedistWindowPipelinedS, res.RedistWindowRMAS = pip, rma
	return res, nil
}

// runOverlapRedist measures the slowest rank's redistribution window under
// schedule-order drain commits vs one-sided commits.
//
// Head-of-line blocking only shows when a receiver takes slabs from several
// senders whose arrivals invert the schedule order. Block redistributions
// move contiguous row ranges, so that takes a large coordinated shift:
// three adjacent nodes get hit by different competing loads at once (3, 2,
// and 1 CPs), their shares collapse together, and every surviving
// receiver's gained range spans several old owners. The senders' slab
// injections are dilated by their respective CP counts, so arrivals are
// skewed against the schedule, and the per-byte message CPU is raised so
// committing a slab does real work — work the drain leaves idle while it
// stalls on the slowest sender, and a one-sided deposit does not pay.
func runOverlapRedist(seed uint64) (pipelinedS, rmaS float64, err error) {
	w := sweep.World{App: "jacobi", Rows: 256, Cols: 1024, Iters: 40, Cost: 600, RingCap: traceCap}
	w.Core = core.DefaultConfig()
	w.Core.Drop = core.DropNever
	w.Spec = cluster.Uniform(8)
	w.Spec.Seed += seed
	w.Spec.Net.CPUPerByte = 800
	w.Spec.Net.BytesPerSec = 100e6
	for node, k := range []int{3, 2, 1} {
		for i := 0; i < k; i++ {
			w.Spec = w.Spec.With(cluster.CycleEvent(node, 10, +1))
		}
	}
	rmaW := w
	rmaW.Core.RedistMode = core.RedistRMA
	var windows [2]float64
	out, err := runWorlds([]sweep.World{w, rmaW}, func(i int, o sweep.Outcome) error {
		windows[i] = totalRedistSeconds(redistsOf(o.Ring))
		return nil
	})
	if err != nil {
		return 0, 0, fmt.Errorf("overlap redist: %w", err)
	}
	if out[0].Redists == 0 {
		return 0, 0, fmt.Errorf("overlap redist scenario produced no redistributions")
	}
	if out[0].Checksum != out[1].Checksum {
		return 0, 0, fmt.Errorf("overlap redist: one-sided commit changed the checksum")
	}
	return windows[0], windows[1], nil
}

// Table renders the study.
func (r *OverlapResult) Table() *Table {
	t := &Table{
		Caption: "Communication/computation overlap: virtual makespan with blocking vs overlapped halos (dedicated cluster), and the wire time hidden behind compute",
		Header:  []string{"app", "nodes", "serial(s)", "overlap(s)", "delta", "hidden(s)", "hidden-frac"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.App, fmt.Sprint(row.Nodes), f2(row.SerialS), f2(row.OverlapS),
			pct(row.Delta()), f3(row.HiddenS), pct(row.HiddenFrac),
		})
	}
	t.Rows = append(t.Rows, []string{
		"redist", "8", f3(r.RedistWindowPipelinedS), f3(r.RedistWindowRMAS),
		pct(r.WindowReduction()), "", "",
	})
	return t
}
