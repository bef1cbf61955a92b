package exp

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/apps/jacobi"
	"repro/internal/apps/particles"
	"repro/internal/apps/sor"
	"repro/internal/cluster"
	"repro/internal/core"
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
// wait across a run's trace.
func overlapTelemetry(ring *telemetry.Ring) (hiddenS, waitS float64) {
	for _, rec := range ring.Records() {
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
	res := &OverlapResult{}

	// The grid is fixed while the world grows, so the interior available to
	// hide the (constant-size) halo wire shrinks from milliseconds to zero.
	const rows, cols, iters = 512, 1024, 30
	type variant struct {
		name string
		run  func(n int, overlap bool, sink telemetry.Sink) (apps.Result, error)
	}
	variants := []variant{
		{"jacobi", func(n int, overlap bool, sink telemetry.Sink) (apps.Result, error) {
			cfg := jacobi.DefaultConfig()
			cfg.Rows, cfg.Cols, cfg.Iters, cfg.CostPerElem = rows, cols, iters, 40
			cfg.Overlap = overlap
			cfg.Core = core.Config{Adapt: false, Telemetry: sink}
			spec := cluster.Uniform(n)
			spec.Seed += o.Seed
			return jacobi.Run(cluster.New(spec), cfg)
		}},
		{"sor", func(n int, overlap bool, sink telemetry.Sink) (apps.Result, error) {
			cfg := sor.DefaultConfig()
			cfg.Rows, cfg.Cols, cfg.Iters, cfg.CostPerElem = rows, cols, iters, 40
			cfg.Overlap = overlap
			cfg.Core = core.Config{Adapt: false, Telemetry: sink}
			spec := cluster.Uniform(n)
			spec.Seed += o.Seed
			return sor.Run(cluster.New(spec), cfg)
		}},
		{"particles", func(n int, overlap bool, sink telemetry.Sink) (apps.Result, error) {
			// Migration is nonblocking by construction; "overlap" and
			// "serial" are the same program and the delta is structurally 0.
			cfg := particles.DefaultConfig()
			cfg.Rows, cfg.Cols, cfg.Steps = 256, 256, iters
			cfg.Core = core.Config{Adapt: false, Telemetry: sink}
			spec := cluster.Uniform(n)
			spec.Seed += o.Seed
			return particles.Run(cluster.New(spec), cfg)
		}},
	}
	for _, v := range variants {
		for _, n := range o.Nodes {
			serial, err := v.run(n, false, nil)
			if err != nil {
				return nil, fmt.Errorf("overlap %s/%d serial: %w", v.name, n, err)
			}
			ring := telemetry.NewRing(1 << 18)
			ovl, err := v.run(n, true, ring)
			if err != nil {
				return nil, fmt.Errorf("overlap %s/%d overlapped: %w", v.name, n, err)
			}
			if serial.Checksum != ovl.Checksum || serial.CheckInt != ovl.CheckInt {
				return nil, fmt.Errorf("overlap %s/%d: checksum changed", v.name, n)
			}
			hidden, wait := overlapTelemetry(ring)
			frac := 0.0
			if hidden+wait > 0 {
				frac = hidden / (hidden + wait)
			}
			res.Rows = append(res.Rows, OverlapRow{
				App: v.name, Nodes: n,
				SerialS: serial.Elapsed, OverlapS: ovl.Elapsed,
				HiddenS: hidden, HiddenFrac: frac,
			})
		}
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
	run := func(mode core.RedistMode) (apps.Result, float64, error) {
		cfg := jacobi.DefaultConfig()
		cfg.Rows, cfg.Cols, cfg.Iters, cfg.CostPerElem = 256, 1024, 40, 600
		cfg.Core = core.DefaultConfig()
		cfg.Core.Drop = core.DropNever
		cfg.Core.RedistMode = mode
		ring := traced(&cfg.Core)
		spec := cluster.Uniform(8)
		spec.Seed += seed
		spec.Net.CPUPerByte = 800
		spec.Net.BytesPerSec = 100e6
		for node, k := range []int{3, 2, 1} {
			for i := 0; i < k; i++ {
				spec = spec.With(cluster.CycleEvent(node, 10, +1))
			}
		}
		res, err := jacobi.Run(cluster.New(spec), cfg)
		if err != nil {
			return res, 0, err
		}
		redists, err := redistsOf(ring)
		return res, totalRedistSeconds(redists), err
	}
	pip, pipelinedS, err := run(core.RedistPipelined)
	if err != nil {
		return 0, 0, fmt.Errorf("overlap redist pipelined: %w", err)
	}
	rma, rmaS, err := run(core.RedistRMA)
	if err != nil {
		return 0, 0, fmt.Errorf("overlap redist RMA: %w", err)
	}
	if pip.Redists == 0 {
		return 0, 0, fmt.Errorf("overlap redist scenario produced no redistributions")
	}
	if pip.Checksum != rma.Checksum {
		return 0, 0, fmt.Errorf("overlap redist: one-sided commit changed the checksum")
	}
	return pipelinedS, rmaS, nil
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
