package exp

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// This file measures the nonblocking engine's halo-overlap claim on
// dedicated clusters (no competing processes, Adapt off, so every second of
// difference is the overlap machinery itself): jacobi and sor with
// Config.Overlap hide wire time behind interior compute, and the virtual
// iteration time shrinks by the hidden fraction. Particles' migration is
// nonblocking by construction with charges identical to the former blocking
// exchange, so its delta is structurally zero and only its hidden-wire
// credit is reported.

// overlapNodes is the study's ladder of world sizes: the fully hidden,
// partially hidden and nothing-to-hide regimes of the fixed-size grid.
var overlapNodes = []int{4, 64, 256}

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

// OverlapResult holds the halo study.
type OverlapResult struct {
	Rows []OverlapRow
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

// RunOverlap executes the overlap study on the given world sizes (nil:
// overlapNodes).
func RunOverlap(nodes []int) (*OverlapResult, error) {
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
		for _, n := range ladder(nodes, overlapNodes) {
			w.Spec = cluster.Uniform(n)
			ovl := w
			ovl.Overlap = true
			ovl.Trace = true
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
	return res, nil
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
	return t
}
