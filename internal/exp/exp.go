// Package exp is the experiment harness: one runner per table/figure of
// the paper's evaluation (§5), each reproducing the corresponding workload,
// competing-process scenario and measurement, and rendering the same rows
// the paper reports. Absolute times come from the simulator's virtual
// clock; the quantities of interest are the paper's *shapes* — who wins,
// by what factor, and where the crossovers fall.
//
// A study is a list of worlds (sweep.World), one per run, each on its own
// cluster; runWorlds runs them on the sweep's pool and the study folds each
// finished world into its rows.
//
// Every experiment runs at a laptop-friendly scale by default, chosen to
// preserve the paper's computation/communication ratios (see EXPERIMENTS.md
// for the calibration); the five paper studies also run the paper's own
// inputs, at Size Paper (inputs.go).
package exp

import (
	"cmp"
	"fmt"
	"io"
	"runtime"
	"strings"

	"repro/internal/apps"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// Table is a rendered experiment result: a caption, a header, rows of
// cells, and notes (summary lines printed after the rows). Raw values live
// on the experiment-specific result structs.
type Table struct {
	Caption string
	Header  []string
	Rows    [][]string
	Notes   []string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "%s\n", t.Caption)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintf(w, "  %s\n", strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// f2 formats a float with two decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// f3 formats a float with three decimals.
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// pct formats a ratio as a percentage.
func pct(v float64) string { return fmt.Sprintf("%.0f%%", v*100) }

// ladder returns a study's node counts: nodes, or the study's own ladder
// def when nodes is nil.
func ladder(nodes, def []int) []int {
	if nodes == nil {
		return def
	}
	return nodes
}

// runWorlds runs a study's worlds on a pool as wide as GOMAXPROCS — each
// world is deterministic on its own, so the width moves only wall time —
// and returns their results in index order. fold, when non-nil, reads world
// i's outcome on the calling goroutine as it finishes, after which its ring
// is dropped. The error is the lowest-indexed world's, or its fold's.
func runWorlds(worlds []sweep.World, fold func(i int, o sweep.Outcome) error) ([]apps.Result, error) {
	res := make([]apps.Result, len(worlds))
	errs := make([]error, len(worlds))
	sweep.RunWorlds(worlds, runtime.GOMAXPROCS(0), func(i int, o sweep.Outcome) {
		switch {
		case o.Err != nil:
			errs[i] = fmt.Errorf("%s on %d nodes: %w", worlds[i].App, len(worlds[i].Spec.Nodes), o.Err)
		case fold != nil:
			errs[i] = fold(i, o)
		}
		res[i] = o.Res
	})
	return res, cmp.Or(errs...)
}

// steadyCycles runs worlds like runWorlds and also returns each one's
// average phase-cycle time after its last redistribution
// (avgCycleAfterRedist); a world that never redistributed is an error.
func steadyCycles(worlds []sweep.World) ([]float64, []apps.Result, error) {
	avgs := make([]float64, len(worlds))
	out, err := runWorlds(worlds, func(i int, w sweep.Outcome) error {
		avg, ok := avgCycleAfterRedist(redistsOf(w.Ring), w.Res.Elapsed, worlds[i].Iters)
		if !ok {
			return fmt.Errorf("%s on %d nodes: no redistribution occurred", worlds[i].App, len(worlds[i].Spec.Nodes))
		}
		avgs[i] = avg
		return nil
	})
	return avgs, out, err
}

// redistsOf returns the RedistRecords in ring, indexed by emitting node, each
// node's in emission order.
func redistsOf(ring *telemetry.Ring) [][]telemetry.RedistRecord {
	var byNode [][]telemetry.RedistRecord
	ring.Walk(telemetry.Visitor{Other: func(rec telemetry.Record) {
		if r, ok := rec.(telemetry.RedistRecord); ok {
			for len(byNode) <= r.Node {
				byNode = append(byNode, nil)
			}
			byNode[r.Node] = append(byNode[r.Node], r)
		}
	}})
	return byNode
}

// lastRedistEnd returns one node's final redistribution end (seconds, cycle).
func lastRedistEnd(recs []telemetry.RedistRecord) (sec float64, cycle int, ok bool) {
	if len(recs) == 0 {
		return 0, 0, false
	}
	last := recs[len(recs)-1]
	return last.Time, last.Cycle, true
}

// avgCycleAfterRedist computes the steady-state average phase-cycle time
// after the last redistribution, the quantity Figures 6 and 7 plot. It uses
// the latest redistribution end across nodes and the run's makespan.
func avgCycleAfterRedist(byNode [][]telemetry.RedistRecord, elapsed float64, totalCycles int) (float64, bool) {
	endSec, endCycle := 0.0, 0
	found := false
	for _, recs := range byNode {
		if s, c, ok := lastRedistEnd(recs); ok && s > endSec {
			endSec, endCycle, found = s, c, true
		}
	}
	if !found || totalCycles-endCycle <= 0 {
		return 0, false
	}
	return (elapsed - endSec) / float64(totalCycles-endCycle), true
}

// totalRedistSeconds sums all redistribution windows on the slowest node.
func totalRedistSeconds(byNode [][]telemetry.RedistRecord) float64 {
	best := 0.0
	for _, recs := range byNode {
		var tot float64
		for _, r := range recs {
			tot += r.Time - r.StartVT
		}
		best = max(best, tot)
	}
	return best
}
