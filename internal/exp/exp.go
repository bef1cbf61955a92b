// Package exp is the experiment harness: one runner per table/figure of
// the paper's evaluation (§5), each reproducing the corresponding workload,
// competing-process scenario and measurement, and rendering the same rows
// the paper reports. Absolute times come from the simulator's virtual
// clock; the quantities of interest are the paper's *shapes* — who wins,
// by what factor, and where the crossovers fall.
//
// Every experiment runs at a laptop-friendly scale by default, chosen to
// preserve the paper's computation/communication ratios (see EXPERIMENTS.md
// for the calibration); the Paper option selects the original input sizes.
package exp

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// Table is a rendered experiment result: a caption, a header, and rows of
// cells. Raw values live on the experiment-specific result structs.
type Table struct {
	Caption string
	Header  []string
	Rows    [][]string
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

// traceCap bounds the telemetry ring a run attaches; it holds every record
// of the largest -paper run many times over.
const traceCap = 1 << 20

// traced attaches a fresh telemetry ring to cfg — the runtime's only trace —
// and returns it. The sink never moves virtual time.
func traced(cfg *core.Config) *telemetry.Ring {
	ring := telemetry.NewRing(traceCap)
	cfg.Telemetry = ring
	return ring
}

// redistsOf returns the RedistRecords in ring, indexed by emitting node, each
// node's in emission order. An overflowed ring is an error: a truncated
// stream would read as a result.
func redistsOf(ring *telemetry.Ring) ([][]telemetry.RedistRecord, error) {
	if d := ring.Dropped(); d > 0 {
		return nil, fmt.Errorf("telemetry ring overflow: %d records dropped", d)
	}
	var byNode [][]telemetry.RedistRecord
	ring.Walk(telemetry.Visitor{Other: func(rec telemetry.Record) {
		if r, ok := rec.(telemetry.RedistRecord); ok {
			for len(byNode) <= r.Node {
				byNode = append(byNode, nil)
			}
			byNode[r.Node] = append(byNode[r.Node], r)
		}
	}})
	return byNode, nil
}

// redistWindow returns one node's first redistribution interval (start/end
// virtual seconds) and its cycle; ok is false if it never redistributed.
func redistWindow(recs []telemetry.RedistRecord) (startSec, endSec float64, cycle int, ok bool) {
	if len(recs) == 0 {
		return 0, 0, 0, false
	}
	return recs[0].StartVT, recs[0].Time, recs[0].Cycle, true
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
