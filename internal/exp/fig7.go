package exp

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sweep"
)

// This file reproduces the unbalanced-computation experiment (§5.4): the
// particle simulation on 8 nodes with the top half of P0's rows seeded with
// Part extra particles per cell, comparing grace periods of 1 and 5 phase
// cycles. Iterations run well under the 10 ms /PROC granularity, so the
// runtime must rely on min-filtered wallclock timing; a 1-cycle grace
// period keeps context-switch spikes in the estimates and mis-sizes the
// distribution.

// fig7Parts are the Part values of the figure's rows.
var fig7Parts = []int{10, 50}

// Fig7Row is one Part value's pair of bars.
type Fig7Row struct {
	Part    int
	GP1Avg  float64 // avg post-redistribution cycle seconds with GP=1
	GP5Avg  float64 // with GP=5
	Benefit float64 // (GP1-GP5)/GP1 — the paper reports 13% and 16%
}

// Fig7Result holds all Part values.
type Fig7Result struct {
	Rows []Fig7Row
}

// fig7Worlds returns, for every Part value in order, its GP=1 and GP=5
// worlds: the particle simulation at size on 8 nodes with Part extra
// particles per cell in the top half of P0's rows and a CP on P0 at step 10.
func fig7Worlds(size Size) (worlds []sweep.World) {
	base := size.inputs().fig7
	for _, part := range fig7Parts {
		w := base
		w.ExtraTopP0 = part
		w.Trace = true
		w.Spec = cluster.Uniform(8).With(cluster.CycleEvent(0, 10, +1))
		for _, gp := range []int{1, 5} {
			w.Core = core.DefaultConfig()
			w.Core.Drop = core.DropNever
			w.Core.GracePeriod = gp
			worlds = append(worlds, w)
		}
	}
	return worlds
}

// RunFig7 executes the GP=1 vs GP=5 comparison for every Part value at size.
func RunFig7(size Size) (*Fig7Result, error) {
	worlds := fig7Worlds(size)
	avgs, _, err := steadyCycles(worlds)
	if err != nil {
		return nil, fmt.Errorf("fig7: %w", err)
	}
	out := &Fig7Result{}
	for i := 0; i < len(worlds); i += 2 {
		g1, g5 := avgs[i], avgs[i+1]
		out.Rows = append(out.Rows, Fig7Row{
			Part: worlds[i].ExtraTopP0, GP1Avg: g1, GP5Avg: g5, Benefit: (g1 - g5) / g1,
		})
	}
	return out, nil
}

// Table renders the comparison.
func (r *Fig7Result) Table() *Table {
	t := &Table{
		Caption: "Figure 7: particle simulation, average post-redistribution cycle time — grace period 1 vs 5 (8 nodes, CP on P0 at step 10)",
		Header:  []string{"Part", "GP=1 (ms)", "GP=5 (ms)", "GP=5 benefit"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(row.Part), f2(row.GP1Avg * 1000), f2(row.GP5Avg * 1000), pct(row.Benefit),
		})
	}
	return t
}
