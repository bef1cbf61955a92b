package exp

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sweep"
)

// Fig7Options parameterises the unbalanced-computation experiment (§5.4):
// the particle simulation on 8 nodes with the top half of P0's rows seeded
// with Part extra particles per cell, comparing grace periods of 1 and 5
// phase cycles. Iterations run well under the 10 ms /PROC granularity, so
// the runtime must rely on min-filtered wallclock timing; a 1-cycle grace
// period keeps context-switch spikes in the estimates and mis-sizes the
// distribution.
type Fig7Options struct {
	Nodes int
	Parts []int // paper: 10 and 50
	Paper bool
}

// DefaultFig7Options returns the paper's configuration at laptop scale.
func DefaultFig7Options() Fig7Options {
	return Fig7Options{Nodes: 8, Parts: []int{10, 50}}
}

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

// fig7World is one bar's world: the particle simulation on nodes nodes
// with part extra particles per cell in the top half of P0's rows, a CP on
// P0 at step 10, and grace period gp.
func fig7World(nodes, part, gp int, paper bool) sweep.World {
	w := sweep.World{App: "particles", Rows: 256, Cols: 256, Iters: 200, ExtraTopP0: part, RingCap: traceCap}
	if !paper {
		// The cost keeps even Part=50 rows under the 10 ms /PROC
		// granularity, the experiment's premise.
		w.Rows, w.Cols, w.Iters, w.Cost = 128, 96, 250, 1500
	}
	w.Core = core.DefaultConfig()
	w.Core.Drop = core.DropNever
	w.Core.GracePeriod = gp
	w.Spec = cluster.Uniform(nodes).With(cluster.CycleEvent(0, 10, +1))
	return w
}

// RunFig7 executes the GP=1 vs GP=5 comparison for every Part value.
func RunFig7(o Fig7Options) (*Fig7Result, error) {
	if o.Nodes == 0 {
		o.Nodes = 8
	}
	if len(o.Parts) == 0 {
		o.Parts = []int{10, 50}
	}
	var worlds []sweep.World
	for _, part := range o.Parts {
		worlds = append(worlds, fig7World(o.Nodes, part, 1, o.Paper), fig7World(o.Nodes, part, 5, o.Paper))
	}
	avgs, _, err := steadyCycles(worlds)
	if err != nil {
		return nil, fmt.Errorf("fig7: %w", err)
	}
	out := &Fig7Result{}
	for i, part := range o.Parts {
		g1, g5 := avgs[2*i], avgs[2*i+1]
		out.Rows = append(out.Rows, Fig7Row{
			Part: part, GP1Avg: g1, GP5Avg: g5, Benefit: (g1 - g5) / g1,
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
