package exp

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sweep"
)

// Fig6Options parameterises the node-removal experiment (§5.3): Red-Black
// SOR on 8/16/32 nodes with 1, 2 or 3 competing processes on a single
// node, comparing the average post-redistribution phase-cycle time of a
// distribution that keeps the loaded node against physically dropping it.
type Fig6Options struct {
	Nodes []int // paper: 8, 16, 32
	CPs   []int // paper: 1, 2, 3
	Paper bool
}

// DefaultFig6Options returns the paper's grid at laptop scale.
func DefaultFig6Options() Fig6Options {
	return Fig6Options{Nodes: []int{8, 16, 32}, CPs: []int{1, 2, 3}}
}

// Fig6Row is one (nodes, CPs) pair of bars.
type Fig6Row struct {
	Nodes, CPs  int
	KeepAvg     float64 // avg cycle seconds, loaded node kept (successive balancing)
	DropAvg     float64 // avg cycle seconds, loaded node physically removed
	DropBenefit float64 // (Keep-Drop)/Keep; negative when dropping hurts
}

// Fig6Result holds the whole grid.
type Fig6Result struct {
	Rows []Fig6Row
}

// fig6World is one bar's world: SOR on nodes nodes with cps CPs on the
// middle node from the start, under drop policy drop.
func fig6World(nodes, cps int, drop core.DropPolicy, paper bool) sweep.World {
	// Ultra-Sparc 5 (360MHz) scale.
	w := sweep.World{App: "sor", Rows: 1024, Cols: 1024, Cost: 1500, Iters: 200, RingCap: traceCap}
	if !paper {
		// Sized so per-node cycles are much longer than the scheduler
		// quantum on 8 nodes (competitor spikes average out within a cycle
		// and keeping the loaded node pays off) but comparable to it on 32
		// (lumpy inflation and communication costs make dropping win) —
		// the crossover §5.3 demonstrates.
		w.Rows, w.Iters = 512, 120
	}
	w.Core = core.DefaultConfig()
	w.Core.Drop = drop
	w.Spec = cluster.Uniform(nodes)
	for i := 0; i < cps; i++ {
		w.Spec = w.Spec.With(cluster.TimeEvent(nodes/2, 0, +1))
	}
	return w
}

// RunFig6 executes the keep-vs-drop grid.
func RunFig6(o Fig6Options) (*Fig6Result, error) {
	if len(o.Nodes) == 0 {
		o.Nodes = []int{8, 16, 32}
	}
	if len(o.CPs) == 0 {
		o.CPs = []int{1, 2, 3}
	}
	var worlds []sweep.World
	for _, n := range o.Nodes {
		for _, k := range o.CPs {
			worlds = append(worlds, fig6World(n, k, core.DropNever, o.Paper), fig6World(n, k, core.DropAlways, o.Paper))
		}
	}
	avgs, _, err := steadyCycles(worlds)
	if err != nil {
		return nil, fmt.Errorf("fig6: %w", err)
	}
	out := &Fig6Result{}
	for i := 0; i < len(worlds); i += 2 {
		keep, drop := avgs[i], avgs[i+1]
		out.Rows = append(out.Rows, Fig6Row{
			Nodes: len(worlds[i].Spec.Nodes), CPs: len(worlds[i].Spec.Events),
			KeepAvg: keep, DropAvg: drop,
			DropBenefit: (keep - drop) / keep,
		})
	}
	return out, nil
}

// Benefit returns the drop benefit for a (nodes, cps) pair.
func (r *Fig6Result) Benefit(nodes, cps int) (float64, bool) {
	for _, row := range r.Rows {
		if row.Nodes == nodes && row.CPs == cps {
			return row.DropBenefit, true
		}
	}
	return 0, false
}

// Table renders the grid in the paper's layout.
func (r *Fig6Result) Table() *Table {
	t := &Table{
		Caption: "Figure 6: SOR average phase-cycle time after redistribution — keeping the loaded node vs physically dropping it",
		Header:  []string{"nodes", "CPs", "keep(ms)", "drop(ms)", "drop benefit"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(row.Nodes), fmt.Sprint(row.CPs),
			f2(row.KeepAvg * 1000), f2(row.DropAvg * 1000), pct(row.DropBenefit),
		})
	}
	return t
}
