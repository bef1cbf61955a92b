package exp

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sweep"
)

// fig6Nodes are the node counts of the node-removal experiment (§5.3; the
// paper's 8, 16 and 32): Red-Black SOR with 1, 2 or 3 competing processes
// on a single node, comparing the average post-redistribution phase-cycle
// time of a distribution that keeps the loaded node against physically
// dropping it.
var fig6Nodes = []int{8, 16, 32}

// fig6CPs are the competing-process counts of every node count's rows.
var fig6CPs = []int{1, 2, 3}

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

// fig6Worlds returns, for every (nodes, CPs) row in order, its keep and
// drop worlds on the given node counts (nil: fig6Nodes): SOR at size with
// the CPs on the middle node from the start, under DropNever and
// DropAlways.
func fig6Worlds(nodes []int, size Size) (worlds []sweep.World) {
	base := size.inputs().fig6
	for _, n := range ladder(nodes, fig6Nodes) {
		for _, k := range fig6CPs {
			w := base
			w.Trace = true
			w.Spec = cluster.Uniform(n)
			for i := 0; i < k; i++ {
				w.Spec = w.Spec.With(cluster.TimeEvent(n/2, 0, +1))
			}
			for _, drop := range []core.DropPolicy{core.DropNever, core.DropAlways} {
				w.Core = core.DefaultConfig()
				w.Core.Drop = drop
				worlds = append(worlds, w)
			}
		}
	}
	return worlds
}

// RunFig6 executes the keep-vs-drop grid at size on the given node counts
// (nil: the paper's 8, 16 and 32).
func RunFig6(nodes []int, size Size) (*Fig6Result, error) {
	worlds := fig6Worlds(nodes, size)
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
