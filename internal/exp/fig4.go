package exp

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sweep"
)

// fig4Nodes are Figure 4's node counts (the paper's 2, 4 and 8): all four
// applications run on each, with one competing process introduced on one
// node at the 10th iteration and times normalised to the all-dedicated run.
var fig4Nodes = []int{2, 4, 8}

// Fig4Row is one (app, nodes) measurement.
type Fig4Row struct {
	App       string
	Nodes     int
	Dedicated float64 // absolute seconds
	NoAdapt   float64 // normalised to Dedicated
	DynMPI    float64 // normalised to Dedicated
	Redists   int
}

// Fig4Result holds every row of the Figure 4 reproduction.
type Fig4Result struct {
	Rows []Fig4Row
}

// Improvement reports Dyn-MPI's mean improvement over no adaptation
// (the paper reports an average of 72%).
func (r *Fig4Result) Improvement() float64 {
	if len(r.Rows) == 0 {
		return 0
	}
	s := 0.0
	for _, row := range r.Rows {
		s += (row.NoAdapt - row.DynMPI) / row.DynMPI
	}
	return s / float64(len(r.Rows))
}

// Slowdown reports the mean Dyn-MPI slowdown versus dedicated (paper: 29%).
func (r *Fig4Result) Slowdown() float64 {
	if len(r.Rows) == 0 {
		return 0
	}
	s := 0.0
	for _, row := range r.Rows {
		s += row.DynMPI - 1
	}
	return s / float64(len(r.Rows))
}

// fig4Worlds returns, for every (app, nodes) row in order, its dedicated,
// no-adapt and Dyn-MPI worlds at size, on the given node counts (nil:
// fig4Nodes). The loaded worlds get
// the paper's scenario: one CP on the 10th iteration, on node 1 (node 0
// for particles, whose P0 holds twice the particles).
func fig4Worlds(nodes []int, size Size) (worlds []sweep.World) {
	for _, w := range size.inputs().fig4 {
		cpNode := 1
		if w.App == "particles" {
			cpNode = 0
			w.ExtraAllP0 = 1 // "one node had twice as many particles": one more per cell
		}
		for _, n := range ladder(nodes, fig4Nodes) {
			ded := w
			ded.Spec = cluster.Uniform(n)
			non := ded
			non.Spec = ded.Spec.With(cluster.CycleEvent(min(cpNode, n-1), 10, +1))
			dyn := non
			dyn.Core = core.DefaultConfig()
			worlds = append(worlds, ded, non, dyn)
		}
	}
	return worlds
}

// RunFig4 executes the Figure 4 matrix at size on the given node counts
// (nil: the paper's 2, 4 and 8).
func RunFig4(nodes []int, size Size) (*Fig4Result, error) {
	worlds := fig4Worlds(nodes, size)
	out, err := runWorlds(worlds, nil)
	if err != nil {
		return nil, fmt.Errorf("fig4: %w", err)
	}
	res := &Fig4Result{}
	for i := 0; i < len(worlds); i += 3 {
		ded, non, dyn := out[i], out[i+1], out[i+2]
		res.Rows = append(res.Rows, Fig4Row{
			App:       worlds[i].App,
			Nodes:     len(worlds[i].Spec.Nodes),
			Dedicated: ded.Elapsed,
			NoAdapt:   non.Elapsed / ded.Elapsed,
			DynMPI:    dyn.Elapsed / ded.Elapsed,
			Redists:   dyn.Redists,
		})
	}
	return res, nil
}

// Table renders the result in the paper's normalised form.
func (r *Fig4Result) Table() *Table {
	t := &Table{
		Caption: "Figure 4: execution time relative to the all-dedicated run (one CP introduced on iteration 10; smaller is better)",
		Header:  []string{"app", "nodes", "dedicated(s)", "no-adapt", "dyn-mpi", "improvement", "redists"},
	}
	for _, row := range r.Rows {
		imp := (row.NoAdapt - row.DynMPI) / row.DynMPI
		t.Rows = append(t.Rows, []string{
			row.App, fmt.Sprint(row.Nodes), f2(row.Dedicated),
			f2(row.NoAdapt), f2(row.DynMPI), pct(imp), fmt.Sprint(row.Redists),
		})
	}
	t.Rows = append(t.Rows, []string{"mean", "", "", "", "", pct(r.Improvement()), ""})
	t.Notes = []string{fmt.Sprintf("mean improvement over no-adapt: %s (paper: 72%%); mean slowdown vs dedicated: %s (paper: 29%%)",
		pct(r.Improvement()), pct(r.Slowdown()))}
	return t
}
