package exp

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sweep"
)

// Fig4Options parameterises the Figure 4 reproduction: all four
// applications on 2/4/8 nodes, one competing process introduced on one
// node at the 10th iteration, times normalised to the all-dedicated run.
type Fig4Options struct {
	// Nodes lists the configurations (paper: 2, 4, 8).
	Nodes []int
	// Apps restricts the applications (default all four).
	Apps []string
	// Paper selects the paper's input sizes (2048² Jacobi/SOR, 14000 CG,
	// 256² particles); default is a scaled configuration with matching
	// computation/communication ratios.
	Paper bool
	// Seed offsets the cluster seeds (for replication studies).
	Seed uint64
}

// DefaultFig4Options returns the paper's configuration at laptop scale.
func DefaultFig4Options() Fig4Options {
	return Fig4Options{Nodes: []int{2, 4, 8}, Apps: []string{"jacobi", "sor", "cg", "particles"}}
}

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

// fig4Apps are Figure 4's applications in row order.
var fig4Apps = []string{"jacobi", "sor", "cg", "particles"}

// fig4Worlds returns, for every selected (app, nodes) row in order, its
// dedicated, no-adapt and Dyn-MPI worlds. The loaded worlds get the
// paper's scenario: one CP on the 10th iteration, on node 1 (node 0 for
// particles, whose P0 holds twice the particles).
func fig4Worlds(o Fig4Options) (worlds []sweep.World) {
	want := map[string]bool{}
	for _, a := range o.Apps {
		want[a] = true
	}
	for _, app := range fig4Apps {
		if len(o.Apps) > 0 && !want[app] {
			continue
		}
		w := sweep.World{App: app}
		switch {
		case app == "cg" && o.Paper:
			w.N, w.Iters, w.Cost = 14000, 75, 2750
		case app == "cg":
			w.N, w.Iters, w.Cost = 2000, 150, 4600
		case app == "particles" && o.Paper:
			w.Rows, w.Cols, w.Iters = 256, 256, 200
		case app == "particles":
			w.Rows, w.Cols, w.Iters, w.Cost = 128, 128, 250, 5000
		case o.Paper:
			w.Rows, w.Cols, w.Iters, w.Cost = 2048, 2048, 250, 40
		default:
			// Scaled for laptop runs; comp/comm ratios calibrated to the
			// paper's testbed (see EXPERIMENTS.md).
			w.Rows, w.Cols, w.Iters, w.Cost = 512, 512, 250, 600
		}
		cpNode := 1
		if app == "particles" {
			cpNode = 0
			w.ExtraAllP0 = 1 // "one node had twice as many particles": one more per cell
		}
		for _, n := range o.Nodes {
			ded := w
			ded.Spec = cluster.Uniform(n)
			ded.Spec.Seed += o.Seed
			non := ded
			non.Spec = ded.Spec.With(cluster.CycleEvent(min(cpNode, n-1), 10, +1))
			dyn := non
			dyn.Core = core.DefaultConfig()
			worlds = append(worlds, ded, non, dyn)
		}
	}
	return worlds
}

// RunFig4 executes the Figure 4 matrix.
func RunFig4(o Fig4Options) (*Fig4Result, error) {
	if len(o.Nodes) == 0 {
		o.Nodes = []int{2, 4, 8}
	}
	worlds := fig4Worlds(o)
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
	return t
}
