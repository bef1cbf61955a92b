package exp

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// CGTableOptions parameterises the §5.1 CG case study: the 4-node run the
// paper walks through in detail (dedicated 37.5s → 73.0s without
// adaptation → 45.1s with Dyn-MPI; chosen distribution 2/7,2/7,2/7,1/7 with
// ~1s of redistribution overhead).
type CGTableOptions struct {
	Nodes int
	Paper bool
}

// DefaultCGTableOptions returns the paper's 4-node configuration.
func DefaultCGTableOptions() CGTableOptions { return CGTableOptions{Nodes: 4} }

// CGTableResult holds the case-study measurements.
type CGTableResult struct {
	Dedicated float64
	NoAdapt   float64
	DynMPI    float64
	// Counts is the distribution Dyn-MPI chose (iterations per node).
	Counts []int
	// RedistSeconds is the measured redistribution overhead.
	RedistSeconds float64
	// IdealFraction is the loaded node's relative-power share (paper: 1/7).
	IdealFraction float64
}

// RunCGTable executes the §5.1 CG case study.
func RunCGTable(o CGTableOptions) (*CGTableResult, error) {
	if o.Nodes == 0 {
		o.Nodes = 4
	}
	ded := sweep.World{App: "cg", Spec: cluster.Uniform(o.Nodes), N: 2000, Iters: 100, Cost: 4600}
	if o.Paper {
		ded.N, ded.Iters, ded.Cost = 14000, 75, 2750
	}
	non := ded
	non.Spec = ded.Spec.With(cluster.CycleEvent(1, 10, +1))
	dyn := non
	dyn.Core = core.DefaultConfig()
	dyn.Core.Drop = core.DropNever // the case study keeps the loaded node
	dyn.RingCap = traceCap
	var redists [][]telemetry.RedistRecord
	out, err := runWorlds([]sweep.World{ded, non, dyn}, func(i int, o sweep.Outcome) error {
		if i == 2 {
			redists = redistsOf(o.Ring)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cg-table: %w", err)
	}
	res := &CGTableResult{
		Dedicated:     out[0].Elapsed,
		NoAdapt:       out[1].Elapsed,
		DynMPI:        out[2].Elapsed,
		RedistSeconds: totalRedistSeconds(redists),
		IdealFraction: (1.0 / 2) / (float64(o.Nodes-1) + 1.0/2),
	}
	// The chosen distribution is recorded on every redistribution record.
	for _, recs := range redists {
		for _, r := range recs {
			if len(r.Counts) > 0 {
				res.Counts = r.Counts
			}
		}
	}
	return res, nil
}

// Table renders the case study.
func (r *CGTableResult) Table() *Table {
	t := &Table{
		Caption: "§5.1 CG case study (4 nodes, one CP on node 1 at iteration 10)",
		Header:  []string{"configuration", "time(s)", "vs dedicated"},
	}
	t.Rows = append(t.Rows,
		[]string{"dedicated", f2(r.Dedicated), "1.00"},
		[]string{"no adaptation", f2(r.NoAdapt), f2(r.NoAdapt / r.Dedicated)},
		[]string{"dyn-mpi", f2(r.DynMPI), f2(r.DynMPI / r.Dedicated)},
	)
	if len(r.Counts) > 0 {
		t.Rows = append(t.Rows, []string{"chosen counts", fmt.Sprint(r.Counts), ""})
	}
	t.Rows = append(t.Rows,
		[]string{"redist overhead(s)", f3(r.RedistSeconds), pct(r.RedistSeconds / r.DynMPI)},
		[]string{"relative-power share of loaded node", f3(r.IdealFraction), ""},
	)
	return t
}
