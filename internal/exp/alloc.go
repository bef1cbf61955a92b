package exp

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/sweep"
	"repro/internal/vclock"
)

// This file is the §4.1 memory-allocation ablation (the Figure 3
// comparison, measured in the paper's technical report): the cost of
// redistributing dense arrays under the 2-D projection scheme versus the
// contiguous baseline, both as a microbenchmark and end-to-end.

const (
	// allocRows and allocCols size the microbenchmark array.
	allocRows, allocCols = 1024, 1024
	// allocMemBytes bounds node memory; the tight bound makes the
	// contiguous scheme's full reallocation page ("excessive disk
	// accesses").
	allocMemBytes = 24 << 20
)

// AllocRow is one shift size's measurement.
type AllocRow struct {
	ShiftRows     int
	ProjectionSec float64
	ContiguousSec float64
}

// AllocResult holds the microbenchmark sweep and the end-to-end times.
type AllocResult struct {
	Rows []AllocRow
	// EndToEnd compares a full adaptive Jacobi run under both schemes.
	ProjectionTotal, ContiguousTotal   float64
	ProjectionRedist, ContiguousRedist float64
}

// measureShift times growing a half-array window by shift rows under one
// scheme on a memory-constrained node.
func measureShift(scheme matrix.Alloc, shift int) float64 {
	spec := cluster.Uniform(1)
	spec.Nodes[0].MemBytes = allocMemBytes
	cl := cluster.New(spec)
	node := cl.Node(0)
	d := matrix.NewDense("A", allocRows, allocCols, scheme, node)
	d.SetWindow(0, allocRows/2)
	start := node.Now()
	d.SetWindow(0, allocRows/2+shift)
	return node.Now().Sub(start).Seconds()
}

// RunAlloc executes the allocation comparison.
func RunAlloc() (*AllocResult, error) {
	out := &AllocResult{}
	for _, shift := range []int{1, 8, 64, 256} {
		out.Rows = append(out.Rows, AllocRow{
			ShiftRows:     shift,
			ProjectionSec: measureShift(matrix.Projection, shift),
			ContiguousSec: measureShift(matrix.Contiguous, shift),
		})
	}

	// End to end: adaptive Jacobi with a CP, under each allocation scheme.
	var worlds []sweep.World
	for _, scheme := range []matrix.Alloc{matrix.Projection, matrix.Contiguous} {
		w := sweep.World{App: "jacobi", Rows: 512, Cols: 1024, Iters: 120, Cost: 300, Trace: true}
		w.Core = core.DefaultConfig()
		w.Core.Drop = core.DropNever
		w.Core.Alloc = scheme
		w.Spec = cluster.Uniform(4).With(cluster.CycleEvent(1, 10, +1))
		for i := range w.Spec.Nodes {
			w.Spec.Nodes[i].MemBytes = allocMemBytes
		}
		worlds = append(worlds, w)
	}
	var redist [2]float64
	res, err := runWorlds(worlds, func(i int, w sweep.Outcome) error {
		redist[i] = totalRedistSeconds(redistsOf(w.Ring))
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("alloc end-to-end: %w", err)
	}
	out.ProjectionTotal, out.ContiguousTotal = res[0].Elapsed, res[1].Elapsed
	out.ProjectionRedist, out.ContiguousRedist = redist[0], redist[1]
	return out, nil
}

// Table renders the comparison.
func (r *AllocResult) Table() *Table {
	t := &Table{
		Caption: "§4.1 memory allocation: 2-D projection vs contiguous (window grow cost on a memory-constrained node; end-to-end adaptive Jacobi)",
		Header:  []string{"case", "projection", "contiguous", "contiguous/projection"},
	}
	for _, row := range r.Rows {
		ratio := row.ContiguousSec / row.ProjectionSec
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("grow +%d rows", row.ShiftRows),
			vclock.FromSeconds(row.ProjectionSec).String(),
			vclock.FromSeconds(row.ContiguousSec).String(),
			f2(ratio),
		})
	}
	t.Rows = append(t.Rows,
		[]string{"jacobi total(s)", f2(r.ProjectionTotal), f2(r.ContiguousTotal), f2(r.ContiguousTotal / r.ProjectionTotal)},
		[]string{"jacobi redist(s)", f3(r.ProjectionRedist), f3(r.ContiguousRedist), f2(r.ContiguousRedist / r.ProjectionRedist)},
	)
	return t
}
