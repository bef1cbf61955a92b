package exp

import (
	"fmt"

	"repro/internal/apps/jacobi"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/vclock"
)

// AllocOptions parameterises the §4.1 memory-allocation ablation (the
// Figure 3 comparison, measured in the paper's technical report): the cost
// of redistributing dense arrays under the 2-D projection scheme versus
// the contiguous baseline, both as a microbenchmark and end-to-end.
type AllocOptions struct {
	// Rows/Cols size the microbenchmark array.
	Rows, Cols int
	// MemBytes bounds node memory; a tight bound makes the contiguous
	// scheme's full reallocation page ("excessive disk accesses").
	MemBytes int64
	Paper    bool
}

// DefaultAllocOptions returns the scaled configuration.
func DefaultAllocOptions() AllocOptions {
	return AllocOptions{Rows: 1024, Cols: 1024, MemBytes: 24 << 20}
}

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
func measureShift(o AllocOptions, scheme matrix.Alloc, shift int) float64 {
	spec := cluster.Uniform(1)
	spec.Nodes[0].MemBytes = o.MemBytes
	cl := cluster.New(spec)
	node := cl.Node(0)
	d := matrix.NewDense("A", o.Rows, o.Cols, scheme, node)
	d.SetWindow(0, o.Rows/2)
	start := node.Now()
	d.SetWindow(0, o.Rows/2+shift)
	return node.Now().Sub(start).Seconds()
}

// RunAlloc executes the allocation comparison.
func RunAlloc(o AllocOptions) (*AllocResult, error) {
	if o.Rows == 0 {
		d := DefaultAllocOptions()
		o.Rows, o.Cols, o.MemBytes = d.Rows, d.Cols, d.MemBytes
	}
	out := &AllocResult{}
	for _, shift := range []int{1, 8, 64, 256} {
		out.Rows = append(out.Rows, AllocRow{
			ShiftRows:     shift,
			ProjectionSec: measureShift(o, matrix.Projection, shift),
			ContiguousSec: measureShift(o, matrix.Contiguous, shift),
		})
	}

	// End to end: adaptive Jacobi with a CP, under each allocation scheme.
	for _, scheme := range []matrix.Alloc{matrix.Projection, matrix.Contiguous} {
		cfg := jacobi.DefaultConfig()
		cfg.Rows, cfg.Cols, cfg.Iters, cfg.CostPerElem = 512, 1024, 120, 300
		cfg.Core = core.DefaultConfig()
		cfg.Core.Drop = core.DropNever
		cfg.Core.Alloc = scheme
		ring := traced(&cfg.Core)
		spec := cluster.Uniform(4).With(cluster.CycleEvent(1, 10, +1))
		for i := range spec.Nodes {
			spec.Nodes[i].MemBytes = o.MemBytes
		}
		res, err := jacobi.Run(cluster.New(spec), cfg)
		if err != nil {
			return nil, fmt.Errorf("alloc end-to-end %v: %w", scheme, err)
		}
		redists, err := redistsOf(ring)
		if err != nil {
			return nil, fmt.Errorf("alloc end-to-end %v: %w", scheme, err)
		}
		if scheme == matrix.Projection {
			out.ProjectionTotal = res.Elapsed
			out.ProjectionRedist = totalRedistSeconds(redists)
		} else {
			out.ContiguousTotal = res.Elapsed
			out.ContiguousRedist = totalRedistSeconds(redists)
		}
	}
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
