// Package cg implements the paper's sparse application: a conjugate
// gradient solver in the style of NAS CG (§5.1) over a synthetic random
// sparse system. The matrix rows are block-distributed and registered with
// the runtime as a sparse array in the vector-of-lists format, so
// redistribution moves both data and metadata (§4.1.2).
//
// Substitution note (see DESIGN.md): the NAS input is replaced by a
// deterministic, diagonally dominant random sparse system with the same
// density (~13 nonzeros per row for class-A-like runs). The iteration
// vectors are kept replicated so that dot products are computed in a fixed
// order on every rank, making the numerical results bit-identical across
// distributions — only the matrix (the dominant data) is distributed, and
// the per-iteration communication (assembling q = A·p) matches the
// row-distributed SpMV volume of the original.
package cg

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/drsd"
	"repro/internal/mpi"
	"repro/internal/vclock"
)

// Config parameterises a CG run.
type Config struct {
	// N is the system size (the paper uses 14000).
	N int
	// NnzPerRow is the number of off-diagonal entries per row.
	NnzPerRow int
	// Iters is the number of CG iterations (phase cycles).
	Iters int
	// CostPerNnz is the modelled reference cost of one multiply-add in the
	// SpMV, in nanoseconds.
	CostPerNnz float64
	// CostPerVecElem is the modelled per-element cost of the iteration's
	// vector operations, in nanoseconds.
	CostPerVecElem float64
	// Seed drives the deterministic matrix generator.
	Seed uint64
	// Core configures the Dyn-MPI runtime.
	Core core.Config
}

// DefaultConfig returns a laptop-scale configuration.
func DefaultConfig() Config {
	return Config{
		N: 2000, NnzPerRow: 12, Iters: 60,
		CostPerNnz: 100, CostPerVecElem: 60,
		Seed: 7, Core: core.DefaultConfig(),
	}
}

// rowPattern returns the deterministic off-diagonal column ids and values
// of row g, written over cols and vals (regrown if they are short). All
// ranks generate identical rows.
func rowPattern(seed uint64, g, n, nnz int, cols []int32, vals []float64) ([]int32, []float64) {
	rng := vclock.NewPRNG(seed).Fork(uint64(g) + 1)
	cols, vals = cols[:0], vals[:0]
draw:
	for len(cols) < nnz {
		c := int32(rng.Intn(n))
		if c == int32(g) {
			continue
		}
		for _, seen := range cols { // at most nnz entries: cheaper than a set
			if seen == c {
				continue draw
			}
		}
		cols = append(cols, c)
		vals = append(vals, rng.Float64()*0.1)
	}
	return cols, vals
}

// Run executes the CG solver on the cluster and returns the result. The
// checksum is the final residual norm, bit-identical across distributions.
func Run(cl *cluster.Cluster, cfg Config) (apps.Result, error) {
	return apps.Run(cl, cfg.Core, func(rt *core.Runtime) (float64, int64, error) {
		a := rt.RegisterSparse("A", cfg.N)
		ph := rt.InitPhase(cfg.N)
		ph.AddAccess("A", drsd.ReadWrite, 1, 0)
		rt.Commit()
		if rt.Joined() {
			return 0, 0, fmt.Errorf("cg: %w", apps.ErrNoJoiner)
		}

		lo, hi := ph.Bounds()
		cols, vals := make([]int32, 0, cfg.NnzPerRow), make([]float64, 0, cfg.NnzPerRow)
		for g := lo; g < hi; g++ {
			cols, vals = rowPattern(cfg.Seed, g, cfg.N, cfg.NnzPerRow, cols, vals)
			diag := 1.0
			for _, v := range vals {
				diag += v // diagonal dominance
			}
			a.Append(g, int32(g), diag)
			for i := range cols {
				a.Append(g, cols[i], vals[i])
			}
		}

		// Replicated iteration vectors (deterministic dot products).
		b := make([]float64, cfg.N)
		for i := range b {
			b[i] = 1.0
		}
		x := make([]float64, cfg.N)
		r := append([]float64(nil), b...)
		p := append([]float64(nil), b...)
		rho := dot(r, r)

		vecCost := func(owned int) vclock.Duration {
			return vclock.Duration(float64(owned) * cfg.CostPerVecElem * 8)
		}
		var resNorm float64
		// One reduction buffer for the whole solve: each iteration zeroes
		// it, deposits the owned partial products, and reduces in place.
		q := make([]float64, cfg.N)
		for t := 0; t < cfg.Iters; t++ {
			qContrib := q
			clear(qContrib)
			if rt.BeginCycle() {
				lo, hi = ph.Bounds()
				for g := lo; g < hi; g++ {
					s := 0.0
					for e := a.RowHead(g); e != nil; e = e.Next() {
						s += e.Val * p[e.Col]
					}
					qContrib[g] = s
					rt.ComputeIter(g, vclock.Duration(float64(a.RowLen(g))*cfg.CostPerNnz))
				}
				rt.Compute(vecCost(hi - lo))
			}
			// Assemble the full q on every rank (the SpMV exchange).
			rt.AllreduceF64sInto(qContrib, mpi.Sum)
			// Replicated vector updates: identical arithmetic everywhere.
			alpha := rho / dot(p, q)
			for i := range x {
				x[i] += alpha * p[i]
				r[i] -= alpha * q[i]
			}
			rhoNew := dot(r, r)
			beta := rhoNew / rho
			rho = rhoNew
			for i := range p {
				p[i] = r[i] + beta*p[i]
			}
			resNorm = rho
			rt.EndCycle()
		}
		return resNorm, 0, nil
	})
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
