// Package jacobi implements the paper's first evaluation application:
// Jacobi iteration for solving partial differential equations on an N×M
// grid of doubles (§5, Figure 1/2). Rows are block-distributed; each phase
// cycle computes every interior point as the average of its four
// neighbours, then performs a nearest-neighbour halo exchange.
//
// Two arrays alternate roles each cycle (ping-pong), so both are
// registered with the runtime and both carry ±1 read accesses — after a
// redistribution the runtime re-fetches exactly the ghost rows the DRSDs
// demand.
package jacobi

import (
	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/drsd"
	"repro/internal/vclock"
)

// Config parameterises a Jacobi run.
type Config struct {
	// Rows and Cols give the grid size (the paper uses 2048x2048).
	Rows, Cols int
	// Iters is the number of phase cycles (the paper uses 250).
	Iters int
	// CostPerElem is the modelled reference-CPU cost of one grid-point
	// update in nanoseconds.
	CostPerElem float64
	// Overlap enables the double-buffered overlapped halo exchange: each
	// cycle computes its boundary rows first, ships them nonblockingly,
	// folds the interior compute over the wire time, and only then waits
	// for the ghosts. Virtual iteration time shrinks by the hidden wire
	// time; the checksum is unchanged (rows are computed from the previous
	// buffer regardless of order). Off by default so existing pinned
	// timings and golden traces stay byte-identical.
	Overlap bool
	// ResizeTo, when positive, requests an elastic resize of the active set
	// to that many ranks at the start of iteration ResizeAt (every active
	// rank calls core.Runtime.Resize there). Growth claims the cluster's
	// reserve arrival capacity; shrinkage releases the highest active ranks.
	ResizeTo int
	// ResizeAt is the iteration at which ResizeTo is requested.
	ResizeAt int
	// Core configures the Dyn-MPI runtime.
	Core core.Config
}

// DefaultConfig returns a laptop-scale configuration with a
// computation/communication ratio comparable to the paper's 2048² runs.
func DefaultConfig() Config {
	return Config{Rows: 512, Cols: 512, Iters: 100, CostPerElem: 40, Core: core.DefaultConfig()}
}

const haloTag = 7

// Run executes Jacobi iteration on the cluster and returns the result.
func Run(cl *cluster.Cluster, cfg Config) (apps.Result, error) {
	return apps.Run(cl, cfg.Core, func(rt *core.Runtime) (float64, int64, error) {
		a := rt.RegisterDense("A", cfg.Rows, cfg.Cols)
		b := rt.RegisterDense("B", cfg.Rows, cfg.Cols)
		ph := rt.InitPhase(cfg.Rows)
		for _, name := range []string{"A", "B"} {
			ph.AddAccess(name, drsd.ReadWrite, 1, 0)
			ph.AddAccess(name, drsd.Read, 1, -1)
			ph.AddAccess(name, drsd.Read, 1, +1)
		}
		rt.Commit()
		start := 0
		if rt.Joined() {
			// A mid-run joiner: its rows (current values included) arrived in
			// the admission redistribution Commit just ran, so the initial
			// fill must not overwrite them, and the cycle loop starts at the
			// cycle the world is on.
			start = rt.Cycle()
		} else {
			init := func(g, j int) float64 {
				// Fixed hot boundary, cold interior.
				if g == 0 || g == cfg.Rows-1 || j == 0 || j == cfg.Cols-1 {
					return float64((g*31+j*17)%100) / 10
				}
				return 0
			}
			a.Fill(init)
			b.Fill(init)
		}

		rowCost := vclock.Duration(float64(cfg.Cols) * cfg.CostPerElem)
		src, dst := b, a
		if start%2 == 1 {
			// At the start of iteration t the source buffer is b for even t;
			// align the joiner's ping-pong parity with the world's.
			src, dst = dst, src
		}
		// computeRows produces dst rows [lo,hi) from the src buffer and
		// charges them as one range. Rows only read src (and the ghosts
		// stored into it last cycle), so computation order within a cycle is
		// free — the overlapped path does the boundary rows first — and no
		// message leaves between a row's arithmetic and its charge, so
		// charging after the range is charging row by row. The source rows
		// roll down the range, and the inner loop is shaped so the compiler
		// proves every index in bounds: equal lengths by re-slicing to cols,
		// a limit of len-1, the right neighbour through a shifted slice.
		rows, cols := cfg.Rows, cfg.Cols
		computeRows := func(lo, hi int) {
			var prev, cur []float64 // src rows g-1 and g, rolled from row to row
			for g := lo; g < hi; g++ {
				if g == 0 || g == rows-1 {
					copy(dst.Row(g), src.Row(g))
					continue
				}
				if prev == nil { // in the loop, where internal/translate reads the references
					prev, cur = src.Row(g-1), src.Row(g)
				}
				up, mid, down, out := prev[:cols], cur[:cols], src.Row(g + 1)[:cols], dst.Row(g)[:cols]
				right := mid[1:] // right[j] is mid[j+1]
				for j := 1; j < len(mid)-1; j++ {
					out[j] = 0.25 * (up[j] + down[j] + mid[j-1] + right[j])
				}
				out[0], out[cols-1] = mid[0], mid[cols-1]
				prev, cur = mid, down
			}
			rt.ComputeIters(lo, hi, rowCost)
		}
		rowOf := func(g int) []float64 { return dst.Row(g) }
		storeGhost := func(g int, row []float64) { copy(dst.Row(g), row) }
		for t := start; t < cfg.Iters; t++ {
			if cfg.ResizeTo > 0 && t == cfg.ResizeAt && rt.Participating() {
				rt.Resize(cfg.ResizeTo)
			}
			if rt.BeginCycle() {
				lo, hi := ph.Bounds()
				apps.HaloStep(rt, haloTag, cfg.Rows, lo, hi, cfg.Overlap, computeRows, rowOf, storeGhost)
			}
			rt.EndCycle()
			src, dst = dst, src
		}
		lo, hi := 0, 0
		if rt.Participating() {
			lo, hi = ph.Bounds()
		}
		return apps.OrderedChecksum(rt, cfg.Rows, lo, hi, func(g int) float64 {
			s := 0.0
			for _, v := range src.Row(g) { // src holds the final values after the last swap
				s += v
			}
			return s
		}), 0, nil
	})
}
