// Package sor implements Red-Black successive over-relaxation, the paper's
// second evaluation application (§5.3). Each phase cycle consists of two
// half-phases — update the red points, exchange halos, update the black
// points, exchange halos — giving SOR a smaller computation/communication
// ratio than Jacobi, which is exactly why the paper uses it to demonstrate
// node removal.
package sor

import (
	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/drsd"
	"repro/internal/vclock"
)

// Config parameterises an SOR run.
type Config struct {
	// Rows and Cols give the grid size (the paper's §5.3 uses 1024x1024).
	Rows, Cols int
	// Iters is the number of phase cycles.
	Iters int
	// Omega is the over-relaxation factor.
	Omega float64
	// CostPerElem is the modelled reference-CPU cost of one point update
	// in nanoseconds.
	CostPerElem float64
	// Overlap enables the overlapped halo exchange in both half-phases:
	// boundary rows are swept first and shipped nonblockingly, the interior
	// sweep folds over the wire time, and the ghosts are awaited only at
	// the half-phase end. Red updates read only black points and vice
	// versa, so within-half-phase row order is numerically free; the black
	// sweep still observes the red-updated ghosts because the red
	// exchange finishes before it starts. Off by default so pinned timings
	// stay byte-identical.
	Overlap bool
	// ResizeTo, when positive, requests an elastic resize of the active set
	// to that many ranks at the start of iteration ResizeAt.
	ResizeTo int
	// ResizeAt is the iteration at which ResizeTo is requested.
	ResizeAt int
	// Core configures the Dyn-MPI runtime.
	Core core.Config
}

// DefaultConfig returns a laptop-scale configuration.
func DefaultConfig() Config {
	return Config{Rows: 512, Cols: 512, Iters: 100, Omega: 1.5, CostPerElem: 40, Core: core.DefaultConfig()}
}

const (
	redTag   = 11
	blackTag = 12
)

// Run executes Red-Black SOR on the cluster and returns the result.
func Run(cl *cluster.Cluster, cfg Config) (apps.Result, error) {
	return apps.Run(cl, cfg.Core, func(rt *core.Runtime) (float64, int64, error) {
		u := rt.RegisterDense("U", cfg.Rows, cfg.Cols)
		ph := rt.InitPhase(cfg.Rows)
		ph.AddAccess("U", drsd.ReadWrite, 1, 0)
		ph.AddAccess("U", drsd.Read, 1, -1)
		ph.AddAccess("U", drsd.Read, 1, +1)
		rt.Commit()
		start := 0
		if rt.Joined() {
			// A mid-run joiner's rows arrived in the admission redistribution
			// Commit just ran; start at the world's current cycle and do not
			// overwrite them with the initial fill.
			start = rt.Cycle()
		} else {
			u.Fill(func(g, j int) float64 {
				if g == 0 || g == cfg.Rows-1 || j == 0 || j == cfg.Cols-1 {
					return float64((g*13+j*7)%100) / 10
				}
				return 0
			})
		}

		// Each half-phase touches half the points of each row.
		halfRowCost := vclock.Duration(float64(cfg.Cols) * cfg.CostPerElem / 2)
		// sweep updates the points of one colour in rows [lo,hi) and charges
		// the range: one half-row sample per row, as if row by row, since no
		// message leaves between a row's arithmetic and its charge. The rows
		// roll down the range, and the inner loop is shaped so the compiler
		// proves every index in bounds: equal lengths by re-slicing to cols,
		// a start it knows is at least 1 (&1, not %2), a limit of len-1, the
		// right neighbour through a shifted slice.
		rows, cols, omega := cfg.Rows, cfg.Cols, cfg.Omega
		sweep := func(lo, hi, color int) {
			var prev, cur []float64 // rows g-1 and g, rolled from row to row
			for g := lo; g < hi; g++ {
				if g == 0 || g == rows-1 {
					continue // the grid's edge rows are fixed
				}
				if prev == nil { // in the loop, where internal/translate reads the references
					prev, cur = u.Row(g-1), u.Row(g)
				}
				up, mid, down := prev[:cols], cur[:cols], u.Row(g + 1)[:cols]
				right := mid[1:] // right[j] is mid[j+1]
				for j := 1 + (g+color+1)&1; j < len(mid)-1; j += 2 {
					res := 0.25*(up[j]+down[j]+mid[j-1]+right[j]) - mid[j]
					mid[j] += omega * res
				}
				prev, cur = mid, down
			}
			rt.ComputeIters(lo, hi, halfRowCost)
		}
		rowOf := func(g int) []float64 { return u.Row(g) }
		storeGhost := func(g int, row []float64) { copy(u.Row(g), row) }
		red := func(lo, hi int) { sweep(lo, hi, 0) }
		black := func(lo, hi int) { sweep(lo, hi, 1) }
		for t := start; t < cfg.Iters; t++ {
			if cfg.ResizeTo > 0 && t == cfg.ResizeAt && rt.Participating() {
				rt.Resize(cfg.ResizeTo)
			}
			if rt.BeginCycle() {
				lo, hi := ph.Bounds()
				apps.HaloStep(rt, redTag, cfg.Rows, lo, hi, cfg.Overlap, red, rowOf, storeGhost)
				apps.HaloStep(rt, blackTag, cfg.Rows, lo, hi, cfg.Overlap, black, rowOf, storeGhost)
			}
			rt.EndCycle()
		}

		lo, hi := 0, 0
		if rt.Participating() {
			lo, hi = ph.Bounds()
		}
		return apps.OrderedChecksum(rt, cfg.Rows, lo, hi, func(g int) float64 {
			s := 0.0
			for _, v := range u.Row(g) {
				s += v
			}
			return s
		}), 0, nil
	})
}
