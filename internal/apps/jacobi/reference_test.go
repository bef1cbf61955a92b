package jacobi

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/drsd"
	"repro/internal/mpi"
	"repro/internal/vclock"
)

// runPerRow is Run's rank body as it stood before the range form: every row
// fetched through Dense.Row, indexed by cfg.Cols and charged on its own with
// ComputeIter. Kept as the model the range kernel is tested against (no
// resize, joiner or hook handling — the cases below use none).
func runPerRow(cl *cluster.Cluster, cfg Config) (apps.Result, error) {
	col := apps.NewCollector()
	err := mpi.Run(cl, func(c *mpi.Comm) error {
		rt := core.New(c, cfg.Core)
		a := rt.RegisterDense("A", cfg.Rows, cfg.Cols)
		b := rt.RegisterDense("B", cfg.Rows, cfg.Cols)
		ph := rt.InitPhase(cfg.Rows)
		for _, name := range []string{"A", "B"} {
			ph.AddAccess(name, drsd.ReadWrite, 1, 0)
			ph.AddAccess(name, drsd.Read, 1, -1)
			ph.AddAccess(name, drsd.Read, 1, +1)
		}
		rt.Commit()
		init := func(g, j int) float64 {
			if g == 0 || g == cfg.Rows-1 || j == 0 || j == cfg.Cols-1 {
				return float64((g*31+j*17)%100) / 10
			}
			return 0
		}
		a.Fill(init)
		b.Fill(init)

		rowCost := vclock.Duration(float64(cfg.Cols) * cfg.CostPerElem)
		src, dst := b, a
		computeRow := func(g int) {
			if g > 0 && g < cfg.Rows-1 {
				up, mid, down := src.Row(g-1), src.Row(g), src.Row(g+1)
				out := dst.Row(g)
				for j := 1; j < cfg.Cols-1; j++ {
					out[j] = 0.25 * (up[j] + down[j] + mid[j-1] + mid[j+1])
				}
				out[0], out[cfg.Cols-1] = mid[0], mid[cfg.Cols-1]
			} else {
				copy(dst.Row(g), src.Row(g))
			}
			rt.ComputeIter(g, rowCost)
		}
		rowOf := func(g int) []float64 { return dst.Row(g) }
		storeGhost := func(g int, row []float64) { copy(dst.Row(g), row) }
		for t := 0; t < cfg.Iters; t++ {
			if rt.BeginCycle() {
				lo, hi := ph.Bounds()
				if cfg.Overlap {
					if lo < hi {
						computeRow(lo)
						if hi-1 > lo {
							computeRow(hi - 1)
						}
					}
					apps.HaloExchangeOverlap(rt, haloTag, cfg.Rows, rowOf, storeGhost, func() {
						for g := lo + 1; g < hi-1; g++ {
							computeRow(g)
						}
					})
				} else {
					for g := lo; g < hi; g++ {
						computeRow(g)
					}
					apps.HaloExchange(rt, haloTag, cfg.Rows, rowOf, storeGhost)
				}
			}
			rt.EndCycle()
			src, dst = dst, src
		}
		lo, hi := 0, 0
		if rt.Participating() {
			lo, hi = ph.Bounds()
		}
		sum := apps.OrderedChecksum(rt, cfg.Rows, lo, hi, func(g int) float64 {
			s := 0.0
			for _, v := range src.Row(g) {
				s += v
			}
			return s
		})
		rt.Finalize()
		col.Report(rt, sum, 0)
		return nil
	})
	if err != nil {
		return apps.Result{}, err
	}
	return col.Result(cl.MaxN()), nil
}

// The range kernel and its bulk charge are the per-row body bit for bit —
// checksum, makespan, every rank's finish time, message count and event
// trace — at the column counts where the inner loop is empty, one point
// and odd/even, with windows of one row, two rows and many, blocking and
// overlapped, over a run that holds a grace period (per-row stamps), a
// redistribution and a drop.
func TestRangeKernelMatchesPerRowReference(t *testing.T) {
	const ranks, iters = 4, 36
	for _, cols := range []int{3, 4, 31, 32} {
		for _, rows := range []int{ranks, 2 * ranks, 6*ranks + 1} {
			for _, overlap := range []bool{false, true} {
				cfg := DefaultConfig()
				cfg.Rows, cfg.Cols, cfg.Iters, cfg.Overlap = rows, cols, iters, overlap
				// ~60 ms of rows per rank and cycle: the 1 s load monitor sees the CP.
				cfg.CostPerElem = 60e6 / float64(cols*rows/ranks)
				cfg.Core.Drop = core.DropAlways
				spec := loadedSpec(ranks, 2, 3)
				t.Run(fmt.Sprintf("cols=%d/rows=%d/overlap=%v", cols, rows, overlap), func(t *testing.T) {
					want, err := runPerRow(cluster.New(spec), cfg)
					if err != nil {
						t.Fatal(err)
					}
					got, err := Run(cluster.New(spec), cfg)
					if err != nil {
						t.Fatal(err)
					}
					if want.Redists == 0 || !want.Stats[2].Removed {
						t.Fatalf("scenario broken: %d redistributions, node 2 removed=%v", want.Redists, want.Stats[2].Removed)
					}
					if got.Checksum != want.Checksum || got.Elapsed != want.Elapsed {
						t.Errorf("checksum/makespan %v/%v, per-row reference %v/%v", got.Checksum, got.Elapsed, want.Checksum, want.Elapsed)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("results differ beyond checksum and makespan:\n got  %+v\n want %+v", got, want)
					}
				})
			}
		}
	}
}
