package sor

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

// runPerRow is Run's rank body as it stood before the range form: one sweep
// and one ComputeIter per row, rows fetched through Dense.Row and indexed by
// cfg.Cols, the colour's first column by %2. Kept as the model the range
// sweep is tested against (no resize or joiner handling — the cases below
// use none).
func runPerRow(cl *cluster.Cluster, cfg Config) (apps.Result, error) {
	col := apps.NewCollector()
	err := mpi.Run(cl, func(c *mpi.Comm) error {
		rt := core.New(c, cfg.Core)
		u := rt.RegisterDense("U", cfg.Rows, cfg.Cols)
		ph := rt.InitPhase(cfg.Rows)
		ph.AddAccess("U", drsd.ReadWrite, 1, 0)
		ph.AddAccess("U", drsd.Read, 1, -1)
		ph.AddAccess("U", drsd.Read, 1, +1)
		rt.Commit()
		u.Fill(func(g, j int) float64 {
			if g == 0 || g == cfg.Rows-1 || j == 0 || j == cfg.Cols-1 {
				return float64((g*13+j*7)%100) / 10
			}
			return 0
		})

		halfRowCost := vclock.Duration(float64(cfg.Cols) * cfg.CostPerElem / 2)
		sweep := func(g, color int) {
			if g == 0 || g == cfg.Rows-1 {
				return
			}
			up, mid, down := u.Row(g-1), u.Row(g), u.Row(g+1)
			start := 1 + (g+color+1)%2
			for j := start; j < cfg.Cols-1; j += 2 {
				res := 0.25*(up[j]+down[j]+mid[j-1]+mid[j+1]) - mid[j]
				mid[j] += cfg.Omega * res
			}
		}
		rowOf := func(g int) []float64 { return u.Row(g) }
		storeGhost := func(g int, row []float64) { copy(u.Row(g), row) }
		for t := 0; t < cfg.Iters; t++ {
			if rt.BeginCycle() {
				lo, hi := ph.Bounds()
				if cfg.Overlap {
					halfPhase := func(color, tag int) {
						if lo < hi {
							sweep(lo, color)
							rt.ComputeIter(lo, halfRowCost)
							if hi-1 > lo {
								sweep(hi-1, color)
								rt.ComputeIter(hi-1, halfRowCost)
							}
						}
						apps.HaloExchangeOverlap(rt, tag, cfg.Rows, rowOf, storeGhost, func() {
							for g := lo + 1; g < hi-1; g++ {
								sweep(g, color)
								rt.ComputeIter(g, halfRowCost)
							}
						})
					}
					halfPhase(0, redTag)
					halfPhase(1, blackTag)
				} else {
					for g := lo; g < hi; g++ {
						sweep(g, 0)
						rt.ComputeIter(g, halfRowCost)
					}
					apps.HaloExchange(rt, redTag, cfg.Rows, rowOf, storeGhost)
					for g := lo; g < hi; g++ {
						sweep(g, 1)
						rt.ComputeIter(g, halfRowCost)
					}
					apps.HaloExchange(rt, blackTag, cfg.Rows, rowOf, storeGhost)
				}
			}
			rt.EndCycle()
		}
		lo, hi := 0, 0
		if rt.Participating() {
			lo, hi = ph.Bounds()
		}
		sum := apps.OrderedChecksum(rt, cfg.Rows, lo, hi, func(g int) float64 {
			s := 0.0
			for _, v := range u.Row(g) {
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

// The range sweep and its bulk charge are the per-row body bit for bit —
// checksum, makespan, every rank's finish time, message count and event
// trace — at the column counts where a colour has no, one and many points
// in a row, with windows of one row, two rows and many, blocking and
// overlapped, over a run that holds a grace period (per-row stamps), a
// redistribution and a drop.
func TestRangeSweepMatchesPerRowReference(t *testing.T) {
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
