package main

import (
	"repro/internal/apps"
	"repro/internal/apps/jacobi"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/drsd"
	"repro/internal/mpi"
	"repro/internal/vclock"
)

// Span names recorded by the stencil body. The metric of each is its name
// with a _us suffix.
const (
	spanCycle       = "core.cycle"
	spanCommit      = "core.commit"
	spanBegin       = "core.begin_cycle"
	spanBeginRedist = "core.begin_cycle_redist"
	spanEnd         = "core.end_cycle"
	spanKernel      = "apps.kernel"
	spanHalo        = "mpi.halo"
)

// runStencil is jacobi.Run's rank body re-stated on core.Runtime's public
// API so that each call into a layer can be timed from here, without
// touching internal/. It must stay bit-identical to jacobi.Run in checksum,
// makespan and message count (bench_test.go pins that); it omits only the
// resize and mid-run-joiner handling, which no traced shape uses. collOps
// is the number of collectives the world's all-ranks group completed.
func runStencil(cl *cluster.Cluster, cfg jacobi.Config, log *spanLog) (res apps.Result, collOps int64, err error) {
	const haloTag = 7
	world := 0
	if log != nil {
		world = log.world()
	}
	col := apps.NewCollector()
	err = mpi.Run(cl, func(c *mpi.Comm) error {
		tr := log.rank(world, c.Rank())
		defer tr.flush()
		rt := core.New(c, cfg.Core)
		a := rt.RegisterDense("A", cfg.Rows, cfg.Cols)
		b := rt.RegisterDense("B", cfg.Rows, cfg.Cols)
		ph := rt.InitPhase(cfg.Rows)
		for _, name := range []string{"A", "B"} {
			ph.AddAccess(name, drsd.ReadWrite, 1, 0)
			ph.AddAccess(name, drsd.Read, 1, -1)
			ph.AddAccess(name, drsd.Read, 1, +1)
		}
		id := tr.begin(spanCommit, -1, 0)
		rt.Commit()
		tr.end(id)
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
			cyc := tr.begin(spanCycle, t, 0)
			before := rt.Redistributions()
			id := tr.begin(spanBegin, t, cyc)
			active := rt.BeginCycle()
			tr.end(id)
			if rt.Redistributions() != before {
				tr.rename(id, spanBeginRedist)
			}
			if active {
				lo, hi := ph.Bounds()
				if cfg.Overlap {
					id = tr.begin(spanKernel, t, cyc)
					if lo < hi {
						computeRow(lo)
						if hi-1 > lo {
							computeRow(hi - 1)
						}
					}
					tr.end(id)
					halo := tr.begin(spanHalo, t, cyc)
					apps.HaloExchangeOverlap(rt, haloTag, cfg.Rows, rowOf, storeGhost, func() {
						id := tr.begin(spanKernel, t, halo)
						for g := lo + 1; g < hi-1; g++ {
							computeRow(g)
						}
						tr.end(id)
					})
					tr.end(halo)
				} else {
					id = tr.begin(spanKernel, t, cyc)
					for g := lo; g < hi; g++ {
						computeRow(g)
					}
					tr.end(id)
					id = tr.begin(spanHalo, t, cyc)
					apps.HaloExchange(rt, haloTag, cfg.Rows, rowOf, storeGhost)
					tr.end(id)
				}
			}
			id = tr.begin(spanEnd, t, cyc)
			rt.EndCycle()
			tr.end(id)
			tr.end(cyc)
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
		if c.Rank() == 0 {
			for _, sh := range c.World().AllGroup().CollectiveStats() {
				collOps += sh.Count
			}
		}
		return nil
	})
	if err != nil {
		return apps.Result{}, 0, err
	}
	return col.Result(cl.MaxN()), collOps, nil
}
