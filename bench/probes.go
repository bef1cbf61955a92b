package main

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/distribution"
	"repro/internal/drsd"
	"repro/internal/matrix"
	"repro/internal/mpi"
	"repro/internal/telemetry"
	"repro/internal/vclock"
)

// probe times one exported operation of a layer in isolation, with inputs
// shaped like the workloads'. run performs n operations and returns the
// host time they took (world set-up excluded).
type probe struct {
	name string // metric name, host ns per operation
	n    int    // operations per timed batch
	run  func(n int) time.Duration
}

// probeBatches is how many timed batches the median is taken over.
const probeBatches = 5

// runProbes returns each probe's median ns per operation. scale divides
// the batch sizes (the self-test runs them small).
func runProbes(scale int) map[string]float64 {
	out := map[string]float64{}
	for _, p := range probes {
		n := p.n / scale
		if n < 1 {
			n = 1
		}
		p.run(n) // warm-up: pools fill, pages fault in
		per := make([]float64, probeBatches)
		for i := range per {
			per[i] = float64(p.run(n)) / float64(n)
		}
		out[p.name] = quantile(per, 0.5)
	}
	return out
}

// onRank0 runs body on every rank of an n-rank dedicated world and returns
// the host time rank 0 spent in it.
func onRank0(n int, body func(c *mpi.Comm)) time.Duration {
	var d time.Duration
	err := mpi.Run(cluster.New(cluster.Uniform(n)), func(c *mpi.Comm) error {
		start := time.Now()
		body(c)
		if c.Rank() == 0 {
			d = time.Since(start)
		}
		return nil
	})
	if err != nil {
		panic(err) // a dedicated fault-free world cannot fail
	}
	return d
}

var probes = []probe{
	{"mpi.p2p.sendrecv_ns", 20000, func(n int) time.Duration {
		// One 32-column halo row, as adapt_dense exchanges.
		var row any = make([]float64, 32)
		return onRank0(2, func(c *mpi.Comm) {
			for i := 0; i < n; i++ {
				if c.Rank() == 0 {
					c.Send(1, 0, row, mpi.F64Bytes(32))
				} else {
					c.Recv(0, 0)
				}
			}
		})
	}},
	{"mpi.nb.exchange_ns", 10000, func(n int) time.Duration {
		var slab any = make([]float64, 1024) // 8 KiB
		return onRank0(2, func(c *mpi.Comm) {
			peer := 1 - c.Rank()
			for i := 0; i < n; i++ {
				rq := c.Irecv(peer, 0)
				snd := c.Isend(peer, 0, slab, mpi.F64Bytes(1024))
				c.Wait(rq)
				c.Wait(snd)
			}
		})
	}},
	{"mpi.coll.allreduce_n8_ns", 5000, func(n int) time.Duration {
		// The per-cycle load exchange: 8 ranks, one value each.
		return onRank0(8, func(c *mpi.Comm) {
			g := c.World().AllGroup()
			v := []float64{float64(c.Rank())}
			for i := 0; i < n; i++ {
				c.AllreduceF64sInto(g, v, mpi.Sum)
			}
		})
	}},
	{"mpi.win.put_fence_ns", 5000, func(n int) time.Duration {
		// A 16-row by 64-column replica slab, as refresh_rma ships.
		slab := make([]float64, 1024)
		return onRank0(2, func(c *mpi.Comm) {
			win := c.WinCreate(c.World().AllGroup(), make(mpi.FlatMem, len(slab)))
			c.Fence(win)
			for i := 0; i < n; i++ {
				if c.Rank() == 0 {
					c.Put(win, 1, 0, slab)
				}
				c.Fence(win)
			}
		})
	}},
	{"mpi.win.put_pscw_ns", 5000, func(n int) time.Duration {
		slab := make([]float64, 1024)
		return onRank0(2, func(c *mpi.Comm) {
			win := c.WinCreate(c.World().AllGroup(), make(mpi.FlatMem, len(slab)))
			origin, target := []int{0}, []int{1}
			for i := 0; i < n; i++ {
				if c.Rank() == 0 {
					c.WinStart(win, target, nil)
					c.Put(win, 1, 0, slab)
					c.WinComplete(win)
				} else {
					c.WinPost(win, origin, 0)
					c.WinWait(win)
				}
			}
		})
	}},
	{"matrix.sparse.append_ns", 200000, func(n int) time.Duration {
		// cg's fill: 13 entries per row.
		const perRow = 13
		rows := n/perRow + 1
		s := matrix.NewSparse("S", rows, nil)
		s.SetWindow(0, rows)
		start := time.Now()
		for i := 0; i < n; i++ {
			s.Append(i/perRow, int32(i%perRow), float64(i))
		}
		return time.Since(start)
	}},
	{"matrix.sparse.packunpack_ns", 2000, func(n int) time.Duration {
		// A redistribution slab of 16 particle-cell rows, 8 entries each.
		const rows, perRow = 16, 8
		s := matrix.NewSparse("S", rows, nil)
		s.SetWindow(0, rows)
		for g := 0; g < rows; g++ {
			for k := 0; k < perRow; k++ {
				s.Append(g, int32(k), float64(k))
			}
		}
		d := matrix.NewSparse("D", rows, nil)
		d.SetWindow(0, rows)
		var packed matrix.PackedRows
		start := time.Now()
		for i := 0; i < n; i++ {
			packed.Reset()
			s.PackRowsTo(&packed, 0, rows)
			d.UnpackRows(0, &packed)
		}
		return time.Since(start)
	}},
	{"matrix.dense.copyrows_ns", 100000, func(n int) time.Duration {
		d := matrix.NewDense("A", 1024, 64, matrix.Projection, nil)
		d.SetWindow(0, 16)
		slab := make([]float64, 16*64)
		start := time.Now()
		for i := 0; i < n; i++ {
			d.CopyRowsTo(slab, 0, 16)
		}
		return time.Since(start)
	}},
	{"matrix.dense.setwindow_ns", 20000, func(n int) time.Duration {
		// A redistribution sliding a 16-row window by two rows, with ghosts.
		d := matrix.NewDense("A", 1024, 64, matrix.Projection, nil)
		start := time.Now()
		for i := 0; i < n; i++ {
			lo := (2 * i) % 1000
			d.SetWindow(lo, lo+18)
		}
		return time.Since(start)
	}},
	{"cluster.compute_ns", 200000, func(n int) time.Duration {
		node := cluster.New(cluster.Uniform(1).With(cluster.TimeEvent(0, 0, +1))).Node(0)
		start := time.Now()
		for i := 0; i < n; i++ {
			node.Compute(vclock.Millisecond)
		}
		return time.Since(start)
	}},
	{"cluster.chargetouch_ns", 200000, func(n int) time.Duration {
		node := cluster.New(cluster.Uniform(1).With(cluster.TimeEvent(0, 0, +1))).Node(0)
		start := time.Now()
		for i := 0; i < n; i++ {
			node.ChargeTouch(32) // one sparse element
		}
		return time.Since(start)
	}},
	{"telemetry.ring_emit_ns", 200000, func(n int) time.Duration {
		ring := telemetry.NewRing(1 << 15) // the sweep's per-world ring
		st := telemetry.NewStamper(0)
		start := time.Now()
		for i := 0; i < n; i++ {
			ring.Emit(telemetry.IterationRecord{Base: st.Stamp(telemetry.KindIteration, i, float64(i)), ComputeS: 1})
		}
		return time.Since(start)
	}},
	{"drsd.schedule_windows_ns", 20000, func(n int) time.Duration {
		old, nw := probeBlocks()
		acc := []drsd.Access{{Array: "A", Step: 1, Off: 0}, {Array: "A", Step: 1, Off: -1}, {Array: "A", Step: 1, Off: 1}}
		var buf []drsd.Transfer
		start := time.Now()
		for i := 0; i < n; i++ {
			buf = drsd.ScheduleWindowsInto(buf[:0], old, nw, acc)
		}
		return time.Since(start)
	}},
	{"drsd.schedule_diff_ns", 20000, func(n int) time.Duration {
		old, nw := probeBlocks()
		var buf []drsd.Transfer
		start := time.Now()
		for i := 0; i < n; i++ {
			buf = drsd.ScheduleDiffInto(buf[:0], old, nw)
		}
		return time.Since(start)
	}},
	{"distribution.balance_ns", 2000, func(n int) time.Duration {
		nodes := make([]distribution.Node, 8)
		for i := range nodes {
			nodes[i] = distribution.Node{Rank: i, Power: 1}
		}
		nodes[3].Load = 1
		start := time.Now()
		for i := 0; i < n; i++ {
			distribution.SuccessiveBalancingFractions(nodes, 1.0, 0.01, nil)
		}
		return time.Since(start)
	}},
	{"distribution.partition_ns", 20000, func(n int) time.Duration {
		costs := make([]float64, 512)
		for i := range costs {
			costs[i] = float64(i%7 + 1)
		}
		fr := []float64{0.1, 0.15, 0.1, 0.15, 0.1, 0.15, 0.1, 0.15}
		start := time.Now()
		for i := 0; i < n; i++ {
			distribution.PartitionWeighted(costs, fr)
		}
		return time.Since(start)
	}},
}

// probeBlocks is adapt_dense's redistribution: 512 rows over 8 ranks moving
// from an equal split to one that relieves a loaded rank.
func probeBlocks() (old, nw *drsd.Block) {
	ranks := []int{0, 1, 2, 3, 4, 5, 6, 7}
	return drsd.EqualBlock(ranks, 512), drsd.NewBlock(ranks, []int{70, 70, 70, 22, 70, 70, 70, 70})
}
