package main

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/mpi"
)

// The collective kinds the body times, in call order within a cycle.
var collKinds = []string{"bcast", "allreduce_vec", "allgather", "gather", "allreduce_scalar", "barrier"}

// collTimes holds rank 0's host time per collective call, in microseconds,
// and the time from mpi.Run's entry to rank 0 leaving its first collective.
type collTimes struct {
	us      map[string][]float64
	spawnMs []float64
}

// collResult is one collective world's outcome.
type collResult struct {
	checksum float64
	finishS  float64
	ops      int64 // collectives the all-ranks group completed
	msgs     int64 // point-to-point messages, summed over ranks
	bytes    int64
}

// runCollective runs exp.RunScale's collective mix — rotating-root
// broadcast, element-wise allreduce, allgather, rotating-root gather folded
// through a scalar allreduce, barrier — on one world. The rank body lives
// here so each call can be timed on rank 0 (tm non-nil) and so the cluster
// may carry competing-process events, which the body materialises at each
// cycle the way core.BeginCycle does for the applications. On a dedicated
// cluster it reproduces exp.RunScale's checksum and finish time exactly.
func runCollective(spec cluster.Spec, cycles, vecLen int, tm *collTimes) (collResult, error) {
	var out collResult
	n := len(spec.Nodes)
	perRank := make([][2]int64, n)
	entry := time.Now()
	err := mpi.Run(cluster.New(spec), func(c *mpi.Comm) error {
		g := c.World().AllGroup()
		rank := c.Rank()
		timed := tm != nil && rank == 0
		buf := make([]float64, vecLen)
		bcast := make([]float64, vecLen)
		gath := make([]float64, n)
		var checksum float64
		var t0 time.Time
		lap := func(kind string) {
			if timed {
				now := time.Now()
				tm.us[kind] = append(tm.us[kind], float64(now.Sub(t0))/1e3)
				t0 = now
			}
		}
		for cycle := 0; cycle < cycles; cycle++ {
			c.Node().OnCycle(cycle)
			root := cycle % n
			if timed {
				t0 = time.Now()
			}

			if rank == root {
				for j := range bcast {
					bcast[j] = float64(cycle*vecLen+j) * 0.5
				}
			}
			c.BcastF64sInto(g, root, bcast)
			checksum += bcast[cycle%vecLen]
			if timed && cycle == 0 {
				tm.spawnMs = append(tm.spawnMs, float64(time.Since(entry))/1e6)
			}
			lap("bcast")

			for j := range buf {
				buf[j] = float64(rank+1) * float64(cycle+j+1) * 1e-3
			}
			c.AllreduceF64sInto(g, buf, mpi.Sum)
			checksum += buf[cycle%vecLen]
			lap("allreduce_vec")

			c.AllgatherF64sInto(g, float64(rank)+float64(cycle)*1e-2, gath)
			checksum += gath[(cycle*7)%n]
			lap("allgather")

			parts := c.Gather(g, root, rank*cycle, 8)
			var rootSum float64
			if rank == root {
				for _, p := range parts {
					rootSum += float64(p.(int))
				}
			}
			lap("gather")
			checksum += c.AllreduceSum(g, rootSum)
			lap("allreduce_scalar")

			c.Barrier(g)
			lap("barrier")
		}
		perRank[rank] = [2]int64{c.SentMsgs, c.SentBytes}
		if rank == 0 {
			out.checksum = checksum
			out.finishS = c.Now().Seconds()
			for _, sh := range g.CollectiveStats() {
				out.ops += sh.Count
			}
		}
		return nil
	})
	for _, p := range perRank {
		out.msgs += p[0]
		out.bytes += p[1]
	}
	return out, err
}
