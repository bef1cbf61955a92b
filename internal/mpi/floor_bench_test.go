//go:build go1.23

package mpi

import (
	"iter"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// BenchmarkRankBarrierFloor prices ROADMAP's "cooperative rank scheduling"
// before anyone builds it: floorRanks ranks with nothing to do meet
// floorBarriers times on one P, handing the processor on in three ways — the
// engine's runtime.Gosched spin (waitOp), iter.Pull coroutines resumed
// round-robin by one scheduler, and parking on a per-rank channel. The metric
// is ns per rank-barrier; collective_scale's ns per rank-collective, read
// against it, is engine and rank-body work, not scheduling (EXPERIMENTS.md).
func BenchmarkRankBarrierFloor(b *testing.B) {
	const floorRanks, floorBarriers = 1024, 240
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	perRankBarrier := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*floorRanks*floorBarriers), "ns/rank-barrier")
	}
	spawn := func(body func(rank int)) {
		var wg sync.WaitGroup
		for r := 0; r < floorRanks; r++ {
			wg.Add(1)
			go func() { defer wg.Done(); body(r) }()
		}
		wg.Wait()
	}
	b.Run("gosched-spin", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var arrived, gen atomic.Int64
			spawn(func(int) {
				for k := int64(0); k < floorBarriers; k++ {
					if arrived.Add(1) == floorRanks*(k+1) {
						gen.Store(k + 1)
					}
					for gen.Load() <= k {
						runtime.Gosched()
					}
				}
			})
		}
		perRankBarrier(b)
	})
	b.Run("iter-pull", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			resume, stop := make([]func() (struct{}, bool), floorRanks), make([]func(), floorRanks)
			for r := range resume {
				resume[r], stop[r] = iter.Pull(func(yield func(struct{}) bool) {
					for yield(struct{}{}) { // one barrier per resume
					}
				})
			}
			for k := 0; k < floorBarriers; k++ {
				for _, next := range resume {
					next()
				}
			}
			for _, done := range stop {
				done()
			}
		}
		perRankBarrier(b)
	})
	b.Run("chan-park", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var arrived atomic.Int64
			wake := make([]chan struct{}, floorRanks)
			for r := range wake {
				wake[r] = make(chan struct{}, 1)
			}
			spawn(func(rank int) {
				for k := int64(0); k < floorBarriers; k++ {
					if arrived.Add(1) == floorRanks*(k+1) {
						for _, ch := range wake {
							ch <- struct{}{}
						}
					}
					<-wake[rank]
				}
			})
		}
		perRankBarrier(b)
	})
}
