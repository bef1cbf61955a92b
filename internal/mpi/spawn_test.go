package mpi

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
)

// TestSpawnGrownWorldRunsCollectives grows a 2-rank world into its arrival
// capacity mid-run and drives point-to-point, collective and group traffic
// with ranks at and above the seed size — the mpi-layer half of elastic
// resizing. Run with -race: spawned goroutines share the preallocated
// mailbox/dead arrays with the seed ranks.
func TestSpawnGrownWorldRunsCollectives(t *testing.T) {
	spec := cluster.Uniform(2).WithArrival(1.0, -1).WithArrival(1.0, -1)
	w := NewWorld(cluster.New(spec))
	if w.N() != 2 || w.Cap() != 4 || w.spawned[0].Load() || w.spawned[1].Load() {
		t.Fatalf("world sizes N=%d Cap=%d, want 2/4 with no arrival spawned", w.N(), w.Cap())
	}
	var mu sync.Mutex
	sums := map[int]float64{}
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			c.World().Spawn([]int{2, 3})
			if w := c.World(); !w.spawned[0].Load() || !w.spawned[1].Load() {
				return errors.New("arrival slots not marked spawned after Spawn")
			}
		}
		if c.Spawned() != (c.Rank() >= 2) {
			return fmt.Errorf("rank %d Spawned() = %v", c.Rank(), c.Spawned())
		}
		// Point-to-point across the seed boundary, both directions.
		switch c.Rank() {
		case 0:
			c.Send(3, 5, []float64{30}, 8)
			if v, _ := recvF64s(c, 2, 6); v[0] != 20 {
				return fmt.Errorf("rank 0 got %v from spawned rank 2", v)
			}
		case 2:
			c.Send(0, 6, []float64{20}, 8)
		case 3:
			if v, _ := recvF64s(c, 0, 5); v[0] != 30 {
				return fmt.Errorf("rank 3 got %v from rank 0", v)
			}
		}
		// A collective over the grown membership.
		g := c.World().NewGroup([]int{0, 1, 2, 3})
		sum := c.AllreduceSum(g, float64(c.Rank()))
		mu.Lock()
		sums[c.Rank()] = sum
		mu.Unlock()
		return c.BarrierErr(g)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 4 {
		t.Fatalf("%d ranks reduced, want 4", len(sums))
	}
	for r, s := range sums {
		if s != 6 { // 0+1+2+3
			t.Fatalf("rank %d allreduce sum = %v, want 6", r, s)
		}
	}
	if n := w.LeakedOps(); n != 0 {
		t.Fatalf("%d operations leaked in the grown world, want 0", n)
	}
}

// TestSpawnValidation pins the capacity guards.
func TestSpawnValidation(t *testing.T) {
	spec := cluster.Uniform(2).WithArrival(1.0, -1)
	w := NewWorld(cluster.New(spec))
	err := w.Run(func(c *Comm) error {
		if c.Rank() != 0 {
			return nil
		}
		mustPanic := func(what string, fn func()) error {
			defer func() { recover() }()
			fn()
			return errors.New(what + " did not panic")
		}
		if err := mustPanic("spawn beyond capacity", func() { c.World().Spawn([]int{3}) }); err != nil {
			return err
		}
		return mustPanic("spawn of seed rank", func() { c.World().Spawn([]int{1}) })
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSpawnIsIdempotent: three seed ranks spawn the same two joiners at
// once, each twice, and every joiner's body runs exactly once. Run with
// -race: the callers race on the arrival slots.
func TestSpawnIsIdempotent(t *testing.T) {
	spec := cluster.Uniform(3).WithArrival(1.0, -1).WithArrival(1.0, -1)
	w := NewWorld(cluster.New(spec))
	var mu sync.Mutex
	runs := map[int]int{}
	err := w.Run(func(c *Comm) error {
		mu.Lock()
		runs[c.Rank()]++
		mu.Unlock()
		if !c.Spawned() {
			c.World().Spawn([]int{3, 4})
			c.World().Spawn([]int{4, 3})
		}
		return c.BarrierErr(c.World().NewGroup([]int{0, 1, 2, 3, 4}))
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 5; r++ {
		if runs[r] != 1 {
			t.Errorf("rank %d ran %d times, want once", r, runs[r])
		}
	}
}

// TestDeadRankMailboxStaysEmpty is the mailbox-leak satellite: once a rank
// is dead, envelopes addressed to it are dropped at delivery and its
// queued backlog was purged by Kill — protocol traffic aimed at a corpse
// must not accumulate anywhere. The senders' virtual costs are still
// charged (send CPU is paid before delivery), so dropping is trace-neutral.
func TestDeadRankMailboxStaysEmpty(t *testing.T) {
	spec := cluster.Uniform(3)
	spec.Faults = []fault.Fault{fault.CrashAtCycle(2, 0)}
	w := NewWorld(cluster.New(spec))
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 2 {
			// Die with a backlog already queued: Kill must purge it.
			c.Send(2, 1, []float64{1}, 8)
			c.InjectCycleFaults(0)
			return errors.New("crash fault did not fire")
		}
		// Detect the death through the collective failure protocol, so the
		// sends below are deterministically aimed at a known corpse.
		err := c.BarrierErr(c.World().AllGroup())
		var rf *RankFailedError
		if !errors.As(err, &rf) {
			return errors.New("want RankFailedError from barrier, got " + errString(err))
		}
		for i := 0; i < 50; i++ {
			c.Send(2, 7, []float64{float64(i)}, 8)
		}
		return c.BarrierErr(c.World().NewGroup([]int{0, 1}))
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := w.QueuedMsgs(2); n != 0 {
		t.Fatalf("dead rank holds %d queued messages, want 0", n)
	}
	if n := w.LeakedOps(); n != 0 {
		t.Fatalf("%d operations leaked, want 0", n)
	}
}
