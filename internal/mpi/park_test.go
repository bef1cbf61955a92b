package mpi

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
)

// awaitParked returns once want members are blocked on their wake channels
// in g's op number seq — every one of them past its spin budget.
func awaitParked(g *Group, seq int64, want int) {
	op := &g.ring[seq&opRingMask]
	for op.ready.Load() != seq || int(op.parked.Load()) != want {
		time.Sleep(20 * time.Microsecond)
	}
}

// TestCollectiveParkPath drives the one-channel-per-rank parking spot where
// it could go wrong. Two groups share ranks 2 and 3 and are used in turn; in
// every op one member, a different one each time, holds its deposit back
// until all the others have parked, so every publication has to wake parked
// members, every member re-parks holding the stale token of an op it
// published or of the other group, and none may sleep through its own.
// Then rank 1 crashes with the rest of its group parked on it: Kill has to
// wake them into a RankFailedError, and the survivors park and wake again.
func TestCollectiveParkPath(t *testing.T) {
	const rounds = 12
	left, right := []int{0, 1, 2, 3}, []int{2, 3, 4, 5}
	spec := cluster.Uniform(6)
	spec.Faults = []fault.Fault{fault.CrashAtCycle(1, rounds)}
	w := NewWorld(cluster.New(spec))
	err := w.Run(func(c *Comm) error {
		seq := map[*Group]int64{}
		// sum runs one allreduce on members, with members[late] last in.
		sum := func(members []int, late int) error {
			g := c.World().NewGroup(members)
			if c.Rank() == members[late] {
				awaitParked(g, seq[g], len(members)-1)
			}
			seq[g]++
			got, err := c.AllreduceSumErr(g, 1)
			if err == nil && got != float64(len(members)) {
				err = fmt.Errorf("rank %d: sum over %v = %v", c.Rank(), members, got)
			}
			return err
		}
		in := func(members []int) bool {
			for _, m := range members {
				if m == c.Rank() {
					return true
				}
			}
			return false
		}
		for i := 0; i < rounds; i++ {
			if in(left) {
				if err := sum(left, i%4); err != nil {
					return err
				}
			}
			if in(right) {
				if err := sum(right, (i+1)%4); err != nil {
					return err
				}
			}
		}
		if !in(left) {
			return nil
		}
		g := c.World().NewGroup(left)
		if c.Rank() == 1 {
			awaitParked(g, seq[g], 3)
			c.InjectCycleFaults(rounds) // crashes: does not return
			return errors.New("crash fault did not fire")
		}
		_, err := c.AllreduceSumErr(g, 1)
		var rf *RankFailedError
		if !errors.As(err, &rf) || len(rf.Ranks) != 1 || rf.Ranks[0] != 1 {
			return fmt.Errorf("rank %d: want RankFailedError naming rank 1, got %v", c.Rank(), err)
		}
		for i := 0; i < 3; i++ {
			if err := sum([]int{0, 2, 3}, i); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := w.LeakedOps(); n != 0 {
		t.Fatalf("%d rendezvous slots leaked, want 0", n)
	}
}

// TestNewGroupAllocsIndependentOfSize pins what a group is made of: the Group
// with its ring slots inside, the member list, the slot index, the two
// per-member counters on one array and one array per per-member field of the
// ring — each cut in opRing pieces — whatever the group's size, where an
// opState and six arrays per ring slot cost 28 and one wake channel per ring
// slot per member cost opRing × members before that. Past treeMinRanks the
// combiner tree adds its geometry and three arrays; only the registry key grows
// with the member count.
func TestNewGroupAllocsIndependentOfSize(t *testing.T) {
	w := NewWorld(cluster.New(cluster.Uniform(256)))
	allocs := func(n int) float64 {
		members := make([]int, n)
		shift := 0
		return testing.AllocsPerRun(20, func() {
			// A window sliding round the world: an unregistered group every time.
			for i := range members {
				members[i] = (i + shift) % w.Cap()
			}
			shift++
			runtime.KeepAlive(w.NewGroup(members))
		})
	}
	flat, small, large := allocs(8), allocs(32), allocs(256)
	t.Logf("NewGroup: %v allocs at 8 members, %v at 32, %v at 256", flat, small, large)
	if flat > 12 { // 10 for the group, the key string, the registry's own growth
		t.Errorf("NewGroup allocates %v objects at 8 members, want at most 12", flat)
	}
	if small > 23 {
		t.Errorf("NewGroup allocates %v objects at 32 members, want at most 23", small)
	}
	if large > small+8 { // the key outgrows its stack buffer
		t.Errorf("NewGroup allocates %v objects at 256 members against %v at 32: growing with group size", large, small)
	}
}
