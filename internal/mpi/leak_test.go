package mpi

import (
	"errors"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/vclock"
)

// These tests pin the opResult-leak fix: every collective rendezvous slot
// must be fully drained at World.Run exit no matter how many members crash,
// and no matter whether they crash before, during, or after an error-
// published collective. The pre-sharding engine leaked one opResult per
// member that died after a collective failure was published (it was counted
// as a live consumer but could never consume); World.Kill's orphan-adoption
// walk reclaims exactly that share.

// shrinkTo removes the dead ranks named by err from members, in place.
func shrinkTo(t *testing.T, members []int, err error) []int {
	t.Helper()
	var rf *RankFailedError
	if !errors.As(err, &rf) {
		t.Fatalf("want RankFailedError, got %v", err)
	}
	keep := members[:0]
	for _, m := range members {
		dead := false
		for _, d := range rf.Ranks {
			if m == d {
				dead = true
			}
		}
		if !dead {
			keep = append(keep, m)
		}
	}
	return keep
}

// TestCrashLeavesNoLeakedOps drives every collective family through a run
// where two ranks crash at different cycles, and asserts that no rendezvous
// slot is left undrained at exit. The mix includes the vector (*Into)
// collectives, so the slots' result vectors are reset on both the success
// and the error-drain path.
func TestCrashLeavesNoLeakedOps(t *testing.T) {
	spec := cluster.Uniform(6)
	spec.Faults = []fault.Fault{
		fault.CrashAtCycle(4, 2),
		fault.CrashAtCycle(1, 5),
	}
	w := NewWorld(cluster.New(spec))
	err := w.Run(func(c *Comm) error {
		members := []int{0, 1, 2, 3, 4, 5}
		buf := make([]float64, 32)
		gath := make([]float64, 6)
		for cycle := 0; cycle < 8; cycle++ {
			c.InjectCycleFaults(cycle)
			g := c.World().NewGroup(members)
			if err := c.BarrierErr(g); err != nil {
				members = shrinkTo(t, members, err)
				continue
			}
			if err := c.AllreduceF64sIntoErr(g, buf, Sum); err != nil {
				members = shrinkTo(t, members, err)
				continue
			}
			if _, err := c.AllreduceSumErr(g, float64(cycle)); err != nil {
				members = shrinkTo(t, members, err)
				continue
			}
			if err := c.AllgatherF64sIntoErr(g, float64(c.Rank()), gath[:g.Size()]); err != nil {
				members = shrinkTo(t, members, err)
				continue
			}
			c.Node().Compute(vclock.FromSeconds(0.001))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := w.LeakedOps(); n != 0 {
		t.Fatalf("%d rendezvous slots leaked after crash run, want 0", n)
	}
}

// TestCrashOrphanAdoptionDrainsPublishedError is the targeted orphan
// scenario: rank 2 crashes before a barrier, the error publishes counting
// ranks 0 and 1 as consumers, and rank 1 crashes without ever entering the
// collective. Without Kill's adoption walk, rank 1's unconsumed share would
// pin the slot forever; the drain must succeed regardless of whether rank 1
// dies before or after the error is published (both interleavings occur
// across runs, and both are covered: a member dead at publication time is
// pre-marked consumed, one dying later is adopted).
func TestCrashOrphanAdoptionDrainsPublishedError(t *testing.T) {
	spec := cluster.Uniform(3)
	spec.Faults = []fault.Fault{
		fault.CrashAtCycle(2, 0),
		fault.CrashAtCycle(1, 1),
	}
	w := NewWorld(cluster.New(spec))
	err := w.Run(func(c *Comm) error {
		c.InjectCycleFaults(0) // kills rank 2 before any deposit
		if c.Rank() == 1 {
			c.InjectCycleFaults(1) // kills rank 1; it never joins the barrier
			return errors.New("crash fault did not fire")
		}
		if c.Rank() == 0 {
			err := c.BarrierErr(c.World().AllGroup())
			var rf *RankFailedError
			if !errors.As(err, &rf) {
				return errors.New("want RankFailedError, got " + errString(err))
			}
			// The survivor keeps working over the shrunken group.
			return c.BarrierErr(c.World().NewGroup([]int{0}))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := w.LeakedOps(); n != 0 {
		t.Fatalf("%d rendezvous slots leaked after orphaned error, want 0", n)
	}
}

// TestCrashDuringRingReuseLeavesNoLeaks cycles groups through all opRing
// generations with a mid-run crash, so slot recycling (the generation gate)
// and the failure drain compose: every generation touched before, at, and
// after the death must drain.
func TestCrashDuringRingReuseLeavesNoLeaks(t *testing.T) {
	spec := cluster.Uniform(4)
	spec.Faults = []fault.Fault{fault.CrashAtCycle(3, 2*opRing+1)}
	w := NewWorld(cluster.New(spec))
	err := w.Run(func(c *Comm) error {
		members := []int{0, 1, 2, 3}
		for cycle := 0; cycle < 6*opRing; cycle++ {
			c.InjectCycleFaults(cycle)
			g := c.World().NewGroup(members)
			if _, err := c.AllreduceSumErr(g, 1); err != nil {
				members = shrinkTo(t, members, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := w.LeakedOps(); n != 0 {
		t.Fatalf("%d rendezvous slots leaked across ring reuse, want 0", n)
	}
}

// TestCrashMidWaitLeavesNoLeaks is the nonblocking-layer counterpart of the
// collective crash tests: a rank dies with receives pending on both sides
// of the wire. Its own posted requests are orphans that Kill must clear;
// the survivors' requests targeting it must resolve to a RankFailedError
// naming the dead rank (from WaitErr and from Waitall), the unrelated
// requests in the same Waitall must still drain, and no posted-request slot
// may leak at exit.
func TestCrashMidWaitLeavesNoLeaks(t *testing.T) {
	spec := cluster.Uniform(3)
	spec.Faults = []fault.Fault{fault.CrashAtCycle(2, 1)}
	w := NewWorld(cluster.New(spec))
	err := w.Run(func(c *Comm) error {
		switch c.Rank() {
		case 2:
			// Die with our own receives posted — orphans Kill must clear.
			c.Irecv(0, 8)
			c.Irecv(1, 9)
			c.InjectCycleFaults(1)
			return errors.New("crash fault did not fire")
		case 0:
			rq := c.Irecv(2, 5)
			snd := c.Isend(2, 5, nil, 64)
			if _, _, err := c.WaitErr(snd); err != nil {
				return err // send requests complete at post
			}
			_, _, err := c.WaitErr(rq)
			var rf *RankFailedError
			if !errors.As(err, &rf) || rf.Op != "irecv" || len(rf.Ranks) != 1 || rf.Ranks[0] != 2 {
				return errors.New("want irecv RankFailedError naming rank 2, got " + errString(err))
			}
			// The survivors keep talking after the death.
			c.Send(1, 7, "alive", 8)
			return nil
		default:
			r2 := c.Irecv(2, 6)
			r0 := c.Irecv(0, 7)
			err := c.Waitall([]*Request{r2, r0})
			var rf *RankFailedError
			if !errors.As(err, &rf) || rf.Op != "waitall" || len(rf.Ranks) != 1 || rf.Ranks[0] != 2 {
				return errors.New("want waitall RankFailedError naming rank 2, got " + errString(err))
			}
			return nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := w.LeakedOps(); n != 0 {
		t.Fatalf("%d posted requests leaked after crash, want 0", n)
	}
}
