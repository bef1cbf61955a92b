package mpi

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
)

// awaitParked returns once want members are blocked on their wake channels
// in g's op number seq — every one of them past its spin budget — or once
// the world has failed.
func awaitParked(g *Group, seq int64, want int) {
	op := &g.ring[seq&opRingMask]
	for (op.ready.Load() != seq || int(op.parked.Load()) != want) && !g.w.failed.Load() {
		time.Sleep(20 * time.Microsecond)
	}
}

// TestCollectiveParkPath drives the one-channel-per-rank parking spot where
// it could go wrong. Two groups share ranks 2 and 3 and are used in turn; in
// every op one member, a different one each time, holds its deposit back
// until all the others have parked, so every publication has to wake parked
// members, members of both groups park on the one channel op after op, and
// none may sleep through its own wake. Then rank 1 crashes with the rest of
// its group parked on it: once it has returned no live rank can move, so
// resolve has to wake them into a RankFailedError, and the survivors park
// and wake again.
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

// awaitRecvParked returns once rank r has announced itself parked on a
// receive request (mailbox.reqWait), the step before it blocks on its wake
// channel, or once the world has failed.
func awaitRecvParked(w *World, r int) {
	for w.boxes[r].reqWait.Load() == nil && !w.failed.Load() {
		time.Sleep(20 * time.Microsecond)
	}
}

// parkWorld runs body on an n-rank world with the given faults and fails the
// test on an error, on a world still running after a watchdog's 30 s, and on
// a leaked operation. It returns the finished world.
func parkWorld(t *testing.T, n int, faults []fault.Fault, body func(c *Comm) error) *World {
	t.Helper()
	spec := cluster.Uniform(n)
	spec.Faults = faults
	w := NewWorld(cluster.New(spec))
	done := make(chan error, 1)
	go func() { done <- w.Run(body) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("world hung")
	}
	if n := w.LeakedOps(); n != 0 {
		t.Fatalf("%d operations leaked, want 0", n)
	}
	return w
}

// TestRecvParkPath drives the receive side of the one parking spot: a
// blocking receive and a request Wait park on the same wake channel as the
// collectives, so they must re-park after every wake that did not fill
// them, wake into a RankFailedError when their source dies, and match as
// the posted requests they are.
func TestRecvParkPath(t *testing.T) {
	// Ranks 2 and 3 sit in two overlapping groups, whose collectives park
	// and wake them (a late member forces the rest to park, so every
	// publication wakes); then rank 2 blocks in Recv and rank 3 in Wait, and
	// their senders flood them with spurious wakes before sending. A wait
	// that returned on a wake its request did not earn would hand back an
	// unfilled request.
	t.Run("spurious-wakes", func(t *testing.T) {
		const rounds, floods = 8, 50
		left, right := []int{0, 1, 2, 3}, []int{2, 3, 4, 5}
		parkWorld(t, 6, nil, func(c *Comm) error {
			w := c.World()
			gl, gr := w.NewGroup(left), w.NewGroup(right)
			seq := map[*Group]int64{}
			sum := func(g *Group, members []int, late int) error {
				if !slices.Contains(members, c.Rank()) {
					return nil
				}
				if c.Rank() == members[late] {
					awaitParked(g, seq[g], len(members)-1)
				}
				seq[g]++
				_, err := c.AllreduceSumErr(g, 1)
				return err
			}
			for i := 0; i < rounds; i++ {
				var rq *Request
				if c.Rank() == 3 {
					rq = c.Irecv(5, i) // stays posted through the collectives
				}
				if err := sum(gl, left, i%4); err != nil {
					return err
				}
				if err := sum(gr, right, (i+1)%4); err != nil {
					return err
				}
				switch c.Rank() {
				case 2, 3:
					src := 5 * (c.Rank() - 2) // rank 2 hears from 0, rank 3 from 5
					var p any
					if rq == nil {
						p, _ = c.Recv(src, i)
					} else {
						p, _ = c.Wait(rq)
					}
					if p != 100*src+i {
						return fmt.Errorf("round %d: received %v, want %d", i, p, 100*src+i)
					}
				case 0, 5:
					dst := 2 + c.Rank()/5
					awaitRecvParked(w, dst)
					for k := 0; k < floods; k++ {
						w.signal(dst)
						runtime.Gosched()
					}
					c.Send(dst, i, 100*c.Rank()+i, 8)
				}
			}
			return nil
		})
	})

	// Rank 0 parks on rank 1, which then crashes: once it has returned no
	// live rank can move, and resolve must wake rank 0 into the error. Rank
	// 2's wildcard receive parks too and must survive the death — any live
	// rank could still send — until rank 0 does.
	t.Run("kill", func(t *testing.T) {
		parkWorld(t, 3, []fault.Fault{fault.CrashAtCycle(1, 1)}, func(c *Comm) error {
			switch c.Rank() {
			case 0:
				_, _, err := c.RecvErr(1, 4)
				var rf *RankFailedError
				if !errors.As(err, &rf) || rf.Op != "recv" || len(rf.Ranks) != 1 || rf.Ranks[0] != 1 {
					return fmt.Errorf("want a recv RankFailedError naming rank 1, got %v", err)
				}
				c.Send(2, 4, "alive", 8)
			case 1:
				awaitRecvParked(c.World(), 0)
				awaitRecvParked(c.World(), 2)
				c.InjectCycleFaults(1) // crashes: does not return
				return errors.New("crash fault did not fire")
			case 2:
				p, st, err := c.RecvErr(AnySource, 4)
				if err != nil || p != "alive" || st.Source != 0 {
					return fmt.Errorf("wildcard receive got %v from %d, err %v", p, st.Source, err)
				}
			}
			return nil
		})
	})

	// A blocking wildcard receive is posted behind two Irecvs of the same
	// source and tag, and each message fills the first posted pattern it
	// matches: the wildcard gets the third.
	t.Run("post-order", func(t *testing.T) {
		const tag = 6
		parkWorld(t, 2, nil, func(c *Comm) error {
			if c.Rank() == 1 {
				awaitRecvParked(c.World(), 0)
				for k := 1; k <= 3; k++ {
					c.Send(0, tag, k, 8)
				}
				return nil
			}
			rqs := []*Request{c.Irecv(1, tag), c.Irecv(1, tag)}
			if p, st, err := c.RecvErr(AnySource, tag); err != nil || p != 3 || st.Source != 1 {
				return fmt.Errorf("wildcard receive got %v from %d, err %v; want 3 from 1", p, st.Source, err)
			}
			for k, rq := range rqs {
				if p, _ := c.Wait(rq); p != k+1 {
					return fmt.Errorf("request %d got %v, want %d", k, p, k+1)
				}
			}
			return nil
		})
	})
}

// TestNewGroupAllocsIndependentOfSize pins what a group is made of: the Group
// with its ring slots inside, the member list, the slot index, the two
// per-member counters on one array and one array per per-member field of the
// ring — each cut in opRing pieces — whatever the group's size, where an
// opState and six arrays per ring slot cost 28 and one wake channel per ring
// slot per member cost opRing × members before that. Only the registry key
// grows with the member count.
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
	if small > flat {
		t.Errorf("NewGroup allocates %v objects at 32 members against %v at 8: growing with group size", small, flat)
	}
	if large > small+8 { // the key outgrows its stack buffer
		t.Errorf("NewGroup allocates %v objects at 256 members against %v at 32: growing with group size", large, small)
	}
}
