package mpi

import (
	"errors"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/vclock"
)

// This file validates general active-target synchronization (PSCW) the
// same way the fence is validated: against per-message Send/Recv
// simulation of the identical traffic, exactly — the post and complete
// notifications are priced as ordinary 8-byte messages, so the mirror is
// literal — plus the pairwise failure suite (a dead target fails the
// origin's start/complete, a dead origin fails the target's wait, never a
// hang, and no deposit is ever leaked).

// ringPSCW runs an n-rank world where every rank posts its window to its
// predecessor, starts toward its successor, Puts bytes there, completes,
// and waits — the replica-refresh ring shape — and returns each rank's
// final virtual time, receive stall, and (msgs, bytes) receive counters.
func ringPSCW(t *testing.T, n, bytes int, net cluster.NetParams) ([]vclock.Time, []vclock.Duration, []int64) {
	t.Helper()
	spec := cluster.Uniform(n)
	spec.Net = net
	finish := make([]vclock.Time, n)
	stall := make([]vclock.Duration, n)
	rbytes := make([]int64, n)
	w := NewWorld(cluster.New(spec))
	if err := w.Run(func(c *Comm) error {
		g := c.World().AllGroup()
		win := c.WinCreate(g, make(FlatMem, bytes/8))
		prev := (c.Rank() - 1 + n) % n
		next := (c.Rank() + 1) % n
		src := make([]float64, bytes/8)
		for i := range src {
			src[i] = float64(c.Rank()*1000 + i)
		}
		c.WinPost(win, []int{prev}, 0)
		c.WinStart(win, []int{next}, nil)
		c.Put(win, next, 0, src)
		c.WinComplete(win)
		c.WinWait(win)
		finish[c.Rank()] = c.Now()
		stall[c.Rank()] = c.RecvStall
		rbytes[c.Rank()] = c.RecvBytes
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if leaked := w.LeakedOps(); leaked != 0 {
		t.Fatalf("leaked %d ops after clean PSCW ring", leaked)
	}
	return finish, stall, rbytes
}

// ringPSCWSendRecv mirrors ringPSCW message for message with paired
// point-to-point traffic: the post notification, the payload, and the
// completion notification are explicit sends/receives of the same sizes
// in the same program order.
func ringPSCWSendRecv(t *testing.T, n, bytes int, net cluster.NetParams) ([]vclock.Time, []vclock.Duration, []int64) {
	t.Helper()
	spec := cluster.Uniform(n)
	spec.Net = net
	finish := make([]vclock.Time, n)
	stall := make([]vclock.Duration, n)
	rbytes := make([]int64, n)
	const (
		tagPost = 100
		tagData = 101
		tagDone = 102
	)
	if err := Run(cluster.New(spec), func(c *Comm) error {
		prev := (c.Rank() - 1 + n) % n
		next := (c.Rank() + 1) % n
		c.Send(prev, tagPost, nil, pscwCtlBytes) // post
		c.Recv(next, tagPost)                    // start
		c.Send(next, tagData, nil, bytes)        // the one-sided payload
		c.Send(next, tagDone, nil, pscwCtlBytes) // complete
		c.Recv(prev, tagDone)                    // wait: completion notification
		c.Recv(prev, tagData)                    // wait: settle the deposit
		finish[c.Rank()] = c.Now()
		stall[c.Rank()] = c.RecvStall
		rbytes[c.Rank()] = c.RecvBytes
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return finish, stall, rbytes
}

// TestPSCWMatchesSendRecvOnWire pins the PSCW pricing contract on a
// CPU-free interconnect: a post/start/put/complete/wait epoch must land
// every rank at *exactly* the virtual time of the literal per-message
// mirror — control notifications are ordinary 8-byte messages and the
// wait's settlement is a receive-side Wait, so with CPU zeroed the two
// formulations are indistinguishable, rank by rank, down to the receive
// counters.
func TestPSCWMatchesSendRecvOnWire(t *testing.T) {
	net := wireNet()
	for _, n := range []int{2, 4, 8} {
		for _, bytes := range []int{8, 4096} {
			rmaT, rmaS, rmaB := ringPSCW(t, n, bytes, net)
			p2pT, p2pS, p2pB := ringPSCWSendRecv(t, n, bytes, net)
			for r := 0; r < n; r++ {
				if rmaT[r] != p2pT[r] {
					t.Errorf("n=%d bytes=%d rank %d: pscw finish %v, send/recv %v",
						n, bytes, r, rmaT[r], p2pT[r])
				}
				if rmaS[r] != p2pS[r] {
					t.Errorf("n=%d bytes=%d rank %d: pscw stall %v, send/recv %v",
						n, bytes, r, rmaS[r], p2pS[r])
				}
				if rmaB[r] != p2pB[r] {
					t.Errorf("n=%d bytes=%d rank %d: pscw recv bytes %d, send/recv %d",
						n, bytes, r, rmaB[r], p2pB[r])
				}
			}
		}
	}
}

// TestPSCWSavesExactRecvCPU pins the modelled saving on the default
// (CPU-charging) interconnect: the PSCW target's timeline is *exactly* one
// receive-side cpuCost(bytes) shorter than the per-message mirror's — the
// payload lands by one-sided deposit instead of a receive-side copy, while
// every control message costs the same on both sides.
func TestPSCWSavesExactRecvCPU(t *testing.T) {
	net := cluster.DefaultNet()
	for _, n := range []int{2, 4, 8} {
		for _, bytes := range []int{8, 4096} {
			rmaT, rmaS, _ := ringPSCW(t, n, bytes, net)
			p2pT, p2pS, _ := ringPSCWSendRecv(t, n, bytes, net)
			saved := cpuCost(net, bytes)
			for r := 0; r < n; r++ {
				if got := p2pT[r].Sub(rmaT[r]); got != saved {
					t.Errorf("n=%d bytes=%d rank %d: pscw saves %v, want exactly cpuCost=%v",
						n, bytes, r, got, saved)
				}
				if rmaS[r] != p2pS[r] {
					t.Errorf("n=%d bytes=%d rank %d: stall diverged: pscw %v, p2p %v",
						n, bytes, r, rmaS[r], p2pS[r])
				}
			}
		}
	}
}

// TestPSCWBeatsFenceSync pins the scalability claim the replica refresh
// spends: on a CPU-free interconnect the pairwise ring epoch finishes
// strictly earlier than the identical traffic under fence synchronisation
// once the group is large enough for the dissemination butterfly
// (ceil(log2 n) rounds) to cost more than one control round-trip.
func TestPSCWBeatsFenceSync(t *testing.T) {
	net := wireNet()
	const bytes = 4096
	for _, n := range []int{8, 32} {
		pscwT, _, _ := ringPSCW(t, n, bytes, net)
		fenceT, _ := ringPutFence(t, n, bytes, net)
		for r := 0; r < n; r++ {
			if pscwT[r] >= fenceT[r] {
				t.Errorf("n=%d rank %d: pscw finish %v, fence %v — pairwise sync should be cheaper",
					n, r, pscwT[r], fenceT[r])
			}
		}
	}
}

// TestPSCWDrainDeterministic pins the settlement order contract for
// multi-origin exposure epochs: seven origins with uneven payloads deposit
// into one owner, and the owner's final clock, stall, and traffic counters
// must be bit-identical across repeated runs regardless of physical
// scheduling.
func TestPSCWDrainDeterministic(t *testing.T) {
	const n = 8
	run := func() (vclock.Time, vclock.Duration, int64) {
		var finish vclock.Time
		var stall vclock.Duration
		var bytes int64
		spec := cluster.Uniform(n)
		if err := Run(cluster.New(spec), func(c *Comm) error {
			g := c.World().AllGroup()
			win := c.WinCreate(g, make(FlatMem, 64*n))
			if c.Rank() == 0 {
				origins := make([]int, 0, n-1)
				for r := 1; r < n; r++ {
					origins = append(origins, r)
				}
				c.WinPost(win, origins, 0)
				c.WinWait(win)
				finish, stall, bytes = c.Now(), c.RecvStall, c.RecvBytes
				return nil
			}
			c.WinStart(win, []int{0}, nil)
			src := make([]float64, 8*c.Rank())
			c.Put(win, 0, 64*(c.Rank()-1), src[:4])
			c.Put(win, 0, 64*(c.Rank()-1)+4, src)
			c.WinComplete(win)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return finish, stall, bytes
	}
	f0, s0, b0 := run()
	for i := 0; i < 4; i++ {
		f, s, b := run()
		if f != f0 || s != s0 || b != b0 {
			t.Fatalf("run %d diverged: finish %v/%v stall %v/%v bytes %d/%d", i, f, f0, s, s0, b, b0)
		}
	}
}

// TestPSCWSteadyStateAllocFree holds the one-sided Put path allocation-free
// once warm. Pairwise: rank 0's start/Put/complete against rank 1's
// post/wait, 512 epochs past 16 of warm-up, cost not one malloc. The count
// is the raw MemStats delta over the whole loop, because AllocsPerRun would
// round a fraction of a malloc per epoch down to 0, and the loop runs well
// past epoch 256, from which on an epoch number boxed into a control
// message's payload allocates. One goroutine drives both ranks: every
// control message is queued before its receive, so nothing blocks.
func TestPSCWSteadyStateAllocFree(t *testing.T) {
	const warm, epochs = 16, 512
	w := NewWorld(cluster.New(cluster.Uniform(2)))
	origin, target := w.NewComm(0), w.NewComm(1)
	mem := make(FlatMem, 64)
	win := origin.WinCreate(w.AllGroup(), nil)
	target.WinCreate(w.AllGroup(), mem)
	src := make([]float64, len(mem))
	toOrigin, toTarget := []int{0}, []int{1}
	epoch := func(k int) {
		src[0] = float64(k)
		target.WinPost(win, toOrigin, 0)
		origin.WinStart(win, toTarget, nil)
		origin.Put(win, 1, 0, src)
		origin.WinComplete(win)
		target.WinWait(win)
	}
	for k := 0; k < warm; k++ {
		epoch(k)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := warm; k < warm+epochs; k++ {
		epoch(k)
	}
	runtime.ReadMemStats(&after)
	if got, want := mem[0], float64(warm+epochs-1); got != want {
		t.Fatalf("last epoch's deposit reads %v, want %v", got, want)
	}
	if leaked := w.LeakedOps(); leaked != 0 {
		t.Fatalf("leaked %d ops", leaked)
	}
	pscw := after.Mallocs - before.Mallocs

	// The fence, the other discipline, holds the same claim. Its epoch is a
	// collective, so both ranks run, the loop is measured between barriers,
	// and the runtime's own few mallocs are allowed: one per epoch is 512.
	var fence uint64
	runPair(t, func(c *Comm, me, peer int) {
		g := c.World().AllGroup()
		win := c.WinCreate(g, make(FlatMem, len(src)))
		c.Fence(win) // open the first epoch
		epoch := func() {
			if me == 0 {
				c.Put(win, peer, 0, src)
			}
			c.Fence(win)
		}
		for k := 0; k < warm; k++ {
			epoch()
		}
		var before, after runtime.MemStats
		c.Barrier(g)
		if me == 0 {
			runtime.ReadMemStats(&before)
		}
		c.Barrier(g)
		for k := 0; k < epochs; k++ {
			epoch()
		}
		c.Barrier(g)
		if me == 0 {
			runtime.ReadMemStats(&after)
			fence = after.Mallocs - before.Mallocs
		}
	})
	if raceEnabled {
		return // the race detector's own bookkeeping allocates
	}
	if pscw != 0 {
		t.Errorf("%d pairwise epochs cost %d mallocs, want 0", epochs, pscw)
	}
	if fence > 16 {
		t.Errorf("%d fence epochs cost %d mallocs, want ~0", epochs, fence)
	}
}

// TestPSCWFenceSameWindowDisjoint drives fence traffic and PSCW traffic
// through the *same* window in alternation and asserts neither discipline
// settles the other's deposits: a fence drains only fence-stamped
// deposits, a wait only the completed pairwise epoch's.
func TestPSCWFenceSameWindowDisjoint(t *testing.T) {
	const n = 4
	spec := cluster.Uniform(n)
	w := NewWorld(cluster.New(spec))
	if err := w.Run(func(c *Comm) error {
		g := c.World().AllGroup()
		mem := make(FlatMem, 2*n)
		win := c.WinCreate(g, mem)
		prev := (c.Rank() - 1 + n) % n
		next := (c.Rank() + 1) % n
		c.Fence(win)
		// Fence-epoch put into slot [0, n).
		c.Put(win, next, c.Rank(), []float64{float64(100 + c.Rank())})
		// Pairwise epoch over the same window into slot [n, 2n).
		c.WinPost(win, []int{prev}, 0)
		c.WinStart(win, []int{next}, nil)
		c.Put(win, next, n+c.Rank(), []float64{float64(200 + c.Rank())})
		c.WinComplete(win)
		c.WinWait(win)
		if got, want := mem[n+prev], float64(200+prev); got != want {
			t.Errorf("rank %d: pscw deposit = %v, want %v", c.Rank(), got, want)
		}
		c.Fence(win)
		if got, want := mem[prev], float64(100+prev); got != want {
			t.Errorf("rank %d: fence deposit = %v, want %v", c.Rank(), got, want)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if leaked := w.LeakedOps(); leaked != 0 {
		t.Fatalf("leaked %d ops after mixed fence/pscw run", leaked)
	}
}

// TestPSCWCrashOriginFailsWait is the pairwise failure suite's ring case:
// rank 2 crashes at a cycle boundary, so its successor's start fails (dead
// target) and its predecessor's wait fails (dead origin) — each with a
// *RankFailedError naming rank 2, never a hang — while the surviving
// pair's transfer is unaffected up to the abandon. Nothing leaks after the
// discard protocol.
func TestPSCWCrashOriginFailsWait(t *testing.T) {
	const n = 3
	spec := cluster.Uniform(n)
	spec.Faults = []fault.Fault{fault.CrashAtCycle(2, 1)}
	w := NewWorld(cluster.New(spec))
	sawError := make([]bool, n)
	if err := w.Run(func(c *Comm) error {
		g := c.World().AllGroup()
		win := c.WinCreate(g, make(FlatMem, 8))
		prev := (c.Rank() - 1 + n) % n
		next := (c.Rank() + 1) % n
		src := []float64{float64(c.Rank())}
		for cycle := 0; cycle < 3; cycle++ {
			c.InjectCycleFaults(cycle) // rank 2 dies entering cycle 1
			c.WinPost(win, []int{prev}, 0)
			if err := c.WinStartErr(win, []int{next}, nil); err != nil {
				// Rank 1's target is the dead rank 2.
				var rf *RankFailedError
				if !errors.As(err, &rf) || len(rf.Ranks) != 1 || rf.Ranks[0] != 2 {
					t.Errorf("rank %d: want start RankFailedError{2}, got %v", c.Rank(), err)
				}
				if c.Rank() != 1 {
					t.Errorf("rank %d: unexpected start failure %v", c.Rank(), err)
				}
				sawError[c.Rank()] = true
				// The exposure epoch toward the live predecessor is
				// unaffected by the dead successor — that independence is
				// the point of pairwise sync. Settle it normally.
				if err := c.WinWaitErr(win); err != nil {
					t.Errorf("rank %d: wait on live origin failed after dead-target start: %v", c.Rank(), err)
				}
				c.DiscardPending(win)
				return nil
			}
			c.Put(win, next, 0, src)
			if err := c.WinCompleteErr(win); err != nil {
				t.Errorf("rank %d: complete toward live target failed: %v", c.Rank(), err)
				return nil
			}
			if err := c.WinWaitErr(win); err != nil {
				// Rank 0's origin is the dead rank 2, which never completed.
				var rf *RankFailedError
				if !errors.As(err, &rf) || len(rf.Ranks) != 1 || rf.Ranks[0] != 2 {
					t.Errorf("rank %d: want wait RankFailedError{2}, got %v", c.Rank(), err)
				}
				if c.Rank() != 0 {
					t.Errorf("rank %d: unexpected wait failure %v", c.Rank(), err)
				}
				sawError[c.Rank()] = true
				if c.Rank() == 0 {
					if elems, ok := c.PendingPSCW(win, 2); ok {
						t.Errorf("rank 0: dead rank 2 shows %d pending elems, want none (it died before its put)", elems)
					}
				}
				c.DiscardPending(win)
				return nil
			}
		}
		t.Errorf("rank %d: pairwise sync never reported the crash", c.Rank())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !sawError[0] || !sawError[1] {
		t.Errorf("survivors did not observe the failure pairwise: %v", sawError)
	}
	if leaked := w.LeakedOps(); leaked != 0 {
		t.Fatalf("leaked %d ops after pscw crash run", leaked)
	}
}

// TestPSCWCrashOriginAfterDeposit is the adoption case the replica refresh
// depends on: the origin Puts its slab and dies before completing. The
// target's wait fails, but PendingPSCW answers deterministically that the
// dead origin's transfer landed in full — a crashed rank's Puts completed
// on its own goroutine before the death published — and the window memory
// holds the data, so the survivor can adopt it.
func TestPSCWCrashOriginAfterDeposit(t *testing.T) {
	spec := cluster.Uniform(2)
	spec.Faults = []fault.Fault{fault.CrashAtCycle(0, 1)}
	w := NewWorld(cluster.New(spec))
	adopted := false
	if err := w.Run(func(c *Comm) error {
		g := c.World().AllGroup()
		mem := make(FlatMem, 4)
		win := c.WinCreate(g, mem)
		c.InjectCycleFaults(0)
		if c.Rank() == 0 {
			// Origin: start, deposit in full, die before completing.
			if err := c.WinStartErr(win, []int{1}, nil); err != nil {
				t.Errorf("rank 0: start failed: %v", err)
				return nil
			}
			c.Put(win, 1, 0, []float64{7, 8, 9, 10})
			c.InjectCycleFaults(1) // dies here
			t.Error("rank 0 survived its crash cycle")
			return nil
		}
		c.WinPost(win, []int{0}, 0)
		err := c.WinWaitErr(win)
		var rf *RankFailedError
		if !errors.As(err, &rf) || len(rf.Ranks) != 1 || rf.Ranks[0] != 0 {
			t.Errorf("rank 1: want wait RankFailedError{0}, got %v", err)
			return nil
		}
		elems, ok := c.PendingPSCW(win, 0)
		if !ok || elems != 4 {
			t.Errorf("rank 1: pending from dead origin = (%d,%v), want (4,true)", elems, ok)
		}
		for i, want := range []float64{7, 8, 9, 10} {
			if mem[i] != want {
				t.Errorf("rank 1: window mem[%d] = %v, want %v", i, mem[i], want)
			}
		}
		adopted = true
		c.DiscardPending(win)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !adopted {
		t.Error("rank 1 never inspected the dead origin's pending deposit")
	}
	if leaked := w.LeakedOps(); leaked != 0 {
		t.Fatalf("leaked %d ops after adoption run", leaked)
	}
}

// TestPSCWCrashTargetFailsComplete pins the remaining failure edge: the
// target posts, the origin starts and deposits, and the target dies before
// the origin completes. Once the death is published (here via a failed
// collective, the same cycle-boundary convergence the runtime uses), the
// origin's complete reports *RankFailedError instead of notifying a corpse.
func TestPSCWCrashTargetFailsComplete(t *testing.T) {
	spec := cluster.Uniform(2)
	spec.Faults = []fault.Fault{fault.CrashAtCycle(1, 1)}
	w := NewWorld(cluster.New(spec))
	sawComplete := false
	if err := w.Run(func(c *Comm) error {
		g := c.World().AllGroup()
		win := c.WinCreate(g, make(FlatMem, 4))
		c.InjectCycleFaults(0)
		if c.Rank() == 1 {
			c.WinPost(win, []int{0}, 0)
			c.InjectCycleFaults(1) // dies after posting
			t.Error("rank 1 survived its crash cycle")
			return nil
		}
		// The post was sent before the death, so the start succeeds.
		if err := c.WinStartErr(win, []int{1}, nil); err != nil {
			t.Errorf("rank 0: start failed: %v", err)
			return nil
		}
		c.Put(win, 1, 0, []float64{1, 2})
		// Converge on the death the way the runtime does: the next
		// collective over the group fails deterministically.
		if err := c.BarrierErr(g); err == nil {
			t.Error("rank 0: barrier over a dead member succeeded")
		}
		err := c.WinCompleteErr(win)
		var rf *RankFailedError
		if !errors.As(err, &rf) || len(rf.Ranks) != 1 || rf.Ranks[0] != 1 {
			t.Errorf("rank 0: want complete RankFailedError{1}, got %v", err)
			return nil
		}
		sawComplete = true
		c.DiscardPending(win)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !sawComplete {
		t.Error("rank 0 never observed the dead target at complete")
	}
	if leaked := w.LeakedOps(); leaked != 0 {
		t.Fatalf("leaked %d ops after dead-target complete run", leaked)
	}
}
