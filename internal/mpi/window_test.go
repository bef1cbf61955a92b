package mpi

import (
	"errors"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/vclock"
)

// This file validates the one-sided layer (window.go) the same way the
// collective cost model is validated: against per-message Send/Recv
// simulation of the identical traffic, exactly — plus the failure-at-fence
// suite (a dead member resolves to RankFailedError, never a hang, and no
// deposit is ever leaked).

// ringPutFence runs an n-rank world where every rank Puts bytes into its
// successor's window and closes the epoch with a fence, and returns each
// rank's final virtual time and receive stall.
func ringPutFence(t *testing.T, n, bytes int, net cluster.NetParams) ([]vclock.Time, []vclock.Duration) {
	t.Helper()
	spec := cluster.Uniform(n)
	spec.Net = net
	finish := make([]vclock.Time, n)
	stall := make([]vclock.Duration, n)
	w := NewWorld(cluster.New(spec))
	if err := w.Run(func(c *Comm) error {
		g := c.World().AllGroup()
		win := c.WinCreate(g, make(FlatMem, bytes/8))
		c.Fence(win) // open the access epoch
		src := make([]float64, bytes/8)
		for i := range src {
			src[i] = float64(c.Rank()*1000 + i)
		}
		c.Put(win, (c.Rank()+1)%n, 0, src)
		c.Fence(win) // close: the owner settles its predecessor's deposit
		finish[c.Rank()] = c.Now()
		stall[c.Rank()] = c.RecvStall
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if leaked := w.LeakedOps(); leaked != 0 {
		t.Fatalf("leaked %d ops after clean put/fence run", leaked)
	}
	return finish, stall
}

// ringSendRecv mirrors ringPutFence with paired point-to-point traffic and
// the same synchronisation structure: barrier, send to successor, barrier,
// receive from predecessor.
func ringSendRecv(t *testing.T, n, bytes int, net cluster.NetParams) ([]vclock.Time, []vclock.Duration) {
	t.Helper()
	spec := cluster.Uniform(n)
	spec.Net = net
	finish := make([]vclock.Time, n)
	stall := make([]vclock.Duration, n)
	if err := Run(cluster.New(spec), func(c *Comm) error {
		g := c.World().AllGroup()
		c.Barrier(g)
		c.Send((c.Rank()+1)%n, 7, nil, bytes)
		c.Barrier(g)
		c.Recv((c.Rank()-1+n)%n, 7)
		finish[c.Rank()] = c.Now()
		stall[c.Rank()] = c.RecvStall
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return finish, stall
}

// TestPutFenceMatchesSendRecvOnWire pins the tentpole's pricing contract on
// a CPU-free interconnect: a Put/Fence epoch must land every rank at
// *exactly* the virtual time of the equivalent barrier-framed Send/Recv
// exchange — the fence synchronisation is a dissemination barrier and the
// deposit settlement is a receive-side Wait, so with CPU zeroed the two
// formulations are indistinguishable, rank by rank.
func TestPutFenceMatchesSendRecvOnWire(t *testing.T) {
	net := wireNet()
	for _, n := range []int{2, 4, 8} {
		for _, bytes := range []int{8, 4096} {
			rmaT, rmaS := ringPutFence(t, n, bytes, net)
			p2pT, p2pS := ringSendRecv(t, n, bytes, net)
			for r := 0; r < n; r++ {
				if rmaT[r] != p2pT[r] {
					t.Errorf("n=%d bytes=%d rank %d: put/fence finish %v, send/recv %v",
						n, bytes, r, rmaT[r], p2pT[r])
				}
				if rmaS[r] != p2pS[r] {
					t.Errorf("n=%d bytes=%d rank %d: put/fence stall %v, send/recv %v",
						n, bytes, r, rmaS[r], p2pS[r])
				}
			}
		}
	}
}

// TestPutFenceSavesExactRecvCPU pins the modelled saving on the default
// (CPU-charging) interconnect: the Put target's timeline is *exactly* one
// receive-side cpuCost(bytes) shorter than the paired send/recv target's —
// nothing else about the two timelines differs (deposit arrival stamps and
// residual stall are identical by construction).
func TestPutFenceSavesExactRecvCPU(t *testing.T) {
	net := cluster.DefaultNet()
	for _, n := range []int{2, 4, 8} {
		for _, bytes := range []int{8, 4096} {
			rmaT, rmaS := ringPutFence(t, n, bytes, net)
			p2pT, p2pS := ringSendRecv(t, n, bytes, net)
			saved := cpuCost(net, bytes)
			for r := 0; r < n; r++ {
				if got := p2pT[r].Sub(rmaT[r]); got != saved {
					t.Errorf("n=%d bytes=%d rank %d: put/fence saves %v, want exactly cpuCost=%v",
						n, bytes, r, got, saved)
				}
				if rmaS[r] != p2pS[r] {
					t.Errorf("n=%d bytes=%d rank %d: stall diverged: rma %v, p2p %v",
						n, bytes, r, rmaS[r], p2pS[r])
				}
			}
		}
	}
}

// TestFenceHiddenWireMatchesClosedForm pins the fence's stall/credit
// arithmetic against the nbRecvStall closed form: with the owner computing
// W between the origin's Put and the epoch-closing fence, the residual
// stall is nbRecvStall(bytes, W + fenceWire) and the hidden credit is the
// wire time minus that stall.
func TestFenceHiddenWireMatchesClosedForm(t *testing.T) {
	net := wireNet() // zero CPU keeps both ranks' deposit stamps aligned
	const elems = 2048
	bytes := F64Bytes(elems)
	for _, overlapS := range []float64{1e-6, 1.0} { // partial and full hiding
		var stall, hidden vclock.Duration
		spec := cluster.Uniform(2)
		spec.Net = net
		if err := Run(cluster.New(spec), func(c *Comm) error {
			g := c.World().AllGroup()
			win := c.WinCreate(g, make(FlatMem, elems))
			c.Fence(win)
			if c.Rank() == 0 {
				c.Put(win, 1, 0, make([]float64, elems))
			} else {
				c.Node().Compute(vclock.FromSeconds(overlapS))
			}
			c.Fence(win)
			if c.Rank() == 1 {
				stall, hidden = c.RecvStall, c.HiddenWire
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		// The owner reaches the settlement fenceWire after its own fence
		// deposit (the origin deposited earlier — zero CPU, so its Put and
		// fence arrival happen at the epoch-open time).
		fenceWire := barrierCost(net, 2).wire
		wantStall := nbRecvStall(net, bytes, vclock.FromSeconds(overlapS)+fenceWire)
		if stall != wantStall {
			t.Errorf("overlap %vs: fence stall %v, closed form %v", overlapS, stall, wantStall)
		}
		if want := wireTime(net, bytes) - wantStall; hidden != want {
			t.Errorf("overlap %vs: hidden credit %v, want %v", overlapS, hidden, want)
		}
	}
}

// TestFenceDrainDeterministic pins the settlement order contract: many
// origins with different payload sizes deposit into one owner, and the
// owner's final clock, stall, and traffic counters must be bit-identical
// across repeated runs regardless of physical scheduling.
func TestFenceDrainDeterministic(t *testing.T) {
	const n = 8
	run := func() (vclock.Time, vclock.Duration, int64) {
		var finish vclock.Time
		var stall vclock.Duration
		var bytes int64
		spec := cluster.Uniform(n)
		if err := Run(cluster.New(spec), func(c *Comm) error {
			g := c.World().AllGroup()
			win := c.WinCreate(g, make(FlatMem, 64*n))
			c.Fence(win)
			if c.Rank() != 0 {
				// Uneven payloads at uneven offsets, all into rank 0.
				src := make([]float64, 8*c.Rank())
				c.Put(win, 0, 64*(c.Rank()-1), src[:4])
				c.Put(win, 0, 64*(c.Rank()-1)+4, src)
			}
			c.Fence(win)
			if c.Rank() == 0 {
				finish, stall, bytes = c.Now(), c.RecvStall, c.RecvBytes
			}
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

// discardAfterSurvivorsSync is the discard step of the failed-fence
// protocol. A failed fence returns as soon as the death is seen, without
// waiting for the live members, so a slower survivor may still be about to
// Put into this rank's slot; discarding first would leave that deposit
// pending forever. A barrier over the survivors orders every survivor's
// Puts (earlier in its program order) before anyone's discard. (The runtime
// no longer fences: its pairwise waits consume each live origin's completion,
// which gives the same order per pair.)
func discardAfterSurvivorsSync(t *testing.T, c *Comm, win *Win, survivors []int) {
	t.Helper()
	if err := c.BarrierErr(c.World().NewGroup(survivors)); err != nil {
		t.Errorf("rank %d: survivors' barrier failed: %v", c.Rank(), err)
	}
	c.DiscardPending(win)
}

// TestFenceCrashTargetBeforeDeposit is the failure-at-fence suite's "dead
// rank never deposited" case: rank 2 crashes at a cycle boundary before
// issuing that epoch's Put. Survivors' fences resolve to RankFailedError
// (never a hang), a Put aimed at the dead target deposits nothing, and
// after the discard protocol nothing is leaked.
func TestFenceCrashTargetBeforeDeposit(t *testing.T) {
	const n = 3
	spec := cluster.Uniform(n)
	spec.Faults = []fault.Fault{fault.CrashAtCycle(2, 1)}
	w := NewWorld(cluster.New(spec))
	sawError := make([]bool, n)
	if err := w.Run(func(c *Comm) error {
		g := c.World().AllGroup()
		win := c.WinCreate(g, make(FlatMem, 8))
		if err := c.FenceErr(win); err != nil {
			t.Errorf("rank %d: opening fence failed: %v", c.Rank(), err)
			return nil
		}
		src := []float64{float64(c.Rank())}
		for cycle := 0; cycle < 3; cycle++ {
			c.InjectCycleFaults(cycle) // rank 2 dies entering cycle 1
			c.Put(win, (c.Rank()+1)%n, 0, src)
			if err := c.FenceErr(win); err != nil {
				var rf *RankFailedError
				if !errors.As(err, &rf) || len(rf.Ranks) != 1 || rf.Ranks[0] != 2 {
					t.Errorf("rank %d: want RankFailedError{2}, got %v", c.Rank(), err)
				}
				sawError[c.Rank()] = true
				discardAfterSurvivorsSync(t, c, win, []int{0, 1})
				return nil
			}
		}
		t.Errorf("rank %d: fence never reported the crash", c.Rank())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !sawError[0] || !sawError[1] {
		t.Errorf("survivors did not all observe the failure: %v", sawError)
	}
	if leaked := w.LeakedOps(); leaked != 0 {
		t.Fatalf("leaked %d ops after crash-before-deposit run", leaked)
	}
}

// TestFenceCrashOriginAfterDeposit is the "origin dies mid-epoch, after its
// Put landed" case, in the deferred-epoch shape the replica-refresh
// consumer uses (fence at cycle entry closes the previous cycle's epoch):
// rank 2 Puts in cycle 1 and crashes entering cycle 2, so the epoch being
// closed holds its completed deposit. The deposited data must be intact in
// the window memory: a crashed rank's Puts completed on its own goroutine
// before the death published.
func TestFenceCrashOriginAfterDeposit(t *testing.T) {
	const n = 3
	spec := cluster.Uniform(n)
	spec.Faults = []fault.Fault{fault.CrashAtCycle(2, 2)}
	w := NewWorld(cluster.New(spec))
	recovered := false
	if err := w.Run(func(c *Comm) error {
		g := c.World().AllGroup()
		mem := make(FlatMem, 4)
		win := c.WinCreate(g, mem)
		for cycle := 0; cycle < 4; cycle++ {
			c.InjectCycleFaults(cycle) // rank 2 dies entering cycle 2
			// Close the previous epoch (deferred settlement).
			if err := c.FenceErr(win); err != nil {
				var rf *RankFailedError
				if !errors.As(err, &rf) {
					t.Errorf("rank %d: want RankFailedError, got %v", c.Rank(), err)
				}
				if c.Rank() == 0 {
					// The dead predecessor's cycle-1 Put landed in full.
					for i := range mem {
						if want := float64(2*100 + 1*10 + i); mem[i] != want {
							t.Errorf("rank 0: window mem[%d] = %v, want %v (rank 2's cycle-1 put)", i, mem[i], want)
						}
					}
					recovered = true
				}
				discardAfterSurvivorsSync(t, c, win, []int{0, 1})
				return nil
			}
			src := make([]float64, 4)
			for i := range src {
				src[i] = float64(c.Rank()*100 + cycle*10 + i)
			}
			c.Put(win, (c.Rank()+1)%n, 0, src)
		}
		t.Errorf("rank %d: fence never reported the crash", c.Rank())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !recovered {
		t.Error("rank 0 never inspected the dead origin's deposit")
	}
	if leaked := w.LeakedOps(); leaked != 0 {
		t.Fatalf("leaked %d ops after crash-after-deposit run", leaked)
	}
}

// TestWindowTeardownNoLeakedDeposits drives several epochs and a reattach
// through two windows on the same group and asserts the world tears down
// with zero pending deposits — the LeakedOps contract for windows.
func TestWindowTeardownNoLeakedDeposits(t *testing.T) {
	const n = 4
	spec := cluster.Uniform(n)
	w := NewWorld(cluster.New(spec))
	if err := w.Run(func(c *Comm) error {
		g := c.World().AllGroup()
		a := c.WinCreate(g, make(FlatMem, 32))
		b := c.WinCreate(g, make(FlatMem, 32))
		if a == b {
			t.Errorf("rank %d: two WinCreate calls returned one window", c.Rank())
		}
		c.Fence(a)
		c.Fence(b)
		for cycle := 0; cycle < 3; cycle++ {
			c.Put(a, (c.Rank()+1)%n, 8*c.Rank(), []float64{1, 2})
			c.Put(b, (c.Rank()+2)%n, 0, []float64{4, 5, 6, 7})
			c.Fence(a)
			c.Fence(b)
		}
		c.WinAttach(a, make(FlatMem, 64)) // grow the exposed slab
		c.Fence(a)
		c.Put(a, (c.Rank()+1)%n, 40, []float64{3})
		c.Fence(a)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if leaked := w.LeakedOps(); leaked != 0 {
		t.Fatalf("leaked %d ops after multi-window teardown", leaked)
	}
}
