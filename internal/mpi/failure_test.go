package mpi

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/vclock"
)

// faultRun executes fn on an n-node uniform cluster with the given injected
// faults and returns the world error (nil on clean completion).
func faultRun(n int, faults []fault.Fault, fn func(*Comm) error) error {
	spec := cluster.Uniform(n)
	spec.Faults = faults
	return Run(cluster.New(spec), fn)
}

func TestRecvErrFromDeadRankReturnsError(t *testing.T) {
	err := faultRun(2, []fault.Fault{fault.CrashAtCycle(0, 0)}, func(c *Comm) error {
		if c.Rank() == 0 {
			c.InjectCycleFaults(0) // does not return
			return errors.New("crash fault did not fire")
		}
		_, _, err := c.RecvErr(0, 5)
		var rf *RankFailedError
		if !errors.As(err, &rf) {
			return errors.New("want RankFailedError, got " + errString(err))
		}
		if rf.Op != "recv" || len(rf.Ranks) != 1 || rf.Ranks[0] != 0 {
			return errors.New("wrong error contents: " + rf.Error())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMessagesSentBeforeCrashStillDeliver(t *testing.T) {
	err := faultRun(2, []fault.Fault{fault.CrashAtCycle(0, 1)}, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 3, []float64{7}, 8)
			c.InjectCycleFaults(1)
			return errors.New("crash fault did not fire")
		}
		// The pre-crash message must arrive intact before the dead check
		// fires on the empty queue.
		p, _, err := c.RecvErr(0, 3)
		if err != nil {
			return err
		}
		if v := p.([]float64); v[0] != 7 {
			return errors.New("wrong payload")
		}
		if _, _, err := c.RecvErr(0, 3); err == nil {
			return errors.New("second receive from dead rank succeeded")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPlainRecvFromDeadRankFailsWorld(t *testing.T) {
	err := faultRun(2, []fault.Fault{fault.CrashAtCycle(0, 0)}, func(c *Comm) error {
		if c.Rank() == 0 {
			c.InjectCycleFaults(0)
			return nil
		}
		c.Recv(0, 1) // bounded waiting: must fail the world, not hang
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "dead rank") {
		t.Fatalf("want world failure naming the dead rank, got %v", err)
	}
}

// TestAnySourceRecvFailsOnceNoRankCanSend: a wildcard receive waits as long
// as some rank could still send — here a slow one — and fails, instead of
// parking for ever, once every rank left is parked on such a receive itself.
func TestAnySourceRecvFailsOnceNoRankCanSend(t *testing.T) {
	err := faultRun(4, []fault.Fault{fault.CrashAtCycle(0, 0)}, func(c *Comm) error {
		switch c.Rank() {
		case 0:
			c.InjectCycleFaults(0)
			return errors.New("crash fault did not fire")
		case 1:
			time.Sleep(10 * time.Millisecond) // the receivers park first
			c.Send(2, 5, 2, 8)
			c.Send(3, 5, 3, 8)
			return nil
		}
		p, st, err := c.RecvErr(AnySource, 5)
		if err != nil || p.(int) != c.Rank() || st.Source != 1 {
			return fmt.Errorf("rank %d: first receive got %v from %d, err %v", c.Rank(), p, st.Source, err)
		}
		if _, _, err := c.RecvErr(AnySource, 5); err == nil || !strings.Contains(err.Error(), "no rank is left") {
			return fmt.Errorf("rank %d: second receive: want the no-sender error, got %v", c.Rank(), err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPlainAnySourceRecvWithNoSenderFailsWorld(t *testing.T) {
	err := faultRun(2, nil, func(c *Comm) error {
		if c.Rank() == 1 {
			c.Recv(AnySource, 1)
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "no rank is left") {
		t.Fatalf("want world failure naming the missing sender, got %v", err)
	}
}

func TestBarrierErrNamesDeadMember(t *testing.T) {
	err := faultRun(3, []fault.Fault{fault.CrashAtCycle(2, 0)}, func(c *Comm) error {
		if c.Rank() == 2 {
			c.InjectCycleFaults(0)
			return nil
		}
		err := c.BarrierErr(c.World().AllGroup())
		var rf *RankFailedError
		if !errors.As(err, &rf) {
			return errors.New("want RankFailedError, got " + errString(err))
		}
		if len(rf.Ranks) != 1 || rf.Ranks[0] != 2 {
			return errors.New("wrong dead set: " + rf.Error())
		}
		// The survivors can immediately retry over the shrunken group.
		return c.BarrierErr(c.World().NewGroup([]int{0, 1}))
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPlainCollectiveWithDeadMemberFailsWorld(t *testing.T) {
	err := faultRun(3, []fault.Fault{fault.CrashAtCycle(1, 0)}, func(c *Comm) error {
		if c.Rank() == 1 {
			c.InjectCycleFaults(0)
			return nil
		}
		c.Barrier(c.World().AllGroup())
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "dead rank") {
		t.Fatalf("want world failure naming the dead rank, got %v", err)
	}
}

func TestSendToDeadRankSucceeds(t *testing.T) {
	err := faultRun(2, []fault.Fault{fault.CrashAtCycle(0, 0)}, func(c *Comm) error {
		if c.Rank() == 0 {
			c.InjectCycleFaults(0)
			return nil
		}
		if _, _, err := c.RecvErr(0, 1); err == nil {
			return errors.New("receive from dead rank succeeded")
		}
		// Sends to a dead rank park in its mailbox and are never read;
		// eager semantics mean the sender must not block or fail.
		c.Send(0, 1, []float64{1}, 8)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDropRedeliversAfterRetransmit(t *testing.T) {
	err := faultRun(2, []fault.Fault{fault.DropMsgs(0, 1, 0, 1)}, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 0, []float64{1}, 8)
			c.Send(1, 0, []float64{2}, 8)
			return nil
		}
		c.Recv(0, 0)
		first := c.Now()
		if first < vclock.Time(fault.DefaultRetransmit) {
			return errors.New("dropped message arrived before the retransmission delay")
		}
		// The second message is unaffected; FIFO still holds per (src,tag).
		p, _ := c.Recv(0, 0)
		if p.([]float64)[0] != 2 {
			return errors.New("messages reordered")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDelayAddsDeliveryLatency(t *testing.T) {
	const extra = 50 * vclock.Millisecond
	err := faultRun(2, []fault.Fault{fault.DelayMsgs(0, 1, 0, 1, extra)}, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 0, []float64{1}, 8)
			return nil
		}
		c.Recv(0, 0)
		if c.Now() < vclock.Time(extra) {
			return errors.New("delayed message arrived early")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStallAdvancesClock(t *testing.T) {
	const dur = 100 * vclock.Millisecond
	err := faultRun(1, []fault.Fault{fault.StallAtCycle(0, 0, dur)}, func(c *Comm) error {
		before := c.Now()
		c.InjectCycleFaults(0)
		if c.Now() < before.Add(dur) {
			return errors.New("stall did not advance the clock")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTimedCrashFiresAtFirstOpAfterDeadline(t *testing.T) {
	deadline := vclock.Time(vclock.FromSeconds(0.01))
	err := faultRun(2, []fault.Fault{fault.CrashAt(0, deadline)}, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Node().Compute(vclock.FromSeconds(0.02))
			c.Send(1, 0, []float64{1}, 8) // entry poll fires the crash first
			return errors.New("timed crash did not fire")
		}
		if _, _, err := c.RecvErr(0, 0); err == nil {
			return errors.New("message from crashed rank delivered")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestKillIdempotentAndDeadRanksSorted(t *testing.T) {
	w := NewWorld(cluster.New(cluster.Uniform(4)))
	w.Kill(3)
	w.Kill(1)
	w.Kill(3)
	if !w.dead[1].Load() || !w.dead[3].Load() || w.dead[0].Load() || w.dead[2].Load() {
		t.Fatal("dead bitmap disagrees with Kill")
	}
	dead := w.DeadRanks()
	if len(dead) != 2 || dead[0] != 1 || dead[1] != 3 {
		t.Fatalf("DeadRanks = %v", dead)
	}
}

// TestCrashScenarioDeterministic runs the same crash scenario twice and
// checks every surviving rank finishes at the identical virtual instant.
func TestCrashScenarioDeterministic(t *testing.T) {
	scenario := func() ([]vclock.Time, error) {
		finish := make([]vclock.Time, 4)
		err := faultRun(4, []fault.Fault{fault.CrashAtCycle(2, 3)}, func(c *Comm) error {
			members := []int{0, 1, 2, 3}
			for cycle := 0; cycle < 8; cycle++ {
				c.InjectCycleFaults(cycle)
				g := c.World().NewGroup(members)
				if err := c.BarrierErr(g); err != nil {
					var rf *RankFailedError
					if !errors.As(err, &rf) {
						return err
					}
					keep := members[:0]
					for _, m := range members {
						alive := true
						for _, d := range rf.Ranks {
							if m == d {
								alive = false
							}
						}
						if alive {
							keep = append(keep, m)
						}
					}
					members = keep
				}
				c.Node().Compute(vclock.FromSeconds(0.001))
			}
			finish[c.Rank()] = c.Now()
			return nil
		})
		return finish, err
	}
	a, err := scenario()
	if err != nil {
		t.Fatal(err)
	}
	b, err := scenario()
	if err != nil {
		t.Fatal(err)
	}
	for r := range a {
		if a[r] != b[r] {
			t.Fatalf("rank %d finish differs across runs: %v vs %v", r, a[r], b[r])
		}
	}
	if a[2] != 0 {
		t.Fatalf("crashed rank reported a finish time %v", a[2])
	}
}

// TestSendRecvZeroAllocsWithArmedFaults pins the liveness-check overhead on
// the hot path: with a fault set armed (timed faults pending, message rules
// on an unrelated link) a steady-state send/recv pair must not allocate.
func TestSendRecvZeroAllocsWithArmedFaults(t *testing.T) {
	spec := cluster.Uniform(3)
	spec.Faults = []fault.Fault{
		// Far-future crash keeps the timed-fault cursor active on rank 0.
		fault.CrashAt(0, vclock.Time(vclock.FromSeconds(1e9))),
		// Message rules on the 0->2 link; traffic below runs on 0->1.
		fault.DropMsgs(0, 2, 1<<30, 1),
	}
	w := NewWorld(cluster.New(spec))
	c0, c1 := w.NewComm(0), w.NewComm(1)
	payload := make([]float64, 64)
	var boxed any = payload
	bytes := F64Bytes(len(payload))
	// Warm up the mailbox queue for the (0, tag 0) match key.
	c0.Send(1, 0, boxed, bytes)
	if _, _, err := c1.RecvErr(0, 0); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		c0.Send(1, 0, boxed, bytes)
		if _, _, err := c1.RecvErr(0, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("send/recv with armed fault set allocates %.1f/op, want 0", allocs)
	}
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}
