package mpi

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/vclock"
)

func run(t *testing.T, n int, fn func(*Comm) error) {
	t.Helper()
	if err := Run(cluster.New(cluster.Uniform(n)), fn); err != nil {
		t.Fatal(err)
	}
}

// recvF64s receives a message whose payload is a plain []float64.
func recvF64s(c *Comm, src, tag int) ([]float64, Status) {
	p, st := c.Recv(src, tag)
	return p.([]float64), st
}

func TestSendRecvDeliversData(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 7, []float64{1, 2, 3}, F64Bytes(3))
			return nil
		}
		v, st := recvF64s(c, 0, 7)
		if st.Source != 0 || st.Tag != 7 || st.Bytes != 24 {
			return fmt.Errorf("status %+v", st)
		}
		if len(v) != 3 || v[0] != 1 || v[2] != 3 {
			return fmt.Errorf("payload %v", v)
		}
		return nil
	})
}

func TestRecvAdvancesClockPastWireTime(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		net := c.World().Cluster().Net()
		if c.Rank() == 0 {
			c.Send(1, 0, []float64{42}, F64Bytes(1))
			return nil
		}
		c.Recv(0, 0)
		// Arrival must include at least the wire latency.
		if c.Now() < vclock.Time(net.Latency) {
			return fmt.Errorf("receiver clock %v < latency %v", c.Now(), net.Latency)
		}
		return nil
	})
}

func TestTagMatching(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 1, []float64{1}, 8)
			c.Send(1, 2, []float64{2}, 8)
			return nil
		}
		// Receive out of order by tag.
		v2, _ := recvF64s(c, 0, 2)
		v1, _ := recvF64s(c, 0, 1)
		if v1[0] != 1 || v2[0] != 2 {
			return fmt.Errorf("got %v %v", v1, v2)
		}
		return nil
	})
}

func TestFIFOPerSourceTag(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < 10; i++ {
				c.Send(1, 3, []float64{float64(i)}, 8)
			}
			return nil
		}
		for i := 0; i < 10; i++ {
			v, _ := recvF64s(c, 0, 3)
			if v[0] != float64(i) {
				return fmt.Errorf("out of order: got %v want %d", v[0], i)
			}
		}
		return nil
	})
}

func TestAnySourceAndTag(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 9, []float64{5}, 8)
			return nil
		}
		v, st := recvF64s(c, AnySource, AnyTag)
		if v[0] != 5 || st.Source != 0 || st.Tag != 9 {
			return fmt.Errorf("got %v %+v", v, st)
		}
		return nil
	})
}

func TestRingPassing(t *testing.T) {
	const n = 8
	run(t, n, func(c *Comm) error {
		token := []float64{float64(c.Rank())}
		next := (c.Rank() + 1) % n
		prev := (c.Rank() + n - 1) % n
		c.Send(next, 0, token, 8)
		got, _ := recvF64s(c, prev, 0)
		if got[0] != float64(prev) {
			return fmt.Errorf("rank %d got %v", c.Rank(), got)
		}
		return nil
	})
}

func TestBarrierAlignsClocks(t *testing.T) {
	var mu sync.Mutex
	times := map[int]vclock.Time{}
	run(t, 4, func(c *Comm) error {
		// Skew the clocks, then barrier.
		c.Node().Compute(vclock.Duration(c.Rank()+1) * vclock.Duration(100*vclock.Millisecond))
		c.Barrier(c.World().AllGroup())
		mu.Lock()
		times[c.Rank()] = c.Now()
		mu.Unlock()
		return nil
	})
	ref := times[0]
	for r, tm := range times {
		if tm < vclock.Time(400*vclock.Millisecond) {
			t.Errorf("rank %d finished barrier at %v, before slowest arrival", r, tm)
		}
		// All within the small CPU charge of each other.
		diff := tm.Sub(ref)
		if diff < 0 {
			diff = -diff
		}
		if diff > vclock.Duration(vclock.Millisecond) {
			t.Errorf("rank %d barrier exit %v far from rank 0's %v", r, tm, ref)
		}
	}
}

func TestAllreduceSumAndMax(t *testing.T) {
	const n = 6
	run(t, n, func(c *Comm) error {
		g := c.World().AllGroup()
		s := c.AllreduceSum(g, float64(c.Rank()+1))
		if s != n*(n+1)/2 {
			return fmt.Errorf("sum = %v", s)
		}
		m, err := c.AllreduceErr(g, float64(c.Rank()), Max)
		if err != nil || m != n-1 {
			return fmt.Errorf("max = %v, %v", m, err)
		}
		return nil
	})
}

func TestAllreduceVector(t *testing.T) {
	run(t, 3, func(c *Comm) error {
		v := []float64{float64(c.Rank()), 1}
		c.AllreduceF64sInto(c.World().AllGroup(), v, Sum)
		if v[0] != 3 || v[1] != 3 {
			return fmt.Errorf("got %v", v)
		}
		return nil
	})
}

func TestAllgatherOrdering(t *testing.T) {
	run(t, 4, func(c *Comm) error {
		vals := make([]float64, 4)
		c.AllgatherF64sInto(c.World().AllGroup(), float64(c.Rank()*10), vals)
		for i, v := range vals {
			if v != float64(i*10) {
				return fmt.Errorf("slot %d = %v", i, v)
			}
		}
		seg := []float64{float64(c.Rank()), float64(c.Rank())}
		pairs := make([]float64, 8)
		if err := c.AllgatherF64sIntoErr(c.World().AllGroup(), seg, pairs); err != nil {
			return err
		}
		if !sort.Float64sAreSorted(pairs) {
			return fmt.Errorf("pairs %v", pairs)
		}
		return nil
	})
}

func TestGatherOnlyRoot(t *testing.T) {
	run(t, 3, func(c *Comm) error {
		out := c.Gather(c.World().AllGroup(), 1, c.Rank()*2, 8)
		if c.Rank() == 1 {
			if len(out) != 3 || out[2].(int) != 4 {
				return fmt.Errorf("root got %v", out)
			}
		} else if out != nil {
			return errors.New("non-root got data")
		}
		return nil
	})
}

func TestSubGroupCollectives(t *testing.T) {
	run(t, 4, func(c *Comm) error {
		w := c.World()
		if c.Rank() == 3 {
			return nil // not in the group; does not participate
		}
		g := groupFor(w, c.Rank(), []int{0, 1, 2})
		s := c.AllreduceSum(g, 1)
		if s != 3 {
			return fmt.Errorf("subgroup sum = %v", s)
		}
		return nil
	})
}

// groupFor builds one shared group per member set within a single world.
var groupCache sync.Map // map[*World+key]*Group

func groupFor(w *World, rank int, members []int) *Group {
	key := fmt.Sprintf("%p:%v", w, members)
	if g, ok := groupCache.Load(key); ok {
		return g.(*Group)
	}
	g, _ := groupCache.LoadOrStore(key, w.NewGroup(members))
	return g.(*Group)
}

func TestRepeatedCollectives(t *testing.T) {
	run(t, 4, func(c *Comm) error {
		g := c.World().AllGroup()
		for i := 0; i < 200; i++ {
			got := c.AllreduceSum(g, float64(i))
			if got != float64(4*i) {
				return fmt.Errorf("iter %d: %v", i, got)
			}
		}
		return nil
	})
}

func TestErrorAbortsWorld(t *testing.T) {
	err := Run(cluster.New(cluster.Uniform(3)), func(c *Comm) error {
		if c.Rank() == 1 {
			return errors.New("boom")
		}
		// Other ranks block forever; the failure must unwind them.
		c.Recv(1, 0)
		return nil
	})
	if err == nil || !contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
}

func TestPanicAbortsWorld(t *testing.T) {
	err := Run(cluster.New(cluster.Uniform(3)), func(c *Comm) error {
		if c.Rank() == 2 {
			panic("kaboom")
		}
		c.Barrier(c.World().AllGroup())
		return nil
	})
	if err == nil || !contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v", err)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		func() bool {
			for i := 0; i+len(sub) <= len(s); i++ {
				if s[i:i+len(sub)] == sub {
					return true
				}
			}
			return false
		}())
}

func TestTrafficCounters(t *testing.T) {
	var mu sync.Mutex
	stats := map[int][4]int64{}
	run(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 0, []float64{1, 2}, 16)
			c.Send(1, 0, []float64{3}, 8)
		} else {
			c.Recv(0, 0)
			c.Recv(0, 0)
		}
		mu.Lock()
		stats[c.Rank()] = [4]int64{c.SentMsgs, c.SentBytes, c.RecvMsgs, c.RecvBytes}
		mu.Unlock()
		return nil
	})
	if s := stats[0]; s[0] != 2 || s[1] != 24 {
		t.Errorf("sender stats %v", s)
	}
	if s := stats[1]; s[2] != 2 || s[3] != 24 {
		t.Errorf("receiver stats %v", s)
	}
}

func TestLoadedNodeSlowsCollective(t *testing.T) {
	// A barrier completes when the slowest member arrives; a loaded member
	// computing the same work arrives later, so everyone's exit time grows.
	exit := func(load bool) vclock.Time {
		spec := cluster.Uniform(2)
		if load {
			spec = spec.With(cluster.TimeEvent(1, 0, +1))
		}
		var t1 vclock.Time
		var mu sync.Mutex
		_ = Run(cluster.New(spec), func(c *Comm) error {
			c.Node().Compute(vclock.Duration(500 * vclock.Millisecond))
			c.Barrier(c.World().AllGroup())
			mu.Lock()
			if c.Now() > t1 {
				t1 = c.Now()
			}
			mu.Unlock()
			return nil
		})
		return t1
	}
	unloaded, loaded := exit(false), exit(true)
	if loaded < unloaded+vclock.Time(400*vclock.Millisecond) {
		t.Errorf("loaded exit %v, unloaded %v: load did not slow the collective", loaded, unloaded)
	}
}

func TestSendInvalidRankPanics(t *testing.T) {
	err := Run(cluster.New(cluster.Uniform(1)), func(c *Comm) error {
		c.Send(5, 0, nil, 0)
		return nil
	})
	if err == nil {
		t.Fatal("expected failure")
	}
}

func TestAllreduceF64sInto(t *testing.T) {
	run(t, 4, func(c *Comm) error {
		g := c.World().AllGroup()
		buf := []float64{float64(c.Rank()), float64(c.Rank() * 10)}
		c.AllreduceF64sInto(g, buf, Sum)
		if buf[0] != 6 || buf[1] != 60 {
			return fmt.Errorf("rank %d: buf = %v", c.Rank(), buf)
		}
		// The buffer is caller-owned again: mutate it and reduce once more to
		// prove no shared state leaks between ops.
		buf[0], buf[1] = 1, 2
		c.AllreduceF64sInto(g, buf, Sum)
		if buf[0] != 4 || buf[1] != 8 {
			return fmt.Errorf("rank %d: second reduce = %v", c.Rank(), buf)
		}
		return nil
	})
}

func TestAllreduceIntoLengthMismatchAborts(t *testing.T) {
	err := Run(cluster.New(cluster.Uniform(2)), func(c *Comm) error {
		g := c.World().AllGroup()
		buf := make([]float64, 1+c.Rank()) // lengths differ across ranks
		c.AllreduceF64sInto(g, buf, Sum)
		return nil
	})
	if err == nil || !contains(err.Error(), "length mismatch") {
		t.Fatalf("err = %v", err)
	}
}

func TestBcastF64sInto(t *testing.T) {
	run(t, 4, func(c *Comm) error {
		g := c.World().AllGroup()
		buf := make([]float64, 3)
		if c.Rank() == 2 {
			buf[0], buf[1], buf[2] = 5, 6, 7
		}
		c.BcastF64sInto(g, 2, buf)
		if buf[0] != 5 || buf[1] != 6 || buf[2] != 7 {
			return fmt.Errorf("rank %d: buf = %v", c.Rank(), buf)
		}
		// Root overwrites its buffer immediately; a second broadcast must
		// still deliver the new values intact everywhere.
		if c.Rank() == 2 {
			buf[0], buf[1], buf[2] = 8, 9, 10
		}
		c.BcastF64sInto(g, 2, buf)
		if buf[0] != 8 || buf[1] != 9 || buf[2] != 10 {
			return fmt.Errorf("rank %d: second bcast = %v", c.Rank(), buf)
		}
		return nil
	})
}

// TestFailWakesBlockedReceivers pins the world-failure wakeup path of the
// indexed mailbox: ranks blocked in Recv — with a posted exact pattern and
// with wildcards — and ranks parked inside a collective must all unwind when
// another rank aborts. Run under -race this also exercises fail()'s
// interaction with concurrent sends.
func TestFailWakesBlockedReceivers(t *testing.T) {
	boom := errors.New("deliberate failure")
	err := Run(cluster.New(cluster.Uniform(5)), func(c *Comm) error {
		switch c.Rank() {
		case 0:
			// Give the others time to block, then fail the world.
			for i := 0; i < 100; i++ {
				c.Send(0, 99, nil, 0) // self-traffic to churn the mailbox
				c.Recv(0, 99)
			}
			c.Abort(boom)
		case 1:
			c.Recv(3, 42) // never sent: blocks with an exact posted pattern
		case 2:
			c.Recv(AnySource, AnyTag) // blocks with a wildcard pattern
		case 3, 4:
			// Blocks in a collective: rank 0 never joins this group's op.
			g := c.World().NewGroup([]int{0, 3, 4})
			c.Barrier(g)
		}
		return nil
	})
	if !errors.Is(err, boom) && (err == nil || !contains(err.Error(), "deliberate failure")) {
		t.Fatalf("err = %v", err)
	}
}

// TestRecvFromInvalidRankFailsRun pins the rank check a blocking receive
// shares with Irecv: a source outside the world panics the receiving rank,
// and Run returns the panic, instead of parking the rank forever on a
// mailbox no rank can send to. A watchdog turns the hang into a failure.
func TestRecvFromInvalidRankFailsRun(t *testing.T) {
	for _, src := range []int{99, -5} {
		done := make(chan error, 1)
		go func() {
			done <- Run(cluster.New(cluster.Uniform(2)), func(c *Comm) error {
				if c.Rank() == 0 {
					c.Recv(src, 0)
				}
				return nil
			})
		}()
		select {
		case err := <-done:
			want := fmt.Sprintf("mpi: recv from invalid rank %d", src)
			if err == nil || !contains(err.Error(), want) {
				t.Errorf("Recv(%d, 0): Run returned %v, want an error containing %q", src, err, want)
			}
		case <-time.After(2 * time.Second):
			t.Errorf("Recv(%d, 0) on a 2-rank world still blocked after 2 s", src)
		}
	}
}

// TestRecvWithInvalidTagFailsRun is the tag twin of the rank check: a tag
// below AnyTag matches no message, so the receive fails the run naming the
// tag instead of parking forever.
func TestRecvWithInvalidTagFailsRun(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		done <- Run(cluster.New(cluster.Uniform(2)), func(c *Comm) error {
			if c.Rank() == 0 {
				c.Recv(1, -2)
			}
			return nil
		})
	}()
	select {
	case err := <-done:
		if want := "mpi: recv with invalid tag -2"; err == nil || !contains(err.Error(), want) {
			t.Errorf("Recv(1, -2): Run returned %v, want an error containing %q", err, want)
		}
	case <-time.After(2 * time.Second):
		t.Error("Recv(1, -2) on a 2-rank world still blocked after 2 s")
	}
}

func TestBigTrafficVolume(t *testing.T) {
	// Stress the mailbox with many interleaved tags from two senders.
	run(t, 3, func(c *Comm) error {
		const k = 300
		switch c.Rank() {
		case 0, 1:
			for i := 0; i < k; i++ {
				c.Send(2, i%7, []float64{float64(c.Rank()*10000 + i)}, 8)
			}
		case 2:
			seen := map[float64]bool{}
			for s := 0; s < 2; s++ {
				for i := 0; i < k; i++ {
					v, _ := recvF64s(c, s, i%7)
					if seen[v[0]] {
						return fmt.Errorf("duplicate %v", v[0])
					}
					seen[v[0]] = true
				}
			}
			if len(seen) != 2*k {
				return fmt.Errorf("got %d messages", len(seen))
			}
		}
		return nil
	})
}
