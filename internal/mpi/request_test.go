package mpi

import (
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/vclock"
)

// runPair runs fn on a 2-rank world over the default interconnect and
// returns both ranks' finish times.
func runPair(t *testing.T, fn func(c *Comm, me, peer int)) [2]vclock.Time {
	t.Helper()
	var finish [2]vclock.Time
	if err := Run(cluster.New(cluster.Uniform(2)), func(c *Comm) error {
		fn(c, c.Rank(), 1-c.Rank())
		finish[c.Rank()] = c.Now()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return finish
}

func TestIsendIrecvDeliversPayloadAndStatus(t *testing.T) {
	runPair(t, func(c *Comm, me, peer int) {
		rq := c.Irecv(peer, 3)
		c.Isend(peer, 3, []int{me * 10}, 256)
		p, st := c.Wait(rq)
		if got := p.([]int)[0]; got != peer*10 {
			t.Errorf("rank %d: payload %d, want %d", me, got, peer*10)
		}
		if st.Source != peer || st.Tag != 3 || st.Bytes != 256 {
			t.Errorf("rank %d: status %+v", me, st)
		}
	})
}

// TestIrecvMatchesQueuedAndPostedPaths exercises both delivery paths: a
// message already queued when Irecv posts (queue hit: the request is born
// done) and an Irecv posted before the send (the sender fills the posted
// request directly).
func TestIrecvMatchesQueuedAndPostedPaths(t *testing.T) {
	runPair(t, func(c *Comm, me, peer int) {
		if me == 0 {
			c.Send(1, 7, "early", 8) // will sit in rank 1's queue
			c.Send(1, 99, nil, 0)    // physical sync marker
			rq := c.Irecv(1, 8)      // posted before rank 1 sends
			if p, _ := c.Wait(rq); p.(string) != "late" {
				t.Errorf("posted path payload %v", p)
			}
		} else {
			// Blocking on the sync marker guarantees the tag-7 message is
			// physically queued: one sender's deliveries happen in program
			// order.
			c.Recv(0, 99)
			rq := c.Irecv(0, 7)
			if !rq.done {
				t.Error("queued message did not complete the Irecv at post")
			}
			if p, _ := c.Wait(rq); p.(string) != "early" {
				t.Errorf("queued path payload %v", p)
			}
			c.Send(0, 8, "late", 8)
		}
	})
}

// TestNonblockingMatchesBlockingVirtualTime pins the virtual-time contract:
// an exchange phrased as Irecv/Compute/Isend/Wait makes exactly the charges
// of Compute/Send/Recv, so the finish times are identical.
func TestNonblockingMatchesBlockingVirtualTime(t *testing.T) {
	const work = 3 * vclock.Millisecond
	blocking := runPair(t, func(c *Comm, me, peer int) {
		for tag := 0; tag < 4; tag++ {
			c.Node().Compute(work)
			c.Send(peer, tag, nil, 4096)
			c.Recv(peer, tag)
		}
	})
	nonblocking := runPair(t, func(c *Comm, me, peer int) {
		for tag := 0; tag < 4; tag++ {
			rq := c.Irecv(peer, tag)
			c.Node().Compute(work)
			c.Isend(peer, tag, nil, 4096)
			c.Wait(rq)
		}
	})
	if blocking != nonblocking {
		t.Fatalf("finish times differ: blocking %v nonblocking %v", blocking, nonblocking)
	}
}

// TestOverlapHidesWire pins the engine's reason to exist: posting the
// exchange before the compute strictly beats computing first, and the gain
// is visible in the HiddenWire counter.
func TestOverlapHidesWire(t *testing.T) {
	const work = 3 * vclock.Millisecond
	const b = 1 << 20 // a megabyte, so wire time is substantial
	serial := runPair(t, func(c *Comm, me, peer int) {
		c.Node().Compute(work)
		c.Send(peer, 0, nil, b)
		c.Recv(peer, 0)
	})
	var hidden [2]vclock.Duration
	overlapped := [2]vclock.Time{}
	if err := Run(cluster.New(cluster.Uniform(2)), func(c *Comm) error {
		me, peer := c.Rank(), 1-c.Rank()
		rq := c.Irecv(peer, 0)
		c.Isend(peer, 0, nil, b)
		c.Node().Compute(work)
		c.Wait(rq)
		overlapped[me] = c.Now()
		hidden[me] = c.HiddenWire
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		if overlapped[r] >= serial[r] {
			t.Errorf("rank %d: overlap %v not below serial %v", r, overlapped[r], serial[r])
		}
		if hidden[r] <= 0 {
			t.Errorf("rank %d: no hidden wire recorded", r)
		}
	}
}

func TestIrecvWildcardPanics(t *testing.T) {
	runPair(t, func(c *Comm, me, peer int) {
		if me != 0 {
			return
		}
		for _, post := range []func(){
			func() { c.Irecv(AnySource, 0) },
			func() { c.Irecv(0, AnyTag) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Error("wildcard Irecv did not panic")
					}
				}()
				post()
			}()
		}
	})
}

// simHaloOverlap reproduces the exact three-rank scenario haloOverlapCycle
// prices (see cost.go) with real Isend/Irecv/Wait traffic and returns the
// middle rank's wall time from phase start to both ghosts received.
func simHaloOverlap(t *testing.T, net cluster.NetParams, b int, interior vclock.Duration) vclock.Duration {
	t.Helper()
	spec := cluster.Uniform(3)
	spec.Net = net
	var mu sync.Mutex
	var middle vclock.Duration
	if err := Run(cluster.New(spec), func(c *Comm) error {
		switch c.Rank() {
		case 0, 2:
			rq := c.Irecv(1, 9)
			c.Isend(1, 9, nil, b)
			c.Node().Compute(interior)
			c.Wait(rq)
		case 1:
			start := c.Now()
			r0 := c.Irecv(0, 9)
			r2 := c.Irecv(2, 9)
			c.Isend(0, 9, nil, b)
			c.Isend(2, 9, nil, b)
			c.Node().Compute(interior)
			c.Wait(r0)
			c.Wait(r2)
			mu.Lock()
			middle = c.Now().Sub(start)
			mu.Unlock()
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return middle
}

// TestHaloOverlapCycleMatchesPerMessageSim cross-validates the closed-form
// overlap pricing against per-message simulation, in the spirit of
// crosscheck_test.go: full stall (no interior), partial overlap, and fully
// hidden wire.
func TestHaloOverlapCycleMatchesPerMessageSim(t *testing.T) {
	net := cluster.DefaultNet()
	cases := []struct {
		name     string
		b        int
		interior vclock.Duration
	}{
		{"full-stall", 1 << 20, 0},
		{"partial", 1 << 20, wireTime(net, 1<<20) / 2},
		{"hidden", 4096, 10 * vclock.Millisecond},
	}
	sawStall, sawHidden := false, false
	for _, tc := range cases {
		got := simHaloOverlap(t, net, tc.b, tc.interior)
		want := haloOverlapCycle(net, tc.b, tc.interior)
		if got != want {
			t.Errorf("%s: simulated %v, priced %v", tc.name, got, want)
		}
		if s := nbRecvStall(net, tc.b, tc.interior+cpuCost(net, tc.b)); s > 0 {
			sawStall = true
		} else {
			sawHidden = true
		}
	}
	if !sawStall || !sawHidden {
		t.Fatalf("cases must cover both stalled and fully hidden regimes (stall=%v hidden=%v)", sawStall, sawHidden)
	}
}
