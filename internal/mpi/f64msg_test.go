package mpi

import (
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/vclock"
)

// The float64 sends copy eagerly: the sender may overwrite its vector the
// moment the call returns, and the receiver still reads what was sent.
func TestSendF64sCopiesEagerly(t *testing.T) {
	runPair(t, func(c *Comm, me, peer int) {
		row := []float64{float64(me), 1, 2, 3}
		c.SendF64s(peer, 1, row)
		rq := c.IsendF64s(peer, 2, row)
		for i := range row {
			row[i] = -1 // the SOR hazard: the next half-phase updates the row
		}
		for tag := 1; tag <= 2; tag++ {
			var got *F64Msg
			var err error
			if tag == 1 {
				got, err = c.RecvF64sErr(peer, tag)
			} else {
				got, err = c.WaitF64sErr(c.Irecv(peer, tag))
			}
			if err != nil {
				t.Error(err)
				return
			}
			if v := got.Vals; len(v) != 4 || v[0] != float64(peer) || v[3] != 3 {
				t.Errorf("rank %d tag %d received %v", me, tag, v)
			}
			c.ReleaseF64s(got)
		}
		c.Wait(rq)
	})
}

// A float64 send costs exactly what the untyped send of the same vector
// costs, in virtual time and in the traffic counters, blocking or not.
func TestF64sMatchesUntypedVirtualTime(t *testing.T) {
	const work = 3 * vclock.Millisecond
	row := make([]float64, 512)
	type counters struct{ sentB, recvB, sentM, recvM int64 }
	var typedCnt, untypedCnt [2]counters
	snapshot := func(c *Comm, into *[2]counters) {
		into[c.Rank()] = counters{c.SentBytes, c.RecvBytes, c.SentMsgs, c.RecvMsgs}
	}
	untyped := runPair(t, func(c *Comm, me, peer int) {
		for tag := 0; tag < 4; tag++ {
			c.Node().Compute(work)
			c.Send(peer, tag, row, F64Bytes(len(row)))
			c.Recv(peer, tag)
			rq := c.Irecv(peer, tag)
			sq := c.Isend(peer, tag, row, F64Bytes(len(row)))
			c.Node().Compute(work)
			c.Wait(rq)
			c.Wait(sq)
		}
		snapshot(c, &untypedCnt)
	})
	typed := runPair(t, func(c *Comm, me, peer int) {
		for tag := 0; tag < 4; tag++ {
			c.Node().Compute(work)
			c.SendF64s(peer, tag, row)
			got, _ := c.RecvF64sErr(peer, tag)
			c.ReleaseF64s(got)
			rq := c.Irecv(peer, tag)
			sq := c.IsendF64s(peer, tag, row)
			c.Node().Compute(work)
			got, _ = c.WaitF64sErr(rq)
			c.ReleaseF64s(got)
			c.Wait(sq)
		}
		snapshot(c, &typedCnt)
	})
	if typed != untyped {
		t.Fatalf("finish times differ: typed %v untyped %v", typed, untyped)
	}
	if typedCnt != untypedCnt {
		t.Fatalf("traffic counters differ: typed %+v untyped %+v", typedCnt, untypedCnt)
	}
}

// The two ends must agree on the family: an untyped receive of a float64
// send sees the *F64Msg itself, and a float64 receive of anything else is a
// type mismatch that fails the world.
func TestF64sTypeMismatch(t *testing.T) {
	runPair(t, func(c *Comm, me, peer int) {
		c.SendF64s(peer, 1, []float64{7, 8})
		p, st := c.Recv(peer, 1)
		if m, ok := p.(*F64Msg); !ok || len(m.Vals) != 2 || m.Vals[1] != 8 || st.Bytes != 16 {
			t.Errorf("untyped receive of a float64 send: %v %+v", p, st)
		}
	})
	err := Run(cluster.New(cluster.Uniform(2)), func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 0, []float64{9}, 8)
			return nil
		}
		c.RecvF64sErr(0, 0)
		return nil
	})
	if err == nil {
		t.Fatal("a float64 receive of an untyped send should fail the world")
	}
}

// Buffers travel with the traffic: a symmetric exchange circulates the same
// few buffers between the two ranks' free lists, so its steady state
// allocates nothing and each list stays at a handful of entries. Measured
// with process-wide malloc counts because both ranks must run.
func TestF64sSymmetricExchangeAllocFree(t *testing.T) {
	const warm, rounds = 8, 400
	var mallocs uint64
	var listLen [2]int
	runPair(t, func(c *Comm, me, peer int) {
		up, down := make([]float64, 64), make([]float64, 64)
		exchange := func() {
			// Two messages each way per round, blocking then overlapped.
			c.SendF64s(peer, 1, up)
			got, _ := c.RecvF64sErr(peer, 1)
			c.ReleaseF64s(got)
			rq := c.Irecv(peer, 2)
			sq := c.IsendF64s(peer, 2, down)
			got, _ = c.WaitF64sErr(rq)
			c.ReleaseF64s(got)
			c.Wait(sq)
		}
		for i := 0; i < warm; i++ {
			exchange()
		}
		g := c.World().AllGroup()
		var before, after runtime.MemStats
		c.Barrier(g)
		if me == 0 {
			runtime.ReadMemStats(&before)
		}
		c.Barrier(g)
		for i := 0; i < rounds; i++ {
			exchange()
		}
		c.Barrier(g)
		if me == 0 {
			runtime.ReadMemStats(&after)
			mallocs = after.Mallocs - before.Mallocs
		}
		listLen[me] = len(c.bufFree)
	})
	if mallocs > 16 { // the runtime's own; one buffer per message would be 1600
		t.Errorf("%d rounds of symmetric exchange cost %d mallocs, want ~0", rounds, mallocs)
	}
	for r, n := range listLen {
		if n < 1 || n > 4 {
			t.Errorf("rank %d free list holds %d buffers, want 1 to 4", r, n)
		}
	}
}

// A rank that only receives (a gather root) must not hoard every buffer it
// is sent: the free list is bounded and the surplus goes to the GC. A rank
// that only sends falls back to fresh buffers.
func TestF64sFreeListIsBounded(t *testing.T) {
	runPair(t, func(c *Comm, me, peer int) {
		const msgs = 4 * maxBufFree
		if me == 0 {
			for i := 0; i < msgs; i++ {
				c.SendF64s(peer, 0, []float64{float64(i)})
			}
			if len(c.bufFree) != 0 {
				t.Errorf("pure sender's free list holds %d buffers", len(c.bufFree))
			}
			return
		}
		for i := 0; i < msgs; i++ {
			got, err := c.RecvF64sErr(peer, 0)
			if err != nil || got.Vals[0] != float64(i) {
				t.Errorf("message %d: %v %v", i, got, err)
			}
			c.ReleaseF64s(got)
		}
		if len(c.bufFree) != maxBufFree {
			t.Errorf("pure receiver's free list holds %d buffers, want the cap %d", len(c.bufFree), maxBufFree)
		}
	})
}

// A recycled buffer shorter than the next message is replaced, and one that
// is longer is resliced: lengths always match what was sent.
func TestF64sMixedLengths(t *testing.T) {
	runPair(t, func(c *Comm, me, peer int) {
		for round, n := range []int{4, 64, 0, 8, 64, 1} {
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = float64(round*100 + i)
			}
			c.SendF64s(peer, round, vals)
			got, err := c.RecvF64sErr(peer, round)
			if err != nil || len(got.Vals) != n {
				t.Errorf("round %d: received %v (%v), want %d values", round, got, err, n)
				return
			}
			for i, v := range got.Vals {
				if v != vals[i] {
					t.Errorf("round %d elem %d: %v, want %v", round, i, v, vals[i])
				}
			}
			c.ReleaseF64s(got)
		}
	})
}
