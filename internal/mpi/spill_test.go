package mpi

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
)

// The lists that start on arrays inside their owner — a mailbox's queue and
// its posted receives (boxStore), a rank's request and message-buffer free
// lists (Comm) — must behave past the array exactly as on it. Each test
// drives one of them to three times its inline capacity and checks the
// contract the inline part already keeps: FIFO per (src,tag), wildcard
// receives in arrival order, nothing leaked. CI runs them under -race
// -count=3.

// spillWorld runs body on a three-rank world and fails the test on an error
// or a leaked operation.
func spillWorld(t *testing.T, body func(c *Comm) error) {
	t.Helper()
	w := NewWorld(cluster.New(cluster.Uniform(3)))
	if err := w.Run(body); err != nil {
		t.Fatal(err)
	}
	if n := w.LeakedOps(); n != 0 {
		t.Errorf("%d operations leaked, want 0", n)
	}
	for r := 0; r < 3; r++ {
		if n := w.QueuedMsgs(r); n != 0 {
			t.Errorf("rank %d: %d envelopes left queued", r, n)
		}
	}
}

// TestMailboxQueueOutgrowsItsStore queues three envelopes on each of
// 3×len(boxStore.queue) distinct (src,tag) keys in rank 0's mailbox — two
// senders, interleaved tags — so the queue outgrows its store many times
// over, and then takes them back with wildcard and specific receives.
func TestMailboxQueueOutgrowsItsStore(t *testing.T) {
	var s boxStore
	tags, depth := 3*len(s.queue), 3
	spillWorld(t, func(c *Comm) error {
		all := c.World().AllGroup()
		if c.Rank() != 0 {
			if c.Rank() == 2 {
				c.Barrier(all) // rank 1's messages all arrive before rank 2's
			}
			for round := 0; round < depth; round++ {
				for tag := 0; tag < tags; tag++ {
					c.Send(0, tag, [3]int{c.Rank(), tag, round}, 8)
				}
			}
			if c.Rank() == 1 {
				c.Barrier(all)
			}
			c.Barrier(all)
			return nil
		}
		c.Barrier(all)
		c.Barrier(all) // everything is queued: sends deliver before they return
		if q := c.w.boxes[0].queue; len(q) != 2*tags*depth || cap(q) <= len(s.queue) {
			return fmt.Errorf("%d envelopes queued (cap %d), want %d off the store", len(q), cap(q), 2*tags*depth)
		}
		// Wildcards first: arrival order is rank 1's send order.
		for tag := 0; tag < tags; tag++ {
			p, st := c.Recv(AnySource, AnyTag)
			if p != [3]int{1, tag, 0} || st.Source != 1 || st.Tag != tag {
				return fmt.Errorf("wildcard receive %d got %v (status %+v)", tag, p, st)
			}
		}
		if p, _ := c.Recv(2, AnyTag); p != [3]int{2, 0, 0} {
			return fmt.Errorf("wildcard-tag receive from rank 2 got %v", p)
		}
		if p, _ := c.Recv(AnySource, tags-1); p != [3]int{1, tags - 1, 1} {
			return fmt.Errorf("wildcard-source receive of the last tag got %v", p)
		}
		// The rest per key, last key first: FIFO within each.
		for tag := tags - 1; tag >= 0; tag-- {
			for src := 2; src >= 1; src-- {
				first := 0
				if src == 1 || tag == 0 {
					first = 1 // taken by the wildcards above
				}
				if src == 1 && tag == tags-1 {
					first = 2
				}
				for round := first; round < depth; round++ {
					if p, _ := c.Recv(src, tag); p != [3]int{src, tag, round} {
						return fmt.Errorf("recv(%d,%d) got %v, want round %d", src, tag, p, round)
					}
				}
			}
		}
		return nil
	})
}

// TestPostedReceivesSpillPastInline posts three times the inline capacity of
// receives — and so takes three slabs of requests — before anything is sent,
// two per tag, and has the peer send in reverse tag order: each message must
// fill the earliest posted request of its key.
func TestPostedReceivesSpillPastInline(t *testing.T) {
	var s boxStore
	var ep Comm
	n := 3 * max(len(s.posted), len(ep.reqArr))
	spillWorld(t, func(c *Comm) error {
		all := c.World().AllGroup()
		for pass := 0; pass < 2; pass++ { // the second pass runs on recycled requests
			switch c.Rank() {
			case 0:
				reqs := make([]*Request, n)
				for i := range reqs {
					reqs[i] = c.Irecv(1, i/2)
				}
				c.Barrier(all)
				for i := n - 1; i >= 0; i-- { // wait in reverse post order too
					p, st := c.Wait(reqs[i])
					if p != [2]int{i / 2, i % 2} || st.Tag != i/2 {
						return fmt.Errorf("pass %d: request %d got %v (status %+v)", pass, i, p, st)
					}
				}
			case 1:
				c.Barrier(all)
				for tag := n/2 - 1; tag >= 0; tag-- {
					c.Send(0, tag, [2]int{tag, 0}, 8)
					c.Wait(c.Isend(0, tag, [2]int{tag, 1}, 8))
				}
			default:
				c.Barrier(all)
			}
			c.Barrier(all)
		}
		return nil
	})
}

// TestReleasedBuffersStayOnTheInlineList releases three times maxBufFree
// message buffers at once: the free list keeps maxBufFree of them, on the
// array inside the Comm, and the sends that follow reuse those and allocate
// the rest.
func TestReleasedBuffersStayOnTheInlineList(t *testing.T) {
	const n = 3 * maxBufFree
	spillWorld(t, func(c *Comm) error {
		if c.Rank() == 2 {
			return nil
		}
		peer := 1 - c.Rank()
		for i := 0; i < n; i++ {
			c.SendF64s(peer, 5, []float64{float64(c.Rank()), float64(i)})
		}
		held := make([]*F64Msg, n)
		for i := range held {
			m, err := c.RecvF64sErr(peer, 5)
			if err != nil {
				return err
			}
			if m.Vals[0] != float64(peer) || m.Vals[1] != float64(i) {
				return fmt.Errorf("rank %d message %d holds %v", c.Rank(), i, m.Vals)
			}
			held[i] = m
		}
		for _, m := range held {
			c.ReleaseF64s(m)
		}
		if len(c.bufFree) != maxBufFree || &c.bufFree[0] != &c.bufArr[0] {
			return fmt.Errorf("rank %d: free list of %d buffers (cap %d), want %d on the inline array",
				c.Rank(), len(c.bufFree), cap(c.bufFree), maxBufFree)
		}
		// Send again past what the list holds; the peer sees its own values.
		for i := 0; i < n; i++ {
			c.SendF64s(peer, 6, []float64{float64(i), float64(i) * 2})
		}
		for i := 0; i < n; i++ {
			m, err := c.RecvF64sErr(peer, 6)
			if err != nil {
				return err
			}
			if m.Vals[0] != float64(i) || m.Vals[1] != float64(i)*2 {
				return fmt.Errorf("rank %d second round message %d holds %v", c.Rank(), i, m.Vals)
			}
			c.ReleaseF64s(m)
		}
		return nil
	})
}
