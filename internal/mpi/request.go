package mpi

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/vclock"
)

// Nonblocking point-to-point layer, and the one receive path.
//
// Isend/Irecv return a recycled *Request; Wait/WaitErr/WaitReplayErr complete
// it and recycle it. A blocking Recv is the same two steps back to back:
// post registers the receive, waitErr completes it, so every receive
// matches, parks and lands in one place. The virtual-time contract mirrors
// the paper's comm-CPU (beta) accounting:
//
//   - Isend charges only the CPU injection cost (cpuCost) at post time. The
//     wire time (wireTime) elapses in virtual background: the envelope's
//     avail stamp is computed exactly as in Send, so a matching blocking
//     Recv observes identical arrival times.
//   - Irecv charges nothing at post time; it merely registers the match
//     pattern (or captures an already-queued envelope).
//   - Wait advances the caller's clock to max(now, arrival) and then charges
//     the receive-side cpuCost — the same total virtual charge as a blocking
//     Recv issued at the Wait point. Wire time that elapsed behind the
//     caller's compute between post and Wait is therefore genuinely free,
//     and the freed amount is credited to Comm.HiddenWire (see land).
//
// Determinism: the only virtual-time effects are in Wait (WaitUntil +
// Compute), which runs on the caller's own goroutine in program order, so
// the order of the Wait calls — never the physical order in which requests
// complete — fixes the virtual timeline (internal/core/redist.go waits in
// schedule order).

// Request is one in-flight nonblocking operation. Requests are owned by the
// issuing Comm's goroutine, kept on a free list per Comm, and recycled by the
// Wait family; after a successful or failed Wait the pointer must not be
// reused.
type Request struct {
	c      *Comm
	op     string // "recv" or "irecv": names a receive's RankFailedError
	send   bool   // send requests complete at post time (eager buffering)
	src    int    // peer rank: source for receives (maybe AnySource), destination for sends
	tag    int
	done   bool // envelope captured (guarded by the owning mailbox mutex once posted)
	posted bool // went onto the posted list; else it was filled at post and no sender ever sees it
	// stalled: resolve failed this AnySource receive, since no rank is left
	// that could send (guarded like done).
	stalled bool
	postVT  vclock.Time
	env     envelope
}

// getReq pops a free request. A dry pool is refilled with one slab of
// len(reqArr) requests — a halo exchange holds that many at once — so a rank
// reaches its high-water mark in slabs, not one request at a time.
func (c *Comm) getReq() *Request {
	if len(c.reqFree) == 0 {
		slab := make([]Request, len(c.reqArr))
		for i := range slab {
			slab[i].c = c
			c.reqFree = append(c.reqFree, &slab[i])
		}
	}
	n := len(c.reqFree)
	r := c.reqFree[n-1]
	c.reqFree[n-1] = nil
	c.reqFree = c.reqFree[:n-1]
	return r
}

// putReq resets and recycles a request. Only the owning goroutine calls it.
func (c *Comm) putReq(r *Request) {
	r.send, r.done, r.posted, r.stalled = false, false, false, false
	r.env.payload = nil // release it for the GC; the rest is overwritten before it is read
	c.reqFree = append(c.reqFree, r)
}

// Isend starts a nonblocking send of payload (bytes long on the wire) to
// rank dst. The virtual charge at post time is exactly Send's CPU injection
// cost, and the message is delivered with the same arrival stamp as Send —
// the two are indistinguishable to the receiver. The returned request is
// complete immediately (sends are eager-buffered); Wait on it charges
// nothing and recycles it. Ownership of payload transfers to the receiver,
// as with Send.
func (c *Comm) Isend(dst, tag int, payload any, bytes int) *Request {
	return c.sendReq(dst, tag, c.inject("isend", dst, tag, payload, bytes), bytes)
}

// IsendF64s is Isend with SendF64s's eager-copy contract: vals is copied
// into a recycled message buffer at post time.
func (c *Comm) IsendF64s(dst, tag int, vals []float64) *Request {
	bytes := F64Bytes(len(vals))
	return c.sendReq(dst, tag, c.inject("isend", dst, tag, c.copyBuf(vals), bytes), bytes)
}

// sendReq returns the (already complete) request of a send injected just now.
func (c *Comm) sendReq(dst, tag int, avail vclock.Time, bytes int) *Request {
	r := c.getReq()
	r.send = true
	r.src = dst
	r.tag = tag
	r.done = true
	r.postVT = c.node.Now()
	r.env.avail = avail
	r.env.bytes = bytes
	return r
}

// Irecv posts a nonblocking receive for a message from src with the given
// tag. No virtual time is charged at post; the receive-side CPU cost is
// charged by Wait. Wildcards (AnySource/AnyTag) are not supported: a posted
// request is matched by senders, and a wildcard left posted while the rank
// goes on working would capture whichever message physically arrives first.
// A blocking Recv may use them: it posts and waits at once (see post).
func (c *Comm) Irecv(src, tag int) *Request {
	if src == AnySource || tag == AnyTag {
		panic("mpi: Irecv does not support AnySource/AnyTag")
	}
	return c.post("irecv", src, tag)
}

// post registers a receive for (src, tag) — wildcards allowed — and returns
// its request: filled at once from the oldest queued match, or else posted
// for deliver to fill. op names the caller in a panic and in the request's
// RankFailedError. No virtual time is charged.
func (c *Comm) post(op string, src, tag int) *Request {
	c.checkFailed()
	if src != AnySource && (src < 0 || src >= c.w.cap) {
		panic(fmt.Sprintf("mpi: %s from invalid rank %d", op, src))
	}
	if tag < AnyTag {
		panic(fmt.Sprintf("mpi: %s with invalid tag %d", op, tag))
	}
	if c.flt != nil {
		c.pollFaults()
	}
	r := c.getReq()
	r.op, r.src, r.tag = op, src, tag
	r.postVT = c.node.Now()
	box := &c.w.boxes[c.rank]
	box.mu.Lock()
	if env, ok := box.take(src, tag); ok {
		r.env = env
		r.done = true
	} else {
		box.storage()
		box.posted = append(box.posted, r)
		r.posted = true
	}
	box.mu.Unlock()
	return r
}

// removePosted unlinks r from box.posted, preserving order. Callers hold
// box.mu. The backing array is kept, so the posted list is allocation-free
// once its high-water mark is reached.
func removePosted(box *mailbox, r *Request) {
	for i, p := range box.posted {
		if p == r {
			copy(box.posted[i:], box.posted[i+1:])
			box.posted[len(box.posted)-1] = nil
			box.posted = box.posted[:len(box.posted)-1]
			return
		}
	}
}

// waitErr completes req: park on the rank's wake channel until the
// envelope is captured (physical), rechecking world failure, the source's
// death and resolve's wildcard stall after every wake, then land it on the
// caller's clock and charge the receive-side CPU cost (virtual). credit
// selects whether wire time hidden behind the caller's compute is
// accumulated into Comm.HiddenWire; the replay path (deterministic
// re-sequenced drains whose clocks match the blocking implementation
// exactly) and the blocking receive pass false because nothing was
// genuinely hidden there.
func (c *Comm) waitErr(req *Request, credit bool) (any, Status, error) {
	c.checkFailed()
	if c.flt != nil {
		c.pollFaults() // the same injection point as a post
	}
	if req.send {
		c.putReq(req)
		return nil, Status{}, nil
	}
	if req.posted { // else filled at post, and done needs no lock
		box := &c.w.boxes[c.rank]
		box.mu.Lock()
		for !req.done {
			if c.w.failed.Load() {
				box.mu.Unlock()
				panic(errFailed)
			}
			if req.src != AnySource && c.w.deadCount.Load() > 0 && c.w.dead[req.src].Load() {
				removePosted(box, req)
				box.mu.Unlock()
				err := &RankFailedError{Op: req.op, Ranks: []int{req.src}}
				c.putReq(req)
				return nil, Status{}, err
			}
			if req.stalled { // resolve already unposted it
				box.mu.Unlock()
				c.putReq(req)
				return nil, Status{}, fmt.Errorf("mpi: %s from any source on rank %d: no rank is left that could send", req.op, c.rank)
			}
			// Announce under the lock, then park: a deliver that fills req
			// after the unlock finds reqWait set and wakes this rank.
			box.reqWait.Store(req)
			box.mu.Unlock()
			c.w.sleep(c.rank)
			box.mu.Lock()
			box.reqWait.Store(nil)
		}
		box.mu.Unlock()
	}
	env := &req.env
	c.land(req.postVT, env.avail, env.bytes, credit)
	c.node.Compute(cpuCost(c.w.cl.Net(), env.bytes))
	p, st := env.payload, Status{Source: env.src, Tag: env.tag, Bytes: env.bytes}
	c.putReq(req)
	return p, st, nil
}

// land completes one transfer posted at post and fully arrived at avail on
// the caller's clock: the clock stalls to arrival if the data is still in
// flight (accumulated into RecvStall), the receive counters count it, and —
// with credit — wire time already covered by the caller's computation is
// credited to HiddenWire. A request Wait and an RMA settlement both land
// this way; only the Wait then charges receive-side CPU.
func (c *Comm) land(post, avail vclock.Time, bytes int, credit bool) (stall, hidden vclock.Duration) {
	stall = max(avail.Sub(c.node.Now()), 0)
	c.RecvStall += stall
	c.node.WaitUntil(avail)
	c.RecvMsgs++
	c.RecvBytes += int64(bytes)
	// Wire time that elapsed between post and landing minus the part the
	// caller still stalled on: the communication the overlap hid.
	if inflight := avail.Sub(post); credit && inflight > stall {
		hidden = inflight - stall
		c.HiddenWire += hidden
	}
	return stall, hidden
}

// WaitF64sErr is WaitErr for a receive request whose message comes from a
// SendF64s/IsendF64s, the nonblocking counterpart of RecvF64sErr; the caller
// hands the returned buffer to ReleaseF64s when done with it.
func (c *Comm) WaitF64sErr(req *Request) (*F64Msg, error) {
	p, st, err := c.waitErr(req, true)
	if err != nil {
		return nil, err
	}
	return c.asF64Msg(p, st), nil
}

// Wait completes req, failing the whole world if the peer died (mirroring
// Recv). For receives it returns the payload and status.
func (c *Comm) Wait(req *Request) (any, Status) {
	p, st, err := c.waitErr(req, true)
	c.must(err)
	return p, st
}

// WaitErr completes req with bounded waiting under failures: when the peer
// is dead and the message never arrived it returns a *RankFailedError
// naming it. The request is recycled in every outcome.
func (c *Comm) WaitErr(req *Request) (any, Status, error) {
	return c.waitErr(req, true)
}

// WaitReplayErr is WaitErr without the hidden-wire credit. Deterministic
// re-sequenced drains (redistribution's schedule-order commit) use it: their
// clock advance replays the blocking implementation exactly, so no wire time
// was genuinely hidden and crediting it would overstate the overlap.
func (c *Comm) WaitReplayErr(req *Request) (any, Status, error) {
	return c.waitErr(req, false)
}

// Waitall completes every non-nil request in reqs (nilling the slice entries
// as it goes, so the recycled requests cannot be reused by mistake). Payloads
// are discarded — callers that need them use WaitErr per request. If peers
// died, it still drains every request and returns one *RankFailedError
// naming all dead peers encountered.
func (c *Comm) Waitall(reqs []*Request) error {
	var dead []int
	for i, r := range reqs {
		if r == nil {
			continue
		}
		reqs[i] = nil
		if _, _, err := c.waitErr(r, true); err != nil {
			var rf *RankFailedError
			if !errors.As(err, &rf) {
				return err
			}
			dead = append(dead, rf.Ranks...)
		}
	}
	if len(dead) > 0 {
		sort.Ints(dead)
		keep := dead[:1]
		for _, d := range dead[1:] {
			if d != keep[len(keep)-1] {
				keep = append(keep, d)
			}
		}
		return &RankFailedError{Op: "waitall", Ranks: keep}
	}
	return nil
}
