package core

import (
	"fmt"
	"slices"

	"repro/internal/mpi"
)

// This file implements the paper's modified global communication routines
// (§4.4): physically removed nodes "do not participate in the send-in
// phase, but do participate in the send-out" — they contribute nothing to
// reductions, but still receive results (convergence flags, termination
// notices) so their global state stays current. One body (global) runs
// every such reduction.
//
// Every routine survives rank crashes: a collective that fails because a
// group member died is retried over the shrunken group (collective; the
// error is identical on every member, so all retry together and the data
// redistribution runs at the next cycle boundary).
//
// A removed rank names no sender. It receives every runtime message — global
// results, the done notice, the rejoin ping and verdict — from mpi.AnySource
// on one tag (tagOut), in one numbered stream, and answers a ping to the
// ping's source, so the send-out role (sendOutRoot) moves with the active
// membership and no removed rank is told where it went. AnySource matching
// is deterministic only while a message has at most one candidate sender
// (mpi.Recv), and that holds here:
//   - the role changes hands only across a transit the old holder took part
//     in (its closing barrier orders every send before it ahead of every send
//     after it), or after the old holder's death is published, which follows
//     its last send; what a dead holder may not have sent is re-sent by one
//     survivor before anyone sends later messages (replayOut);
//   - World.deliver deposits synchronously, so each send is queued in the
//     receiver's mailbox before the sender moves on;
//   - so arrival order is program order, and the receive a removed rank
//     makes is the same on every run.
//
// A root can die part way through the stream, say after a collective and
// before it sends the result on. So every active rank emits each message, the
// stream position (outSeq) advancing in lockstep, and the others keep what
// the root sends until a later collective proves it sent it; once a dead
// root is struck, the first live rank that kept a message re-sends it
// (replayOut), and a removed rank drops what it already has (recvOut). A
// rejoin packet is a stream message too, and a grow packet is kept alike, so
// a rank one never reached gets it re-sent. Each is an outMsg, whose position,
// like the tag, is envelope metadata, not priced. With no rank left that
// could send (mpi.RecvErr), a removed rank awaiting a result fails the world,
// and one awaiting the done notice finishes.

// outMsg is one stream message or grow packet, at stream position seq: a
// global result (vals), a membership packet (pkt), the rejoin ping, or, with
// none of these set, the done notice.
type outMsg struct {
	seq  int
	vals []float64
	pkt  *packet
	ping bool
}

// outEntry is one stream message or grow packet as a non-root rank keeps it.
type outEntry struct {
	m     outMsg // its vals are reused by later entries; unset for a grow packet
	bytes int
	from  []int // the active ranks when it was sent: from[0] sent it, the others kept it
	to    []int // the ranks it was sent to: the removed ones, or a grow's joiners
	grow  grown // a grow packet's makings; the packet is built only if re-sent
}

// sendOutRoot is the active rank responsible for forwarding global results
// to removed nodes.
func (rt *Runtime) sendOutRoot() int { return rt.active[0] }

// sendEach sends one message to each of ranks not known to be dead (see
// knownDead).
func (rt *Runtime) sendEach(ranks []int, tag int, p any, bytes int) {
	for _, r := range ranks {
		if !rt.knownDead(r) {
			rt.comm.Send(r, tag, p, bytes)
		}
	}
}

// keepOut keeps a message for the ranks to on a rank other than the root;
// the caller fills in what it is. The root keeps none: only a successor
// re-sends, and a root that stops being one without dying does so across a
// transit, after which nothing kept before it is needed.
func (rt *Runtime) keepOut(to []int, bytes int) *outEntry {
	n := len(rt.outLog)
	rt.outLog = slices.Grow(rt.outLog, 1)[:n+1] // the slot's vals are reused
	e := &rt.outLog[n]
	e.m, e.bytes, e.from, e.to, e.grow = outMsg{vals: e.m.vals[:0]}, bytes, rt.active, to, grown{}
	return e
}

// emitOut puts m on the stream to the removed ranks at position rt.outSeq.
// Every active rank calls it at the same point with the same message: the
// root sends it, and the others keep it. Both copy m.vals, since an eager
// send parks it in the receiver's mailbox and the caller may overwrite its
// result once its collective returns, and both copy m field by field: a
// pointer to m, or m stored whole, would move the caller's result to the heap.
func (rt *Runtime) emitOut(m outMsg, bytes int) {
	if len(rt.removed) == 0 {
		return
	}
	seq := rt.outSeq
	rt.outSeq++
	if rt.comm.Rank() == rt.sendOutRoot() {
		rt.sendEach(rt.removed, tagOut, &outMsg{seq, slices.Clone(m.vals), m.pkt, m.ping}, bytes)
	} else {
		e := rt.keepOut(rt.removed, bytes)
		e.m.seq, e.m.vals, e.m.pkt, e.m.ping = seq, append(e.m.vals, m.vals...), m.pkt, m.ping
	}
}

// emitGrow spawns a grow's joiners and hands them their packet on
// tagMembership: the root sends it, and the others keep only its makings.
func (rt *Runtime) emitGrow(g grown) {
	rt.comm.World().Spawn(g.t.joiners)
	if rt.comm.Rank() == rt.sendOutRoot() {
		m, bytes := rt.growPacket(&g)
		rt.sendEach(g.t.joiners, tagMembership, m, bytes)
	} else {
		rt.keepOut(g.t.joiners, 0).grow = g
	}
}

// outSent forgets the kept stream: the root has just completed a collective
// over the active group, so it sent every message before it.
func (rt *Runtime) outSent() { rt.outLog = rt.outLog[:0] }

// replayOut runs on every survivor once a dead root is struck: the first
// live rank that kept a message re-sends it to the ranks it was for, since
// the root may have died before sending it, or part way through. That rank
// is the new root, unless the new root is a rejoiner the rejoin packet never
// reached: then the new root is parked until the re-sent packet reaches it,
// and sends nothing before a collective with the rank that re-sent it. A
// removed rank answers a ping again, to its new sender; the answers are
// dropped, since the exchange they served failed.
func (rt *Runtime) replayOut() {
	for _, e := range rt.outLog {
		if i := slices.IndexFunc(e.from[1:], func(r int) bool { return !rt.knownDead(r) }); i < 0 || e.from[1+i] != rt.comm.Rank() {
			continue
		}
		tag, m, bytes := tagOut, &outMsg{e.m.seq, slices.Clone(e.m.vals), e.m.pkt, e.m.ping}, e.bytes
		if e.grow.old != nil {
			tag = tagMembership
			m, bytes = rt.growPacket(&e.grow)
		}
		rt.sendEach(e.to, tag, m, bytes)
		if m.ping {
			rt.loadReplies(e.to, make([]float64, len(e.to))) // dropped
		}
	}
}

// recvOut is a removed rank's receive of its next stream message, from
// whichever rank holds the send-out role; it returns the message and its
// sender, and ok false once no rank is left that could send one.
func (rt *Runtime) recvOut() (m *outMsg, from int, ok bool) {
	for {
		p, st, err := rt.comm.RecvErr(mpi.AnySource, tagOut)
		if err != nil {
			return nil, -1, false
		}
		switch m := p.(*outMsg); {
		case m.seq == rt.outSeq:
			rt.outSeq++
			return m, st.Source, true
		case m.seq > rt.outSeq:
			rt.comm.Abort(fmt.Errorf("core: removed rank %d: send-out message %d arrived before %d", rt.comm.Rank(), m.seq, rt.outSeq))
		case m.ping: // a re-sent ping (replayOut)
			rt.replyLoad(st.Source)
		}
	}
}

// nextOut is recvOut for a message the run cannot go on without: with no
// rank left to send it, every active rank has died, and the world fails.
func (rt *Runtime) nextOut() (*outMsg, int) {
	m, from, ok := rt.recvOut()
	if !ok {
		rt.comm.Abort(fmt.Errorf("core: removed rank %d: no active rank is left to send on", rt.comm.Rank()))
	}
	return m, from
}

// collective runs op, one collective over the active group, until it
// completes, absorbing each member death it reports (absorbFailure).
func (rt *Runtime) collective(op func() error) {
	for err := op(); err != nil; err = op() {
		rt.absorbFailure(err)
	}
	rt.outSent()
}

// global is the body of every send-out-aware global operation: a removed
// rank takes the result from the stream without contributing, and an active
// rank runs op, a collective over the active group returning the result,
// under collective and emits what it returns. Every rank — active or
// removed — must call global operations in the same order.
func (rt *Runtime) global(op func() ([]float64, error)) []float64 {
	if rt.isOut {
		m, _ := rt.nextOut()
		return m.vals
	}
	var res []float64
	rt.collective(func() (err error) {
		res, err = op()
		return err
	})
	rt.emitOut(outMsg{vals: res}, mpi.F64Bytes(len(res)))
	return res
}

// AllreduceF64sInto reduces buf element-wise with op across the active
// nodes, storing the result back into buf; removed nodes receive the result
// without contributing. Nothing retains the buffer afterwards, so per-cycle
// reductions can recycle one slice indefinitely. On error buf is untouched,
// so a retry contributes intact values.
func (rt *Runtime) AllreduceF64sInto(buf []float64, op mpi.Op) {
	res := rt.global(func() ([]float64, error) { return buf, rt.comm.AllreduceF64sIntoErr(rt.group, buf, op) })
	copy(buf, res) // an active rank's res is buf
}

// AllreduceSumSeg sums, across the active nodes, length-n vectors that are
// zero except for each rank's seg at off, and returns the sum; removed nodes
// receive it without contributing. The zero-padded vectors are never built
// (mpi.AllreduceSumSegErr). The result is one slice every active rank shares,
// and another every removed rank shares: read it, never write it.
func (rt *Runtime) AllreduceSumSeg(n, off int, seg []float64) []float64 {
	return rt.global(func() ([]float64, error) { return rt.comm.AllreduceSumSegErr(rt.group, n, off, seg) })
}

// AllreduceSum reduces one value by summation (send-out aware).
func (rt *Runtime) AllreduceSum(v float64) float64 {
	return rt.global(func() (_ []float64, err error) {
		rt.sum[0], err = rt.comm.AllreduceErr(rt.group, v, mpi.Sum)
		return rt.sum[:], err
	})[0]
}

// Barrier synchronises the active nodes. Removed nodes pass through
// immediately: the paper explicitly avoids "participating nodes being
// delayed by removed nodes".
func (rt *Runtime) Barrier() {
	if !rt.isOut {
		rt.collective(func() error { return rt.comm.BarrierErr(rt.group) })
	}
}

// Finalize completes the run: active nodes synchronise, the send-out root
// notifies every removed node that the computation terminated (removed nodes
// block here until that notice arrives, or until no rank is left that could
// send it: the run is over then as well), and an active node settles the
// replica epoch the last one-sided refresh left open, so no deposit is
// pending when the world ends. Every node then hands its replica slabs back
// to the free list for the next world: once the epoch settled nothing can
// write them, and a removed node's last epoch settled before its removal's
// redistribution.
func (rt *Runtime) Finalize() {
	rt.ensureCommitted()
	if rt.isOut {
		rt.recvOut()
	} else {
		rt.Barrier()
		rt.emitOut(outMsg{}, 0)
		rt.closeReplicaEpoch()
	}
	rt.releaseReplicas()
}
