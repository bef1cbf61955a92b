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
// notices) so their global state stays current.
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
// a rank one never reached gets it re-sent. The position, like the tag, is
// envelope metadata, not priced. With no rank left that could send
// (mpi.RecvErr), a removed rank awaiting a result fails the world, and one
// awaiting the done notice finishes.

// Stream messages besides global results ([]float64 with the position as one
// more element, see sendOut): the rejoin ping and the done notice, each its
// position, and a membership packet with its position.
type (
	pingMsg   int
	doneMsg   int
	packetMsg struct {
		seq int
		pkt *packet
	}
)

// outEntry is one stream message or grow packet as a non-root rank keeps it.
type outEntry struct {
	p     any       // the payload; nil for a global result, held in vals, and for a grow packet
	vals  []float64 // a global result and its position as one more element; reused by later entries
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

// keepOut keeps a message for the ranks to (p, or what the caller fills in)
// on a rank other than the root. The root keeps none: only a successor
// re-sends, and a root that stops being one without dying does so across a
// transit, after which nothing kept before it is needed.
func (rt *Runtime) keepOut(to []int, p any, bytes int) *outEntry {
	n := len(rt.outLog)
	rt.outLog = slices.Grow(rt.outLog, 1)[:n+1] // the slot's vals are reused
	e := &rt.outLog[n]
	e.p, e.bytes, e.from, e.to, e.grow = p, bytes, rt.active, to, grown{}
	return e
}

// emitOut puts p, which carries the position rt.outSeq, on the stream to the
// removed ranks. Every active rank calls it at the same point with the same
// message: the root sends it, and the others keep it.
func (rt *Runtime) emitOut(p any, bytes int) {
	if len(rt.removed) == 0 {
		return
	}
	rt.outSeq++
	if rt.comm.Rank() == rt.sendOutRoot() {
		rt.sendEach(rt.removed, tagOut, p, bytes)
	} else {
		rt.keepOut(rt.removed, p, bytes)
	}
}

// emitGrow spawns a grow's joiners and hands them their packet on
// tagMembership: the root sends it, and the others keep only its makings.
func (rt *Runtime) emitGrow(g grown) {
	rt.comm.World().Spawn(g.t.joiners)
	if rt.comm.Rank() == rt.sendOutRoot() {
		p, bytes := rt.growPacket(&g)
		rt.sendEach(g.t.joiners, tagMembership, p, bytes)
	} else {
		rt.keepOut(g.t.joiners, nil, 0).grow = g
	}
}

// sendOut is emitOut for a global result. The root ships a private copy:
// eager sends park the payload in the receiver's mailbox, and the caller is
// free to overwrite v as soon as its collective returns.
func (rt *Runtime) sendOut(v []float64) {
	if len(rt.removed) == 0 {
		return
	}
	seq, bytes := float64(rt.outSeq), mpi.F64Bytes(len(v))
	rt.outSeq++
	if rt.comm.Rank() == rt.sendOutRoot() {
		rt.sendEach(rt.removed, tagOut, append(append(make([]float64, 0, len(v)+1), v...), seq), bytes)
	} else {
		e := rt.keepOut(rt.removed, nil, bytes)
		e.vals = append(append(e.vals[:0], v...), seq)
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
		tag, p, bytes := tagOut, e.p, e.bytes
		switch {
		case e.grow.old != nil:
			tag = tagMembership
			p, bytes = rt.growPacket(&e.grow)
		case p == nil:
			p = slices.Clone(e.vals)
		}
		rt.sendEach(e.to, tag, p, bytes)
		if _, ok := p.(pingMsg); ok {
			rt.loadReplies(e.to)
		}
	}
}

// recvOut is a removed rank's receive of its next stream message, from
// whichever rank holds the send-out role; it returns the payload and its
// sender, and ok false once no rank is left that could send one.
func (rt *Runtime) recvOut() (p any, from int, ok bool) {
	for {
		p, st, err := rt.comm.RecvErr(mpi.AnySource, tagOut)
		if err != nil {
			return nil, -1, false
		}
		var seq int
		switch m := p.(type) {
		case []float64:
			seq = int(m[len(m)-1])
			p = m[: len(m)-1 : len(m)-1] // an append must not reach the position
		case packetMsg:
			seq = m.seq
		case pingMsg:
			seq = int(m)
		case doneMsg:
			seq = int(m)
		}
		switch {
		case seq == rt.outSeq:
			rt.outSeq++
			return p, st.Source, true
		case seq > rt.outSeq:
			rt.comm.Abort(fmt.Errorf("core: removed rank %d: send-out message %d arrived before %d", rt.comm.Rank(), seq, rt.outSeq))
		}
		if _, ping := p.(pingMsg); ping { // a re-sent ping (replayOut)
			rt.replyLoad(st.Source)
		}
	}
}

// nextOut is recvOut for a message the run cannot go on without: with no
// rank left to send it, every active rank has died, and the world fails.
func (rt *Runtime) nextOut() (any, int) {
	p, from, ok := rt.recvOut()
	if !ok {
		rt.comm.Abort(fmt.Errorf("core: removed rank %d: no active rank is left to send on", rt.comm.Rank()))
	}
	return p, from
}

// collective runs op, one collective over the active group, until it
// completes, absorbing each member death it reports (absorbFailure).
func (rt *Runtime) collective(op func() error) {
	for err := op(); err != nil; err = op() {
		rt.absorbFailure(err)
	}
	rt.outSent()
}

// AllreduceF64s reduces a vector across the active nodes and returns the
// result in a fresh slice, leaving vals untouched; removed nodes receive the
// result without contributing. Every rank — active or removed — must call
// global operations in the same order.
func (rt *Runtime) AllreduceF64s(vals []float64, op func(a, b float64) float64) []float64 {
	out := append([]float64(nil), vals...)
	rt.AllreduceF64sInto(out, op)
	return out
}

// AllreduceF64sInto reduces buf element-wise across the active nodes,
// storing the result back into buf (send-out aware). Nothing retains the
// buffer afterwards, so per-cycle reductions can recycle one slice
// indefinitely. On error buf is untouched, so a retry contributes intact
// values.
func (rt *Runtime) AllreduceF64sInto(buf []float64, op func(a, b float64) float64) {
	if rt.isOut {
		p, _ := rt.nextOut()
		copy(buf, p.([]float64))
		return
	}
	rt.collective(func() error { return rt.comm.AllreduceF64sIntoErr(rt.group, buf, op) })
	rt.sendOut(buf)
}

// AllreduceSum reduces one value by summation (send-out aware).
func (rt *Runtime) AllreduceSum(v float64) float64 {
	return rt.allreduce1(v, rt.comm.AllreduceSumErr)
}

// AllreduceMax reduces one value by maximum (send-out aware).
func (rt *Runtime) AllreduceMax(v float64) float64 {
	return rt.allreduce1(v, rt.comm.AllreduceMaxErr)
}

// allreduce1 runs one scalar reduction (send-out aware).
func (rt *Runtime) allreduce1(v float64, reduce func(*mpi.Group, float64) (float64, error)) float64 {
	if rt.isOut {
		p, _ := rt.nextOut()
		return p.([]float64)[0]
	}
	var out [1]float64
	rt.collective(func() (err error) {
		out[0], err = reduce(rt.group, v)
		return err
	})
	rt.sendOut(out[:])
	return out[0]
}

// BcastF64s distributes a vector from the active relative-rank root to all
// nodes, including removed ones. If the root itself crashes, the retry
// re-resolves relRoot against the shrunken active list, so the new root's
// buffer is the one broadcast.
func (rt *Runtime) BcastF64s(relRoot int, vals []float64) []float64 {
	if rt.isOut {
		p, _ := rt.nextOut()
		return p.([]float64)
	}
	var res []float64
	rt.collective(func() error {
		out, err := rt.comm.BcastErr(rt.group, rt.active[relRoot], vals, mpi.F64Bytes(len(vals)))
		if err == nil {
			res = out.([]float64)
		}
		return err
	})
	rt.sendOut(res)
	return res
}

// Barrier synchronises the active nodes. Removed nodes pass through
// immediately: the paper explicitly avoids "participating nodes being
// delayed by removed nodes".
func (rt *Runtime) Barrier() {
	if !rt.isOut {
		rt.collective(func() error { return rt.comm.BarrierErr(rt.group) })
	}
}

// Finalize completes the run: active nodes synchronise and the send-out
// root notifies every removed node that the computation terminated
// (removed nodes block here until that notice arrives, or until no rank is
// left that could send it: the run is over then as well).
func (rt *Runtime) Finalize() {
	rt.ensureCommitted()
	if rt.isOut {
		rt.recvOut()
		return
	}
	rt.Barrier()
	rt.emitOut(doneMsg(rt.outSeq), 0)
}
