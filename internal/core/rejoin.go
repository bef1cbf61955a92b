package core

// This file implements the polling side of node re-addition, the §2.2
// capability the paper leaves mostly to future work: "Dyn-MPI may remove (and
// potentially later add back) non dedicated nodes from the computation."
//
// The protocol must stay deterministic in virtual time, so removed nodes
// are polled synchronously: each cycle the send-out root pings every
// removed node, which replies with its current dmpi_ps reading, and then
// receives a verdict packet. When a removed node's competing processes have
// vanished, every active rank reaches the same decision (the removed loads
// travel in the root's load-exchange contribution) and the rejoin goes
// through transit like any other membership change (membership.go).

import (
	"slices"

	"repro/internal/loadmon"
)

// knownDead reports whether rank r is in the deterministically-absorbed
// dead set. Protocol sends are guarded on this — never on the world's
// wall-clock liveness — because a cycle-triggered crash fires in the
// victim's own goroutine, physically concurrent with the root's poll: a
// liveness guard would make the root's send charge (and so its virtual
// clock) depend on goroutine scheduling. The absorbed set advances only at
// cycle boundaries, identically on every rank and every run. Since adapt.go
// prunes crashed removed nodes from rt.removed the same cycle they are
// detected, these guards never fire after that prune; they are the
// deterministic belt for the detection window itself.
func (rt *Runtime) knownDead(r int) bool {
	return slices.Contains(rt.deadRanks, r) || slices.Contains(rt.pendingDead, r)
}

// loadReplies collects every answer to the ping just sent to the removed
// ranks into loads (aligned with ranks).
func (rt *Runtime) loadReplies(ranks []int, loads []float64) {
	for i, r := range ranks {
		loads[i] = -1 // a crashed removed node: every active rank prunes it
		if rt.knownDead(r) {
			continue
		}
		if p, _, err := rt.comm.RecvErr(r, tagLoadReply); err == nil {
			loads[i] = float64(p.(int))
		}
	}
}

// polls reports whether this cycle's load exchange polls the removed ranks.
func (rt *Runtime) polls() bool { return rt.cfg.AllowRejoin && len(rt.removed) > 0 }

// exchangeLoads gathers every active rank's load — and, when this cycle
// polls, the removed ranks' loads (aligned with rt.removed) — so all active
// ranks see an identical picture. It is one float64 allgather: each active
// rank deposits its load, and the send-out root, slot 0 of the group, also
// appends the removed ranks' replies. Like every typed collective it is
// priced at the longest contribution, 8·(1+R) bytes per member. The
// returned loads are rank-owned scratch: every consumer copies what it keeps.
// removedRanks is rt.removed itself, not a copy, and BeginCycle reads it
// after a failure may have changed the membership: that is sound only
// because every membership change builds a fresh removed slice and never
// edits rt.removed in place.
func (rt *Runtime) exchangeLoads() (active []int, removedRanks, removedLoads []int, err error) {
	if rt.loadBuf == nil {
		// Sized once for the largest group the world can hold: the active
		// and removed ranks are distinct world ranks.
		rt.loadBuf = make([]float64, rt.comm.World().Cap())
		rt.loadInts = make([]int, rt.comm.World().Cap())
	}
	seg := rt.loadBuf[:1]
	seg[0] = float64(loadmon.CompetingProcesses(rt.node, loadmon.DefaultInterval, rt.cycle))
	if rt.polls() {
		removedRanks = rt.removed
		rt.emitOut(outMsg{ping: true}, 1)
		if rt.comm.Rank() == rt.sendOutRoot() {
			seg = rt.loadBuf[:1+len(removedRanks)]
			rt.loadReplies(removedRanks, seg[1:])
		}
	}
	n, r := rt.group.Size(), len(removedRanks)
	buf := rt.loadBuf[:n+r] // the root's load, the removed loads, the other loads
	if err := rt.comm.AllgatherF64sIntoErr(rt.group, seg, buf); err != nil {
		return nil, nil, nil, err
	}
	rt.outSent()
	loads := rt.loadInts[:n+r] // the active loads, then the removed ones
	loads[0] = int(buf[0])
	for i, v := range buf[1+r:] {
		loads[1+i] = int(v)
	}
	for i, v := range buf[1 : 1+r] {
		loads[n+i] = int(v)
	}
	return loads[:n], removedRanks, loads[n:], nil
}

// maybeRejoin checks the polled removed-node loads and, when some node has
// become unloaded, readmits it. It reports whether a rejoin happened. All
// active ranks call this with identical arguments; the root additionally
// sends every removed node its verdict.
func (rt *Runtime) maybeRejoin(activeLoads, removedRanks, removedLoads []int) bool {
	if !rt.polls() {
		return false
	}
	var rejoining []int
	for i, r := range removedRanks {
		if removedLoads[i] == 0 && !slices.Contains(rt.heldOut, r) {
			rejoining = append(rejoining, r)
		}
	}
	if len(rejoining) == 0 {
		rt.emitVerdict()
		return false
	}
	// Rejoiners are unloaded by definition; survivors keep their
	// just-gathered loads.
	t := rt.admission(causeRejoin, rejoining, activeLoads)
	t.next.removed = withoutInts(rt.removed, rejoining)
	rt.transit(t)
	return true
}

// closePoll ends this cycle's poll round after the load exchange failed:
// every removed rank has had the ping — from the root, or re-sent by the
// rank that took over from a dead root (replayOut) — and gets the verdict,
// empty because the adaptation step is skipped.
func (rt *Runtime) closePoll() {
	if rt.cfg.AllowRejoin {
		rt.emitVerdict()
	}
}

// removedCycle is the removed node's side of the per-cycle protocol: reply
// to the root's ping with the local load, then apply the verdict.
func (rt *Runtime) removedCycle() {
	if !rt.cfg.AllowRejoin {
		return
	}
	_, root := rt.nextOut()
	rt.replyLoad(root)
	m, _ := rt.nextOut()
	rt.adopt(m.pkt)
}

// replyLoad answers a ping from root with this removed node's load.
func (rt *Runtime) replyLoad(root int) {
	rt.comm.Send(root, tagLoadReply, loadmon.CompetingProcesses(rt.node, loadmon.DefaultInterval, rt.cycle), 8)
}
