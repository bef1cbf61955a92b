package core

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/distribution"
	"repro/internal/drsd"
)

// This file is the one place the set of computing ranks changes: §4.4 node
// removal, the §2.2 "potentially later add back", elastic resize and failure
// are one operation — agree on who computes, move the rows, resume. A decider
// (dropLoaded, maybeResize, maybeRejoin, handleFailure) only fills in a
// transition; transit performs it, and a rank that could not compute the
// change itself is handed the resulting state whole, in one packet.

// membership is the state every member holds identically, and all a member
// needs to compute the next change alone. It is replaced whole (install) or
// advanced in lockstep by every active rank; its slices are shared between
// ranks by the packet, so they are never written in place. iterCosts is
// shared from the start: the grace-period cost gather hands every active
// rank the same slice (gatherEstimates).
type membership struct {
	active    []int     // computing world ranks, in relative-rank order
	removed   []int     // physically removed world ranks (send-out only)
	heldOut   []int     // removed by an explicit Resize: automatic rejoin would flap the released capacity straight back
	claimed   []int     // arrival ranks spawned so far, in claim order
	baseLoads []int     // load vector underlying the current distribution
	iterCosts []float64 // measured per-iteration costs; nil until a grace period measured them
	redists   int       // redistributions the world has made; Config.MaxRedists caps it
}

// install makes m the membership this rank acts on. Groups are canonical by
// member list, so every rank installing the same list meets in the same one.
//
// A removed rank keeps no send-out stream (colls.go), and once a dead root
// is struck, what the survivors kept is re-sent.
func (rt *Runtime) install(m membership) {
	prev := rt.active
	rt.membership = m
	rt.group = rt.comm.World().NewGroup(m.active)
	rt.isOut = !slices.Contains(m.active, rt.comm.Rank())
	switch {
	case rt.isOut:
		rt.outLog = rt.outLog[:0]
	case len(prev) > 0 && prev[0] != m.active[0] && rt.knownDead(prev[0]):
		rt.replayOut()
	}
}

// cause says why the membership changes.
type cause int

const (
	causeDrop    cause = iota // loaded nodes physically removed (§4.4)
	causeShrink               // an explicit Resize below the active count
	causeRejoin               // removed nodes readmitted (§2.2)
	causeGrow                 // brand-new ranks spawned into arrival capacity
	causeFailure              // dead ranks struck
)

// causeSides names a change as MembershipRecord.Change reports it, indexed by
// cause and then by side: 0 for a rank that stays in the computation
// throughout, 1 for a rank that enters or leaves it. A failure has no second
// side.
var causeSides = [...][2]string{
	causeDrop:    {"drop", "removed"},
	causeShrink:  {"resize-shrink", "resize-removed"},
	causeRejoin:  {"rejoin", "rejoined"},
	causeGrow:    {"resize-grow", "resize-join"},
	causeFailure: {"failure-drop"},
}

// transition is one membership change, filled in by its decider.
type transition struct {
	cause   cause
	joiners []int       // ranks entering, ascending: spawned (grow) or readmitted (rejoin)
	leavers []int       // ranks leaving: dropped, shrunk out or dead
	next    membership  // the state after the change; transit counts the redistribution
	dist    *drsd.Block // the distribution after it; nil when no row moves (the dead held none)
}

// admission fills in the transition that takes in extra (joiners or
// rejoiners, unloaded by definition) beside the active ranks carrying loads,
// partitioned by relative power.
func (rt *Runtime) admission(c cause, extra, loads []int) transition {
	sort.Ints(extra)
	cl := rt.comm.World().Cluster()
	nodes := rt.nodesOf(rt.active, loads)
	for _, r := range extra {
		nodes = append(nodes, distribution.Node{Rank: r, Power: cl.Node(r).Power()})
		// Insertion by rank: the active list is in rank order already.
		for i := len(nodes) - 1; i > 0 && nodes[i].Rank < nodes[i-1].Rank; i-- {
			nodes[i], nodes[i-1] = nodes[i-1], nodes[i]
		}
	}
	rt.nodesBuf = nodes
	t := transition{cause: c, joiners: extra, next: rt.membership}
	both := make([]int, 2*len(nodes))
	t.next.active, t.next.baseLoads = both[:len(nodes):len(nodes)], both[len(nodes):]
	for i, n := range nodes {
		t.next.active[i], t.next.baseLoads[i] = n.Rank, n.Load
	}
	t.dist = drsd.NewBlock(t.next.active, rt.powerCounts(nodes, rt.costs()))
	return t
}

// removal fills in the transition that takes out the ranks in out and leaves
// stay — whose gathered loads partition the rows by relative power — on the
// baseline base.
func (rt *Runtime) removal(c cause, stay, out, loads, base []int) transition {
	t := transition{cause: c, leavers: out, next: rt.membership}
	t.next.active, t.next.baseLoads = stay, base
	t.next.removed = slices.Concat(rt.removed, out)
	t.dist = drsd.NewBlock(stay, rt.powerCounts(rt.nodesOf(stay, loads), rt.costs()))
	return t
}

// transit performs one membership change. Every rank the change involves
// calls it with the same transition — the members that decided it, and the
// entering ranks from adopt — and passes through the same stages:
//
//  1. Notify (when ranks enter): every member spawns the brand-new ones; the
//     root sends the packet, and the others keep it (colls.go). Ranks that
//     leave need none: they are still members and decided the change.
//  2. Install the group before the redistribution when ranks enter, so they
//     receive their rows inside it, and after it when ranks leave, so they
//     ship theirs out inside it. The dead ship nothing: the survivors' group
//     is installed first and recovery serves their rows.
//  3. Redistribute.
//  4. Resume: what the state machine was measuring is void, and each side
//     reports the change.
func (rt *Runtime) transit(t transition) {
	me := rt.comm.Rank()
	entering, leaving := slices.Contains(t.joiners, me), slices.Contains(t.leavers, me)
	if !entering && t.dist != nil {
		t.next.redists++ // an entering rank is handed the count already advanced
	}
	if len(t.joiners) > 0 && !entering {
		if t.cause == causeGrow {
			rt.emitGrow(grown{t, rt.dist, rt.cycle, rt.outSeq})
		} else {
			// A rejoin is this cycle's verdict for every removed rank, the
			// ones that stay out too, so it travels in the send-out stream.
			pkt := rt.changePacket(t)
			rt.emitOut(outMsg{pkt: pkt}, pkt.wireBytes())
		}
	}

	before := len(t.leavers) == 0 || t.cause == causeFailure
	if before {
		rt.install(t.next)
	}
	if t.dist != nil {
		var dead []int
		if t.cause == causeFailure {
			dead = t.leavers
		}
		rt.applyDistribution(t.dist, dead)
		rt.collector, rt.cycTimer = nil, nil
	}
	if !before {
		rt.install(t.next)
	}

	side := 0
	if entering || leaving {
		side = 1
	}
	rt.emitMembership(causeSides[t.cause][side], t.leavers, t.joiners)
}

// packet is what the root sends a rank that must learn of a change it took no
// part in deciding: the state after the change, whole — so no field of it can
// be forgotten on one path — and the redistribution that leads there. The zero
// packet is a removed rank's per-cycle verdict "nothing changed".
type packet struct {
	membership
	oldRanks, oldCounts []int // the distribution the change starts from
	newCounts           []int // rows per rank of active after it
	// Only to a rank that was just spawned: where the world is and what it
	// computes, cross-checked against the joiner's own registration.
	cycle, space int
	arrays       []string
}

// wireBytes prices the packet at 8 bytes per number it carries — the
// redistribution count always, so the empty verdict is one word — plus cycle,
// space and the array-name bytes to a spawned rank.
func (p *packet) wireBytes() int {
	n := 1 + len(p.active) + len(p.removed) + len(p.heldOut) + len(p.claimed) + len(p.baseLoads) +
		len(p.iterCosts) + len(p.oldRanks) + len(p.oldCounts) + len(p.newCounts)
	names := 0
	if p.space != 0 {
		n += 2
		for _, s := range p.arrays {
			names += len(s)
		}
	}
	return 8*n + names
}

// changePacket is the packet for transition t.
func (rt *Runtime) changePacket(t transition) *packet {
	return &packet{membership: t.next, oldRanks: rt.dist.Ranks(), oldCounts: rt.dist.Counts(), newCounts: t.dist.Counts()}
}

// grown is what a grow packet is built from.
type grown struct {
	t          transition
	old        *drsd.Block // the distribution the grow starts from
	cycle, seq int         // where the joiners start: the cycle and the first stream position they await
}

// growPacket builds the packet to a grow's joiners and prices it.
func (rt *Runtime) growPacket(g *grown) (*outMsg, int) {
	pkt := &packet{membership: g.t.next, oldRanks: g.old.Ranks(), oldCounts: g.old.Counts(), newCounts: g.t.dist.Counts(),
		cycle: g.cycle, space: rt.n, arrays: rt.arrayNames()}
	return &outMsg{seq: g.seq, pkt: pkt}, pkt.wireBytes()
}

// emitVerdict puts the empty verdict on the send-out stream.
func (rt *Runtime) emitVerdict() {
	p := &packet{}
	rt.emitOut(outMsg{pkt: p}, p.wireBytes())
}

// adopt applies a received packet: nothing for the empty verdict, the state
// alone on a rank that stays removed, and on a rank the change takes in — a
// rejoiner, or a spawned joiner once its application has committed its
// registration — the same transit the members are executing.
func (rt *Runtime) adopt(p *packet) {
	me := rt.comm.Rank()
	if p.active == nil {
		return
	}
	if !slices.Contains(p.active, me) {
		rt.install(p.membership)
		return
	}
	t := transition{cause: causeRejoin, joiners: withoutInts(p.active, p.oldRanks),
		next: p.membership, dist: drsd.NewBlock(p.active, p.newCounts)}
	if p.space != 0 {
		if names := rt.arrayNames(); p.space != rt.n || !slices.Equal(p.arrays, names) {
			rt.comm.Abort(fmt.Errorf("core: joiner rank %d registered arrays %q over %d iterations, the world has %q over %d",
				me, names, rt.n, p.arrays, p.space))
		}
		t.cause, rt.cycle = causeGrow, p.cycle
	}
	// Under the old distribution this rank owns nothing; applyDistribution
	// treats the empty old range like any other under-provisioned member and
	// ships it every row of its new window.
	rt.dist = drsd.NewBlock(p.oldRanks, p.oldCounts)
	rt.transit(t)
}
