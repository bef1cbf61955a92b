package core

import (
	"fmt"
	"sort"

	"repro/internal/drsd"
	"repro/internal/mpi"
)

// This file implements elastic world resizing: growing the active set to
// brand-new ranks spawned into the cluster's arrival capacity, and shrinking
// it to a requested size, both at a cycle boundary. It generalises the
// shrink/rejoin machinery — a joiner is admitted through the same
// "redistribute with the newcomer inside the group" move a rejoiner uses,
// except that a joiner's runtime state must be bootstrapped from scratch:
// the root ships it a bootstrapPacket (the rejoin verdict extended with the
// cycle, the array registration metadata and the claim ledger) and the
// joiner enters the membership by receiving its rows in the same collective
// redistribution the actives execute.
//
// Determinism: growth is driven by state every active rank computes
// identically — the cluster's static arrival table (ArrivalsAt), the
// replicated claim ledger, and the explicit Resize target the SPMD
// discipline requires every rank to set at the same cycle. Only the root
// performs the physical Spawn and the bootstrap sends; everything else is
// symmetric.

// bootstrapPacket carries everything a spawned joiner needs to enter the
// membership: where the world is (cycle), what it computes (iteration space
// and array registration order, cross-checked against the joiner's own
// registration), who participates (old and new distribution, removed set,
// claim ledger) and the load baseline all members adopt.
type bootstrapPacket struct {
	Cycle     int      // phase cycle the joiner starts at
	Space     int      // distributed iteration-space size
	Arrays    []string // array names in registration order
	Claimed   []int    // arrival ranks claimed so far, including this joiner
	OldActive []int
	OldCounts []int
	NewActive []int
	NewCounts []int
	Removed   []int
	BaseLoads []int
}

// wireBytes models the packet's wire size: 24 bytes of header, 8 per int
// across the six int slices, and the array-name bytes.
func (p *bootstrapPacket) wireBytes() int {
	n := len(p.Claimed) + len(p.OldActive) + len(p.OldCounts) +
		len(p.NewActive) + len(p.NewCounts) + len(p.Removed) + len(p.BaseLoads)
	b := 24 + 8*n
	for _, s := range p.Arrays {
		b += len(s)
	}
	return b
}

// Resize requests that the active set be resized to n at the next cycle
// boundary. n greater than the current active count claims reserve arrival
// capacity (cluster.Spec.Arrivals with AtCycle < 0) and spawns brand-new
// ranks into it; n smaller shrinks the active set to its first n members
// (the send-out root, active[0], is always kept). Every active rank must
// call Resize with the same n at the same cycle — the SPMD discipline the
// rest of the runtime API already requires. Requires Config.Adapt.
func (rt *Runtime) Resize(n int) {
	if n < 1 {
		panic(fmt.Sprintf("core: Resize to %d", n))
	}
	rt.pendingResize = n
}

// maybeResize executes any membership resize due at this cycle boundary:
// scheduled capacity arrivals from the cluster table, plus an explicit
// Resize target. It reports whether the membership changed. All active
// ranks call it at the same point with identical state.
func (rt *Runtime) maybeResize(loads []int) bool {
	target := rt.pendingResize
	rt.pendingResize = 0
	if target == 0 && !rt.hasArrivals {
		return false
	}
	cl := rt.comm.World().Cluster()
	var joiners []int
	if rt.hasArrivals {
		for _, r := range cl.ArrivalsAt(rt.cycle) {
			if !containsInt(rt.claimed, r) {
				joiners = append(joiners, r)
			}
		}
	}
	if target > len(rt.active)+len(joiners) {
		// Explicit grow: claim unclaimed reserve capacity in spec order.
		need := target - len(rt.active) - len(joiners)
		for _, r := range cl.Reserves() {
			if need == 0 {
				break
			}
			if !containsInt(rt.claimed, r) && !containsInt(joiners, r) {
				joiners = append(joiners, r)
				need--
			}
		}
	}
	if len(joiners) > 0 {
		rt.grow(joiners, loads)
		return true
	}
	if target > 0 && target < len(rt.active) {
		rt.shrink(target, loads)
		return true
	}
	return false
}

// grow admits brand-new ranks: the root spawns their goroutines and ships
// each a bootstrap packet, then every member (joiners included, from inside
// their bootstrap) executes the same redistribution that hands the joiners
// their rows. loads is this cycle's gathered active load vector.
func (rt *Runtime) grow(joiners []int, loads []int) {
	sort.Ints(joiners)
	newActive, newBase, nodes := rt.admitted(joiners, loads) // joiners default to load 0
	counts := rt.powerCounts(nodes, rt.costs())
	newDist := drsd.NewBlock(newActive, counts)
	rt.claimed = append(rt.claimed, joiners...)

	if rt.comm.Rank() == rt.sendOutRoot() {
		// Extend the pacing gate before the joiners exist, so a stepping
		// controller accounts for them from their first checkpoint.
		if g, ok := rt.cfg.Pacer.(interface{ Grow([]int) }); ok {
			g.Grow(joiners)
		}
		rt.comm.World().Spawn(joiners)
		pkt := bootstrapPacket{
			Cycle:     rt.cycle,
			Space:     rt.n,
			Arrays:    rt.arrayNames(),
			Claimed:   append([]int(nil), rt.claimed...),
			OldActive: rt.dist.Ranks(),
			OldCounts: rt.dist.Counts(),
			NewActive: newActive,
			NewCounts: newDist.Counts(),
			Removed:   append([]int(nil), rt.removed...),
			BaseLoads: newBase,
		}
		for _, r := range joiners {
			rt.comm.Send(r, tagBootstrap, pkt, pkt.wireBytes())
		}
	}

	// Redistribute with the joiners inside the collective group so they
	// receive their rows; they meet this collective from bootstrap().
	rt.active = newActive
	rt.group = rt.comm.World().NewGroup(newActive)
	rt.applyDistribution(newDist)
	rt.redists++
	var info [64]byte
	rt.record(EvResize, 0, string(appendInts(info[:0], "grow joiners=", joiners)))
	rt.emitMembership("resize-grow")
	rt.rebase(newBase)
}

// shrink reduces the active set to its first target members. The dropped
// ranks ship their rows out in the removal redistribution (they are still
// in the group) and switch to the send-out-only protocol, exactly like a
// dropLoaded removal — but they are recorded in resizedOut, so automatic
// rejoin never re-admits capacity an explicit Resize released.
func (rt *Runtime) shrink(target int, loads []int) {
	stay := append([]int(nil), rt.active[:target]...)
	out := append([]int(nil), rt.active[target:]...)
	// The removal redistribution happens while the dropped ranks are still
	// in the group, so they can ship their rows out.
	counts := rt.powerCounts(rt.nodesOf(stay, loads), rt.costs())
	rt.applyDistribution(drsd.NewBlock(stay, counts))
	rt.redists++

	rt.active = stay
	rt.removed = append(rt.removed, out...)
	rt.resizedOut = append(rt.resizedOut, out...)
	rt.group = rt.comm.World().NewGroup(stay)
	if containsInt(out, rt.comm.Rank()) {
		rt.isOut = true
		rt.record(EvRemoved, 0, "resize")
	}
	rt.record(EvResize, 0, fmt.Sprintf("shrink active=%v removed=%v", stay, out))
	if rt.isOut {
		rt.emitMembership("resize-removed")
	} else {
		rt.emitMembership("resize-shrink")
	}
	rt.rebase(append([]int(nil), loads[:target]...))
}

// bootstrap is the joiner's side of growth, run from ensureCommitted when
// the application commits its registration: receive the root's bootstrap
// packet, validate that this rank registered the same computation, adopt
// the membership, and meet the admission redistribution the actives are
// already executing.
func (rt *Runtime) bootstrap() {
	p, _, err := rt.comm.RecvErr(mpi.AnySource, tagBootstrap)
	if err != nil {
		rt.comm.Abort(fmt.Errorf("core: joiner rank %d: bootstrap receive: %w", rt.comm.Rank(), err))
	}
	pkt, ok := p.(bootstrapPacket)
	if !ok {
		rt.comm.Abort(fmt.Errorf("core: joiner rank %d: bad bootstrap payload %T", rt.comm.Rank(), p))
	}
	if pkt.Space != rt.n {
		rt.comm.Abort(fmt.Errorf("core: joiner rank %d registered iteration space %d, world has %d",
			rt.comm.Rank(), rt.n, pkt.Space))
	}
	if len(pkt.Arrays) != len(rt.arrays) {
		rt.comm.Abort(fmt.Errorf("core: joiner rank %d registered %d arrays, world has %d",
			rt.comm.Rank(), len(rt.arrays), len(pkt.Arrays)))
	}
	for i, name := range pkt.Arrays {
		if rt.arrays[i].name != name {
			rt.comm.Abort(fmt.Errorf("core: joiner rank %d registered array %q at slot %d, world has %q",
				rt.comm.Rank(), rt.arrays[i].name, i, name))
		}
	}
	rt.cycle = pkt.Cycle
	rt.active = append([]int(nil), pkt.NewActive...)
	rt.removed = append([]int(nil), pkt.Removed...)
	rt.claimed = append([]int(nil), pkt.Claimed...)
	rt.group = rt.comm.World().NewGroup(pkt.NewActive)
	// Under the old distribution this rank owns nothing; applyDistribution
	// treats the empty old range like any other under-provisioned member
	// and ships it every row of its new window.
	rt.dist = drsd.NewBlock(pkt.OldActive, pkt.OldCounts)
	rt.applyDistribution(drsd.NewBlock(pkt.NewActive, pkt.NewCounts))
	rt.redists++
	rt.record(EvResize, 0, "joined")
	rt.emitMembership("resize-join")
	rt.baseLoads = append([]int(nil), pkt.BaseLoads...)
	rt.state = stNormal
}
