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

// loadMsg is one rank's contribution to the per-cycle load exchange. Only
// the send-out root fills the removed-node fields.
type loadMsg struct {
	Load         int
	RemovedRanks []int
	RemovedLoads []int
}

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
	return containsInt(rt.deadRanks, r) || containsInt(rt.pendingDead, r)
}

// pollRemoved runs the root's ping/reply round with every removed node and
// returns their current loads (aligned with rt.removed).
func (rt *Runtime) pollRemoved() []int {
	loads := make([]int, len(rt.removed))
	for _, r := range rt.removed {
		if rt.knownDead(r) {
			continue
		}
		rt.comm.Send(r, tagPing, nil, 1)
	}
	for i, r := range rt.removed {
		if rt.knownDead(r) {
			loads[i] = -1
			continue
		}
		p, _, err := rt.comm.RecvErr(r, tagLoadReply)
		if err != nil {
			// Crashed removed node: the -1 sentinel travels through the
			// allgather, so every active rank prunes the same set.
			loads[i] = -1
			continue
		}
		loads[i] = p.(int)
	}
	return loads
}

// exchangeLoads gathers every active rank's load — and, when rejoin is
// enabled, the removed nodes' loads via the root — so all active ranks see
// an identical picture.
func (rt *Runtime) exchangeLoads() (active []int, removedRanks, removedLoads []int, err error) {
	// Fast path: with no removed-node sidecar to carry, every contribution
	// is a bare load reading, so the exchange rides the allocation-free
	// float64 allgather instead of boxing a loadMsg per member per cycle. The wire
	// price (8 bytes per member) and the collective tree are identical to
	// the boxed path, so virtual timestamps — and the golden traces — do
	// not move.
	if !rt.cfg.AllowRejoin || len(rt.removed) == 0 {
		n := rt.group.Size()
		if rt.loadBuf == nil {
			// Sized once for the largest group the world can hold.
			rt.loadBuf = make([]float64, rt.comm.World().Cap())
			rt.loadInts = make([]int, rt.comm.World().Cap())
		}
		buf := rt.loadBuf[:n]
		err := rt.comm.AllgatherF64sIntoErr(rt.group, float64(rt.monitor.CompetingProcesses()), buf)
		if err != nil {
			return nil, nil, nil, err
		}
		active = rt.loadInts[:n]
		for i, v := range buf {
			active[i] = int(v)
		}
		return active, nil, nil, nil
	}

	my := loadMsg{Load: rt.monitor.CompetingProcesses()}
	if rt.comm.Rank() == rt.sendOutRoot() {
		my.RemovedRanks = append([]int(nil), rt.removed...)
		my.RemovedLoads = rt.pollRemoved()
	}
	// Symmetric wire price: the allgather's cost closure runs on whichever
	// member physically arrives last, so a per-rank price (the former
	// 8+16*len(my.RemovedRanks), nonzero only on the root) made the charged
	// bytes depend on goroutine arrival order. Every rank knows rt.removed,
	// so all charge the same size — and the root's contribution really does
	// carry both the removed ranks and their loads, which the former price
	// ignored (RemovedLoads rode for free): 8 bytes of load plus 24 per
	// removed node.
	parts, err := rt.comm.AllgatherErr(rt.group, my, 8+24*len(rt.removed))
	if err != nil {
		return nil, nil, nil, err
	}
	active = make([]int, len(parts))
	for i, p := range parts {
		m := p.(loadMsg)
		active[i] = m.Load
		if len(m.RemovedRanks) > 0 {
			removedRanks, removedLoads = m.RemovedRanks, m.RemovedLoads
		}
	}
	return active, removedRanks, removedLoads, nil
}

// maybeRejoin checks the polled removed-node loads and, when some node has
// become unloaded, readmits it. It reports whether a rejoin happened. All
// active ranks call this with identical arguments; the root additionally
// sends every removed node its verdict.
func (rt *Runtime) maybeRejoin(activeLoads, removedRanks, removedLoads []int) bool {
	if !rt.cfg.AllowRejoin || len(rt.removed) == 0 {
		return false
	}
	var rejoining []int
	for i, r := range removedRanks {
		if removedLoads[i] == 0 && !containsInt(rt.heldOut, r) {
			rejoining = append(rejoining, r)
		}
	}
	if len(rejoining) == 0 {
		if rt.comm.Rank() == rt.sendOutRoot() {
			rt.tell(rt.removed, &packet{})
		}
		return false
	}
	// Rejoiners are unloaded by definition; survivors keep their
	// just-gathered loads.
	t := rt.admission(causeRejoin, rejoining, activeLoads)
	t.next.removed = withoutInts(rt.removed, rejoining)
	rt.transit(t)
	return true
}

// removedCycle is the removed node's side of the per-cycle protocol: reply
// to the root's ping with the local load, then apply the verdict.
func (rt *Runtime) removedCycle() {
	if !rt.cfg.AllowRejoin {
		return
	}
	rt.recvRoot(tagPing)
	rt.comm.Send(rt.sendOutRoot(), tagLoadReply, rt.monitor.CompetingProcesses(), 8)
	rt.adopt(rt.recvRoot(tagMembership).(*packet))
}
