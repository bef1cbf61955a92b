package core

import (
	"fmt"
	"slices"
)

// This file decides elastic world resizing: growing the active set to
// brand-new ranks spawned into the cluster's arrival capacity, and shrinking
// it to a requested size, both at a cycle boundary and both performed by
// transit (membership.go).
//
// Determinism: growth is driven by state every active rank computes
// identically — the cluster's static arrival table (ArrivalsDue), the
// replicated claim ledger, and the explicit Resize target the SPMD
// discipline requires every rank to set at the same cycle.

// Resize requests that the active set be resized to n at the next cycle
// boundary. n greater than the current active count claims reserve arrival
// capacity (cluster.Spec.Arrivals with AtCycle < 0) and spawns brand-new
// ranks into it; n smaller shrinks the active set to its first n members.
// The prefix is a convention, not a constraint: a removed rank hears from
// whoever holds the send-out role (colls.go), so no member must stay. Every
// active rank must call Resize with the same n at the same cycle — the SPMD
// discipline the rest of the runtime API already requires. Requires
// Config.Adapt.
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
	cl := rt.comm.World().Cluster()
	if target == 0 && !cl.HasArrivals() {
		return false
	}
	var joiners []int
	if cl.HasArrivals() {
		for _, r := range cl.ArrivalsDue(rt.cycle) {
			if !slices.Contains(rt.claimed, r) {
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
			if !slices.Contains(rt.claimed, r) && !slices.Contains(joiners, r) {
				joiners = append(joiners, r)
				need--
			}
		}
	}
	if len(joiners) > 0 {
		// Grow: admit the brand-new ranks (unloaded by definition) and claim
		// their arrival slots.
		t := rt.admission(causeGrow, joiners, loads)
		t.next.claimed = slices.Concat(rt.claimed, t.joiners)
		rt.transit(t)
		return true
	}
	if target > 0 && target < len(rt.active) {
		// Shrink to the first target members, like a dropLoaded removal — but
		// the released ranks are held out, so automatic rejoin never re-admits
		// capacity an explicit Resize released.
		base := append([]int(nil), loads[:target]...)
		t := rt.removal(causeShrink, rt.active[:target:target], rt.active[target:], base, base)
		t.next.heldOut = slices.Concat(rt.heldOut, t.leavers)
		rt.transit(t)
		return true
	}
	return false
}
