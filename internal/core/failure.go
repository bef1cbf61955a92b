package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/drsd"
	"repro/internal/mpi"
)

// This file turns detected rank deaths into a forced membership change.
//
// Detection happens at three kinds of sites with different symmetry:
//
//   - Collective errors (mpi.RankFailedError from an *Err collective) are
//     observed by every group member at the same operation, so the observer
//     may immediately shrink the membership (absorbFailure) and retry over
//     the rebuilt group.
//   - Point-to-point errors inside a redistribution or a recovery (a failed
//     slab receive) may be observed by only some ranks, but the protocol
//     ends in a barrier over the group the dead rank belonged to, which
//     fails for every member. Those sites only record the death
//     (absorbDead) — an asymmetric group rebuild there could leave peers
//     waiting on a group the observer abandoned — and by the next cycle
//     boundary every survivor holds the same pending set.
//   - Point-to-point errors at a replica refresh site (paired receive,
//     epoch start/complete/wait) are seen by the dead rank's ring
//     neighbours only, and no collective trails the refresh. A neighbour
//     that recorded the death would run recovery at the top of its next
//     cycle and enter the load exchange on the rebuilt group while its
//     peers are still on the old one — each side parked in a collective
//     the other never joins. So these sites record nothing
//     (tolerateDeath): the next collective on the old group — the load
//     exchange, or an application reduction — fails for every member at
//     once, and recovery starts from there.
//
// Recovery itself (handleFailure) runs where every surviving active rank
// holds the same pending set — the top of BeginCycle, or the load-exchange
// error path — and, when the dead ranks held data, executes an ordinary
// redistribution with a non-empty dead set: the drain reconstructs the dead
// ranks' rows from buddy replicas (Config.Replicate) or declares them lost.

// replica is a rank's copy of its ring predecessor's rows of one dense
// array, refreshed by refreshReplicas (paired send/recv) or through the
// one-sided window machinery in rma.go. Both halves are slabs of the dense
// free list. data holds the committed replica, rows [data.lo,
// data.lo+data.rows); stage is the window memory remote Puts land in under
// ReplicaRMA (every open attaches the current stage), promoted to data only
// when the epoch's closing wait settles — so an epoch that can no longer
// settle (the origin died mid-cycle without depositing) leaves the committed
// replica intact.
type replica struct {
	data, stage *denseSlab
}

// LostRange identifies rows of one array that could not be reconstructed
// after a failure: they were zero-filled and the application must treat
// them as reinitialised.
type LostRange struct {
	Array  string
	Lo, Hi int
}

// DeadRanks returns the world ranks this runtime has absorbed as crashed.
func (rt *Runtime) DeadRanks() []int { return append([]int(nil), rt.deadRanks...) }

// LostRows returns the row ranges declared lost by failure recoveries, in
// the order they were recorded.
func (rt *Runtime) LostRows() []LostRange { return append([]LostRange(nil), rt.lost...) }

// RecoveredRows reports how many rows failure recoveries reconstructed from
// buddy replicas.
func (rt *Runtime) RecoveredRows() int { return rt.recoveredRows }

// deadOf extracts the dead ranks from a point-to-point receive error. Any
// other error is unrecoverable and aborts the world.
func (rt *Runtime) deadOf(err error) []int {
	var rf *mpi.RankFailedError
	if !errors.As(err, &rf) {
		rt.comm.Abort(err)
	}
	return rf.Ranks
}

// absorbDead records newly detected dead ranks for the next handleFailure
// pass without touching the membership (safe at asymmetric point-to-point
// detection sites).
func (rt *Runtime) absorbDead(ranks []int) {
	for _, r := range ranks {
		if !slices.Contains(rt.pendingDead, r) && !slices.Contains(rt.deadRanks, r) {
			rt.pendingDead = append(rt.pendingDead, r)
		}
	}
	sort.Ints(rt.pendingDead)
}

// tolerateDeath is the error path of the replica refresh sites, where only
// the dead rank's ring neighbours see an error and no collective trails the
// protocol: the death is deliberately not recorded (see the file comment),
// so the observer stays in step with the peers that saw nothing. Any other
// error aborts the world.
func (rt *Runtime) tolerateDeath(err error) { rt.deadOf(err) }

// absorbFailure handles an error from a collective operation: every group
// member observed the identical error at the same operation, so the
// membership shrink is symmetric and the caller may immediately retry over
// the rebuilt group. Non-failure errors abort the world.
func (rt *Runtime) absorbFailure(err error) {
	var rf *mpi.RankFailedError
	if !errors.As(err, &rf) {
		rt.comm.Abort(err)
	}
	rt.absorbDead(rf.Ranks)
	rt.shrinkActive(rf.Ranks)
}

// survivors returns the membership with the dead struck from its active and
// removed lists.
func (rt *Runtime) survivors(dead []int) membership {
	m := rt.membership
	m.active, m.removed = withoutInts(m.active, dead), withoutInts(m.removed, dead)
	if len(m.active) == 0 {
		rt.comm.Abort(fmt.Errorf("core: every active rank is dead (%v)", dead))
	}
	return m
}

// shrinkActive strikes dead ranks from the membership mid-collective, so the
// caller can retry over the survivors' group; the rows wait for handleFailure.
// Idempotent: the group of an unchanged member list is the same group.
func (rt *Runtime) shrinkActive(dead []int) { rt.install(rt.survivors(dead)) }

// handleFailure turns the pending dead set into a forced membership change
// and, when the dead ranks held data, a recovery redistribution. Every
// surviving active rank calls it at the same point (top of BeginCycle, or
// the load-exchange error path), so the collective recovery is symmetric.
func (rt *Runtime) handleFailure() {
	dead := rt.pendingDead
	if len(dead) == 0 {
		return
	}
	rt.pendingDead = nil
	rt.deadRanks = append(rt.deadRanks, dead...)
	sort.Ints(rt.deadRanks)

	t := transition{cause: causeFailure, leavers: dead, next: rt.survivors(dead)}
	if slices.ContainsFunc(rt.dist.Ranks(), func(r int) bool { return slices.Contains(dead, r) }) {
		// The dead held rows: re-partition over the survivors by relative
		// power (their loads are re-measured next cycle; recovery must not
		// depend on load state the dead rank can no longer contribute to).
		t.next.baseLoads = make([]int, len(t.next.active))
		t.dist = drsd.NewBlock(t.next.active, rt.powerCounts(rt.nodesOf(t.next.active, nil), rt.costs()))
	}
	rt.transit(t)
}

// replicaHolder returns the survivor holding dead rank d's replica of array
// a — d's ring successor in the pre-failure distribution (still rt.dist),
// the rank refreshReplicas shipped to — and false when no live replica
// exists: replication off, a sparse array, or the holder dead too. Every
// rank decides from the same distribution and dead set, so a holder serves
// exactly the transfers its receivers expect from it.
func (rt *Runtime) replicaHolder(a *regArray, d int, dead []int) (int, bool) {
	if !rt.cfg.Replicate || a.dense == nil {
		return 0, false
	}
	_, h, ok := ringNeighbours(rt.dist.Ranks(), d)
	return h, ok && !slices.Contains(dead, h)
}

// serveSlab packs the part of a dead rank's rows [lo,hi) this holder's
// replica covers — possibly none — into a pooled slab (lo set to the covered
// range's start), one RowBytes touch per row, and returns it with its wire
// size.
func (rt *Runtime) serveSlab(a *regArray, lo, hi int) (*denseSlab, int) {
	rep := a.committed()
	plo, phi := intersect(lo, hi, rep)
	slab := getDenseSlab(phi-plo, a.dense.RowLen)
	slab.lo = plo
	if phi > plo {
		off := (plo - rep.lo) * a.dense.RowLen
		copy(slab.data, rep.data[off:off+len(slab.data)])
		for g := plo; g < phi; g++ {
			rt.node.ChargeTouch(a.dense.RowBytes())
		}
	}
	return slab, 16 + (phi-plo)*int(a.dense.RowBytes())
}

// commitServed commits a holder's served slab for a dead rank's rows
// [lo,hi): the rows it covers are recovered, the rest declared lost.
func (rt *Runtime) commitServed(a *regArray, lo, hi int, payload any) {
	rs, ok := payload.(*denseSlab)
	if !ok {
		panic(fmt.Sprintf("core: bad replica recovery payload for %q", a.name))
	}
	rlo, rhi := rs.lo, rs.lo+rs.rows
	if rhi > rlo {
		a.dense.PutRows(rlo, rs.data)
		rt.recoveredRows += rhi - rlo
	}
	putDenseSlab(rs)
	rt.loseRows(a, lo, min(rlo, hi))
	rt.loseRows(a, max(rhi, lo), hi)
}

// restoreLocal reconstructs rows [lo,hi) of a dense array from this rank's
// own replica (the dead rank was this rank's ring predecessor).
func (rt *Runtime) restoreLocal(a *regArray, lo, hi int) {
	rep := a.committed()
	plo, phi := intersect(lo, hi, rep)
	if phi > plo {
		off := (plo - rep.lo) * a.dense.RowLen
		a.dense.PutRows(plo, rep.data[off:off+(phi-plo)*a.dense.RowLen])
		for g := plo; g < phi; g++ {
			rt.node.ChargeTouch(a.dense.RowBytes())
		}
		rt.recoveredRows += phi - plo
	}
	rt.loseRows(a, lo, plo)
	rt.loseRows(a, phi, hi)
}

// loseRows declares global rows [lo,hi) of array a unrecoverable: dense
// rows are zero-filled, sparse rows cleared, and the range recorded so the
// application can see exactly what was lost.
func (rt *Runtime) loseRows(a *regArray, lo, hi int) {
	if hi <= lo {
		return
	}
	for g := lo; g < hi; g++ {
		if a.dense != nil {
			row := a.dense.Row(g)
			for j := range row {
				row[j] = 0
			}
			rt.node.ChargeTouch(a.dense.RowBytes())
		} else {
			a.sparse.ClearRow(g)
			rt.node.ChargeTouch(8)
		}
	}
	rt.lost = append(rt.lost, LostRange{Array: a.name, Lo: lo, Hi: hi})
	rt.lostRows += hi - lo
}

// refreshReplicas re-captures dense-array buddy replicas: each rank ships a
// copy of its owned rows to its ring successor in the current distribution
// and stores the copy its predecessor ships in return. Runs at every
// (re)distribution point and, when ReplicaEvery is set, every N cycles from
// EndCycle. Eager sends precede the receives, so the ring cannot deadlock.
// The receive-side stall is the refresh's, whichever caller ran it.
func (rt *Runtime) refreshReplicas() {
	prev, next, ok := rt.replicaRing()
	if !ok {
		return
	}
	stall0 := rt.comm.RecvStall
	lo, hi := rt.dist.RangeOf(rt.comm.Rank())
	for i := range rt.arrays {
		a := &rt.arrays[i]
		if a.dense == nil {
			continue
		}
		if rt.knownDead(next) {
			// The buddy died inside the redistribution this refresh trails:
			// its mailbox will never be drained, so shipping the refresh
			// would only waste injection time. The guard is the recorded
			// dead set, never the wall-clock Alive (see knownDead): a buddy
			// dying concurrently with this refresh gets the slab either way.
			continue
		}
		rt.comm.Send(next, tagReplica+a.index, rt.packRows(a, lo, hi), 16+(hi-lo)*int(a.dense.RowBytes()))
	}
	for i := range rt.arrays {
		a := &rt.arrays[i]
		if a.dense == nil {
			continue
		}
		p, _, err := rt.comm.RecvErr(prev, tagReplica+a.index)
		if err != nil {
			// The predecessor died before shipping its refresh: keep the
			// stale replica.
			rt.tolerateDeath(err)
			continue
		}
		rt.storeReplica(a, p)
	}
	rt.replicaStall += rt.comm.RecvStall - stall0
}

// replicaRing returns this rank's predecessor and successor in the current
// distribution's replica ring, for either refresh transport; ok is false
// when the rank takes no part: replication is off, the rank is removed, or
// the ring has one member — which has no buddy, so it hands every replica
// back.
func (rt *Runtime) replicaRing() (prev, next int, ok bool) {
	if !rt.cfg.Replicate || rt.isOut {
		return 0, 0, false
	}
	ranks := rt.dist.Ranks()
	if len(ranks) < 2 {
		rt.releaseReplicas()
		return 0, 0, false
	}
	return ringNeighbours(ranks, rt.comm.Rank())
}

// ringNeighbours returns me's predecessor and successor in the ring of
// ranks (a distribution's rank list); ok is false when me is not in it.
func ringNeighbours(ranks []int, me int) (prev, next int, ok bool) {
	n := len(ranks)
	for i, r := range ranks {
		if r == me {
			return ranks[(i-1+n)%n], ranks[(i+1)%n], true
		}
	}
	return 0, 0, false
}

// packRows copies rows [lo,hi) of dense array a into a pooled slab the way
// every replica shipper does: one RowBytes touch per row copied out.
func (rt *Runtime) packRows(a *regArray, lo, hi int) *denseSlab {
	slab := getDenseSlab(hi-lo, a.dense.RowLen)
	slab.lo = lo
	a.dense.CopyRowsTo(slab.data, lo, hi)
	for g := lo; g < hi; g++ {
		rt.node.ChargeTouch(a.dense.RowBytes())
	}
	return slab
}

// storeReplica commits a paired replica payload as array a's replica — one
// RowBytes touch per row stored — by adopting the received slab itself, and
// hands the replica it replaces back to the free list: nothing writes a
// paired replica once it is stored, and nothing keeps one once replaced.
func (rt *Runtime) storeReplica(a *regArray, payload any) {
	rs, ok := payload.(*denseSlab)
	if !ok {
		panic(fmt.Sprintf("core: bad replica payload for %q", a.name))
	}
	for range rs.rows {
		rt.node.ChargeTouch(a.dense.RowBytes())
	}
	rep := a.replica()
	if rep.data != nil {
		putDenseSlab(rep.data)
	}
	rep.data = rs
}

// replica returns a's replica record, creating it on first use.
func (a *regArray) replica() *replica {
	if a.rep == nil {
		a.rep = &replica{}
	}
	return a.rep
}

// committed returns a's committed replica slab, nil when there is none.
func (a *regArray) committed() *denseSlab {
	if a.rep == nil {
		return nil
	}
	return a.rep.data
}

// releaseReplicas hands every array's replica slabs back to the free list
// and forgets the replicas. Its callers are the points where nothing can
// write them any more: Finalize after the last epoch settled, and a ring
// of one, which has no buddy and whose last epoch a redistribution closed.
func (rt *Runtime) releaseReplicas() {
	for i := range rt.arrays {
		a := &rt.arrays[i]
		if a.rep == nil {
			continue
		}
		for _, s := range [...]*denseSlab{a.rep.data, a.rep.stage} {
			if s != nil {
				putDenseSlab(s)
			}
		}
		a.rep = nil
	}
}

// intersect clips [lo,hi) to the replica's covered range; a nil replica
// yields the empty range [lo,lo).
func intersect(lo, hi int, rep *denseSlab) (int, int) {
	if rep == nil {
		return lo, lo
	}
	plo, phi := max(lo, rep.lo), min(hi, rep.lo+rep.rows)
	if phi < plo {
		return lo, lo
	}
	return plo, phi
}

// withoutInts returns s with every member of drop removed (fresh slice).
func withoutInts(s, drop []int) []int {
	return slices.DeleteFunc(append(make([]int, 0, len(s)), s...), func(x int) bool { return slices.Contains(drop, x) })
}
