package core

import (
	"slices"

	"repro/internal/mpi"
	"repro/internal/vclock"
)

// The one consumer of the mpi window layer: the replica refresh under
// Config.ReplicaRMA. Every transfer is a Put under a pairwise
// (post/start/complete/wait) epoch between two ring neighbours — no transfer
// synchronises the group, and no rank reads another's window.
//
// The paired send/recv refresh makes every holder stall in a blocking
// receive for its predecessor's slab. Here a rank first *closes* the epoch
// opened at the previous refresh — a cycle of computation has hidden the
// wire, so the close settles with (near) zero stall — and then opens the
// next one by exposing a staging slab and Putting its own rows into its
// successor's window. The committed replica (replica.data) is only
// replaced when an epoch settles, so a predecessor that dies mid-cycle
// without depositing leaves the previous commit intact, exactly like the
// paired path's keep-the-stale-replica behaviour. Redistribution moves rows
// by message passing only (drainArray); DESIGN.md says why its one-sided
// commit went.
//
// Ordering rules:
//
//   - post before start: a rank posts every window it exposes before it
//     starts toward anyone. A start blocks on the target's post, so ranks
//     that started first would wait on each other. The post is also the
//     write barrier: an origin cannot Put until its start consumes it, which
//     follows the owner's attach and the close-time promotion of the
//     previous stage in program order.
//   - one access epoch per target: a start toward several targets opens
//     nothing when one of them is dead, and the live ones would hang in
//     their wait. A rank whose start fails gives up only that target; its
//     exposures stay open for its own origins' deposits.
//   - complete before wait: every completion notification is out before
//     this rank can block (or abandon) in a wait, or a live target would
//     hang in its own.
//   - a wait settles the epoch's deposits and is the only point after which
//     the owner may read what landed. Landing is host-only bookkeeping: the
//     modelled deposit arrived by one-sided DMA, so the owner pays neither
//     per-message CPU nor commit touches — precisely the cost this mode
//     saves over the paired refresh.
//
// The failure rule (unlanded): a failed wait settles nothing. A live
// origin's rows stay — the wait consumed its completion, so its Puts
// happen-before this point. A dead origin's rows stay iff PendingPSCW counts
// its whole transfer: a crash fires at operation entry, so each of its Puts
// either ran to completion or never started, and its goroutine is gone, so
// nothing can still be writing. Anything else is lost — the replica keeps
// its previous commit — and the window's pending deposits are discarded.
//
// Failure observation is pairwise-local: only the dead rank's peers see an
// error, and no collective trails the refresh, so the neighbours must not
// act on it (tolerateDeath) — the next cycle boundary's collective fails
// for everyone and recovery converges there (failure.go). In particular the
// replica windows are rebuilt only when the distribution's membership
// changes, which every member sees at once: a neighbour that rebuilt on its
// own observation would post and start on windows its live peers, still on
// the old ones, never touch.

// ReplicaStall reports the cumulative receive-side stall this rank's
// replica refreshes have cost it: paired receives, epoch settlements under
// ReplicaRMA, and the paired refresh that trails a redistribution in either
// mode. The RMA-vs-p2p study and the refresh benchmarks compare it across
// modes.
func (rt *Runtime) ReplicaStall() vclock.Duration { return rt.replicaStall }

// refreshReplicasNow runs one replica refresh in the configured mode.
func (rt *Runtime) refreshReplicasNow() {
	if rt.cfg.ReplicaRMA {
		rt.closeReplicaEpoch()
		rt.openReplicaEpoch()
		return
	}
	rt.refreshReplicas()
}

// openReplicaEpoch exposes this rank's staging buffers and Puts its owned
// rows into its ring successor's windows, leaving the epoch open for the
// next refresh point (or Finalize) to close. Every rank of the current
// distribution calls it collectively.
func (rt *Runtime) openReplicaEpoch() {
	prev, next, ok := rt.replicaRing()
	if !ok {
		return
	}
	stall0 := rt.comm.RecvStall
	if ranks := rt.dist.Ranks(); !slices.Equal(rt.repRanks, ranks) {
		// Membership changed (or first open): discard whatever is pending
		// on the abandoned windows, then register fresh ones on the new
		// group. Registration order is rt.arrays on every member, so the
		// k-th WinCreate of each member meets on the same window.
		rt.discardReplicaWindows()
		rt.createWins(rt.comm.World().NewGroup(ranks))
		rt.repRanks = append(rt.repRanks[:0], ranks...)
	}
	plo, phi := rt.dist.RangeOf(prev)
	lo, hi := rt.dist.RangeOf(rt.comm.Rank())

	// Attach and post every array's window toward the predecessor before
	// starting any (post before start, see the file comment).
	for i := range rt.arrays {
		a := &rt.arrays[i]
		if a.dense == nil {
			continue
		}
		win := a.win
		rt.comm.WinAttach(win, rt.stageReplica(a, plo, phi))
		rt.comm.WinPost(win, []int{prev}, 0)
	}

	// Start toward the successor and Put this rank's slab. A successor
	// recorded dead gets nothing, as in the paired refresh. It is recorded
	// but still on the ring when an application collective saw it die
	// mid-cycle: the close just before this open sent it no completion, so
	// the access epoch toward it is still open, and a start would panic.
	// The recovery at the next cycle boundary rebuilds the windows without
	// it (the guard is the recorded set, never the wall-clock Alive — see
	// knownDead).
	for i := range rt.arrays {
		a := &rt.arrays[i]
		if a.dense == nil || rt.knownDead(next) {
			continue
		}
		win := a.win
		if err := rt.comm.WinStartErr(win, []int{next}, nil); err != nil {
			// The successor died before posting: this rank has nowhere to
			// ship, for any array. Only the access side is given up — the
			// exposures posted above stay open, so the next close still
			// consumes the live predecessor's completion and commits its
			// deposit. Abandoning them too would strand that completion in
			// the mailbox, where the post-recovery windows' first wait would
			// take it for their own and settle every epoch one refresh late.
			rt.tolerateDeath(err)
			break
		}
		if hi > lo {
			// Origin-side injection is what a paired sender pays to pack; the
			// saving of a Put is entirely holder-side.
			slab := rt.packRows(a, lo, hi)
			rt.comm.Put(win, next, 0, slab.data)
			putDenseSlab(slab)
		}
	}
	rt.replicaStall += rt.comm.RecvStall - stall0
	rt.repOpen = true
}

// stageReplica sizes array a's staging slab for an incoming deposit of the
// predecessor's rows [lo,hi), creating the replica record and taking a slab
// from the free list on first use, and returns its storage — the window
// memory the deposit lands in. A stage it reuses is settled: the last close
// either swapped the old committed slab into it or left it unpromoted after
// a failed wait, and no post has exposed it since.
func (rt *Runtime) stageReplica(a *regArray, lo, hi int) []float64 {
	rep := a.replica()
	if rep.stage == nil {
		rep.stage = denseSlabs.get()
	}
	rep.stage.fit(hi-lo, a.dense.RowLen)
	rep.stage.lo = lo
	return rep.stage.data
}

// closeReplicaEpoch settles the replica epoch left open by the last
// refresh point, promoting each staged deposit to the committed replica.
// No-op when no epoch is open. The ring is that of the open, and each stage
// still holds the range the open sized it for: nothing installs a
// distribution between an open and its close, because a redistribution
// closes the epoch first (beginRedist).
func (rt *Runtime) closeReplicaEpoch() {
	if !rt.repOpen {
		return
	}
	rt.repOpen = false
	prev, next, _ := ringNeighbours(rt.dist.Ranks(), rt.comm.Rank())
	stall0 := rt.comm.RecvStall
	// Complete toward the successor for every array before waiting on any
	// (complete before wait, see the file comment). A successor recorded dead
	// gets none: the windows are about to be rebuilt without it (the guard is
	// the recorded set, never the wall-clock Alive — see knownDead).
	for i := range rt.arrays {
		a := &rt.arrays[i]
		if a.dense == nil || rt.knownDead(next) {
			continue
		}
		rt.comm.WinComplete(a.win)
	}
	// Wait on the predecessor's completion, settling the pair's epoch, and
	// promote the staged deposit — after a failed wait only when the dead
	// predecessor's deposit landed in full. Promotion swaps the two slabs:
	// the deposit covers the whole stage, and the next open re-sizes and
	// exposes the other one (its post is the write barrier, so no Put can
	// land before then). Host-only bookkeeping: the modelled transfer already
	// landed one-sided, so no virtual cost is charged (see the file comment).
	for i := range rt.arrays {
		a := &rt.arrays[i]
		if a.dense == nil {
			continue
		}
		if err := rt.comm.WinWaitErr(a.win); err != nil {
			// Not recorded: deadOf without absorbDead is tolerateDeath.
			if rt.unlanded(a.win, rt.deadOf(err), prev, len(a.rep.stage.data)) {
				continue
			}
		}
		a.rep.data, a.rep.stage = a.rep.stage, a.rep.data
	}
	rt.replicaStall += rt.comm.RecvStall - stall0
}

// unlanded applies the one failure rule (see the file comment) after this
// rank's WinWaitErr on win failed naming dead: it reports whether origin's
// deposit of want elements must not be used, then discards the window's
// pending deposits.
func (rt *Runtime) unlanded(win *mpi.Win, dead []int, origin, want int) (lost bool) {
	if slices.Contains(dead, origin) && want != 0 {
		elems, ok := rt.comm.PendingPSCW(win, origin)
		lost = !ok || elems != want
	}
	rt.comm.DiscardPending(win)
	return lost
}

// discardReplicaWindows drops every deposit still pending against this
// rank's slots of the current replica windows, releasing them before the
// windows are abandoned for a new group.
func (rt *Runtime) discardReplicaWindows() {
	for i := range rt.arrays {
		if win := rt.arrays[i].win; win != nil {
			rt.comm.DiscardPending(win)
		}
	}
}

// createWins registers one replica window per dense array on g. Every member
// of g does so in registration order (identical on every rank), so the k-th
// WinCreate of each member meets on the same window.
func (rt *Runtime) createWins(g *mpi.Group) {
	for i := range rt.arrays {
		if a := &rt.arrays[i]; a.dense != nil {
			a.win = rt.comm.WinCreate(g, nil)
		}
	}
}
