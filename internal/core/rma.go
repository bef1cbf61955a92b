package core

import (
	"slices"

	"repro/internal/drsd"
	"repro/internal/matrix"
	"repro/internal/mpi"
	"repro/internal/telemetry"
	"repro/internal/vclock"
)

// One-sided consumers of the mpi window layer. Every transfer here is a Put
// under a pairwise (post/start/complete/wait) epoch between the two ranks
// that exchange the rows — no transfer synchronises the group, and no rank
// reads another's window.
//
// Two consumers share the discipline:
//
//   - Replica refresh (Config.ReplicaRMA): a ring, one pair per rank and
//     side, with the epoch held open for a whole cycle. The paired
//     send/recv refresh makes every holder stall in a blocking receive for
//     its predecessor's slab; here a rank first *closes* the epoch opened at
//     the previous refresh — a cycle of computation has hidden the wire, so
//     the close settles with (near) zero stall — and then opens the next one
//     by exposing a staging buffer and Putting its own rows into its
//     successor's window. The committed replica (replica.data) is only
//     overwritten when an epoch settles, so a predecessor that dies
//     mid-cycle without depositing leaves the previous commit intact,
//     exactly like the paired path's keep-the-stale-replica behaviour.
//   - Redistribution commit (Config.RedistMode == RedistRMA): the drsd
//     schedule's own (sender, receiver) pairs, opened and settled inside one
//     array's Phase 3 — rmaRedistArray. Rows bound for a rank that just
//     joined travel the same way as any other.
//
// Ordering rules, the same for both:
//
//   - post before start: a rank posts every window it exposes before it
//     starts toward anyone. A start blocks on the target's post, so ranks
//     that started first would wait on each other. The post is also the
//     write barrier: an origin cannot Put until its start consumes it, which
//     follows the owner's attach (and, for a replica, the close-time
//     promotion of the previous stage) in program order.
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
//     per-message CPU nor commit touches — precisely the cost these modes
//     save over the message-passing paths.
//
// The failure rule (unlanded), once for both: a failed wait settles
// nothing. A live origin's rows stay — the wait consumed its completion, so
// its Puts happen-before this point. A dead origin's rows stay iff
// PendingPSCW counts its whole transfer: a crash fires at operation entry,
// so each of its Puts either ran to completion or never started, and its
// goroutine is gone, so nothing can still be writing. Anything else is lost
// (a replica keeps its previous commit; redistributed rows are declared
// with loseRows), and the window's pending deposits are discarded.
//
// Failure observation is pairwise-local: only the dead rank's peers see an
// error. Inside a redistribution the closing barrier reports the death to
// everyone, so what a pair observed may be recorded (absorbDead). Inside a
// replica refresh no collective trails the protocol, so the neighbours must
// not act on it (tolerateDeath) — the next cycle boundary's collective fails
// for everyone and recovery converges there (failure.go). In particular the
// replica windows are rebuilt only when the distribution's membership
// changes, which every member sees at once: a neighbour that rebuilt on its
// own observation would post and start on windows its live peers, still on
// the old ones, never touch.

// repRange is the row range an open replica epoch will commit — the
// predecessor's owned rows, the same for every dense array.
type repRange struct {
	lo, hi int
}

// ReplicaStall reports the cumulative receive-side stall this rank's
// replica refreshes have cost it (paired receives, or epoch settlements
// under ReplicaRMA). The RMA-vs-p2p study and the refresh benchmarks
// compare it across modes.
func (rt *Runtime) ReplicaStall() vclock.Duration { return rt.replicaStall }

// Finish settles any still-open replica epoch. Applications (and the apps
// harness) call it once per rank after the last cycle; without it the
// final epoch's deposits would be left pending on world teardown. Safe to
// call multiple times and when replication or RMA mode is off.
func (rt *Runtime) Finish() {
	if rt.cfg.ReplicaRMA {
		rt.closeReplicaEpoch()
	}
}

// refreshReplicasNow runs one replica refresh in the configured mode,
// accounting the receive-side stall it cost.
func (rt *Runtime) refreshReplicasNow() {
	if rt.cfg.ReplicaRMA {
		rt.closeReplicaEpoch()
		rt.openReplicaEpoch()
		return
	}
	stall0 := rt.comm.RecvStall
	rt.refreshReplicas()
	rt.replicaStall += rt.comm.RecvStall - stall0
}

// openReplicaEpoch exposes this rank's staging buffers and Puts its owned
// rows into its ring successor's windows, leaving the epoch open for the
// next refresh point to close. Every rank of the current distribution
// calls it collectively.
func (rt *Runtime) openReplicaEpoch() {
	if !rt.cfg.Replicate || rt.isOut {
		return
	}
	ranks := rt.dist.Ranks()
	if len(ranks) < 2 {
		rt.dropReplicas()
		return
	}
	me := rt.comm.Rank()
	prev, next, ok := ringNeighbours(ranks, me)
	if !ok {
		return
	}
	stall0 := rt.comm.RecvStall
	defer func() { rt.replicaStall += rt.comm.RecvStall - stall0 }()
	if !slices.Equal(rt.repRanks, ranks) {
		// Membership changed (or first open): discard whatever is pending
		// on the abandoned windows, then register fresh ones on the new
		// group. Registration order is rt.arrays on every member, so the
		// k-th WinCreate of each member meets on the same window.
		rt.discardReplicaWindows()
		rt.createWins(winReplica, rt.comm.World().NewGroup(ranks))
		rt.repRanks = append(rt.repRanks[:0], ranks...)
	}
	rt.repPrev, rt.repNext = prev, next
	plo, phi := rt.dist.RangeOf(rt.repPrev)
	rt.repPend = repRange{lo: plo, hi: phi}
	lo, hi := rt.dist.RangeOf(me)

	// Attach and post every array's window toward the predecessor before
	// starting any (post before start, see the file comment).
	for i := range rt.arrays {
		a := &rt.arrays[i]
		if a.dense == nil {
			continue
		}
		win := a.wins[winReplica]
		rt.comm.WinAttach(win, rt.stageReplica(a, phi-plo))
		rt.comm.WinPost(win, []int{rt.repPrev}, 0)
	}

	// Start toward the successor and Put this rank's slab.
	for i := range rt.arrays {
		a := &rt.arrays[i]
		if a.dense == nil {
			continue
		}
		win := a.wins[winReplica]
		if err := rt.comm.WinStartErr(win, []int{rt.repNext}, nil); err != nil {
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
			rt.comm.Put(win, rt.repNext, 0, slab.data)
			putDenseSlab(slab)
		}
	}
	rt.repOpen = true
}

// stageReplica (re)sizes array a's staging buffer for an incoming deposit
// of `rows` rows, creating the replica record on first use, and returns the
// record — the window memory the deposit lands in.
func (rt *Runtime) stageReplica(a *regArray, rows int) *replica {
	rep := a.replica()
	rep.stage = resized(rep.stage, rows*a.dense.RowLen)
	return rep
}

// closeReplicaEpoch settles the replica epoch left open by the last
// refresh point, promoting each staged deposit to the committed replica.
// No-op when no epoch is open.
func (rt *Runtime) closeReplicaEpoch() {
	if !rt.repOpen {
		return
	}
	rt.repOpen = false
	stall0 := rt.comm.RecvStall
	// Complete toward the successor for every array before waiting on any
	// (complete before wait, see the file comment). A successor recorded dead
	// gets none: the windows are about to be rebuilt without it (the guard is
	// the recorded set, never the wall-clock Alive — see knownDead).
	for i := range rt.arrays {
		a := &rt.arrays[i]
		if a.dense == nil || rt.knownDead(rt.repNext) {
			continue
		}
		rt.comm.WinComplete(a.wins[winReplica])
	}
	// Wait on the predecessor's completion, settling the pair's epoch, and
	// promote the staged deposit — after a failed wait only when the dead
	// predecessor's deposit landed in full.
	for i := range rt.arrays {
		a := &rt.arrays[i]
		if a.dense == nil {
			continue
		}
		win, pend := a.wins[winReplica], rt.repPend
		if err := rt.comm.WinWaitErr(win); err != nil {
			want := (pend.hi - pend.lo) * a.dense.RowLen
			// Not recorded: deadOf without absorbDead is tolerateDeath.
			lost := rt.unlanded(win, rt.deadOf(err), []int{rt.repPrev}, func(int) int { return want })
			if len(lost) > 0 {
				continue
			}
		}
		rt.promoteReplica(a, pend)
	}
	rt.replicaStall += rt.comm.RecvStall - stall0
}

// unlanded applies the one failure rule of the one-sided paths (see the file
// comment) after this rank's WinWaitErr on win failed naming dead: of the
// epoch's origins, each shipping want(origin) elements, it returns those
// whose rows must not be used, then discards the window's pending deposits.
func (rt *Runtime) unlanded(win *mpi.Win, dead, origins []int, want func(origin int) int) (lost []int) {
	for _, o := range origins {
		if !containsInt(dead, o) {
			continue // live: the wait consumed its completion
		}
		if w := want(o); w != 0 {
			if elems, ok := rt.comm.PendingPSCW(win, o); !ok || elems != w {
				lost = append(lost, o)
			}
		}
	}
	rt.comm.DiscardPending(win)
	return lost
}

// promoteReplica commits one settled stage as the array's replica by
// swapping the two buffers: the deposit covers the whole stage, and the next
// open re-sizes and exposes the other one (its post is the write barrier, so
// no Put can land before then). Host-only bookkeeping: the modelled transfer
// already landed one-sided, so no virtual cost is charged (see the file
// comment).
func (rt *Runtime) promoteReplica(a *regArray, pend repRange) {
	rep := a.rep
	n := (pend.hi - pend.lo) * a.dense.RowLen
	rep.data, rep.stage = rep.stage[:n], rep.data
	rep.lo, rep.hi = pend.lo, pend.hi
}

// discardReplicaWindows drops every deposit still pending against this
// rank's slots of the current replica windows, releasing them before the
// windows are abandoned for a new group.
func (rt *Runtime) discardReplicaWindows() {
	for i := range rt.arrays {
		if win := rt.arrays[i].wins[winReplica]; win != nil {
			rt.comm.DiscardPending(win)
		}
	}
}

// --- RedistRMA ------------------------------------------------------------

// denseWinMem exposes a dense array's resident window [wlo,whi) as window
// memory: element offset 0 is row wlo. Rows may be non-contiguous
// (Projection scheme), which is why the window layer takes an interface
// rather than a flat slice. Access is raw — no virtual touches — because
// deposits model one-sided DMA into the exposed rows. Each array keeps one
// (regArray.winMem) and attaches it by pointer: a value would be boxed into
// the WinMem interface, one heap object per attach.
type denseWinMem struct {
	d   *matrix.Dense
	wlo int
}

func (m *denseWinMem) WriteAt(off int, src []float64) {
	rl := m.d.RowLen
	g := m.wlo + off/rl
	for len(src) > 0 {
		copy(m.d.Row(g), src[:rl])
		src = src[rl:]
		g++
	}
}

func (m *denseWinMem) ReadAt(off int, dst []float64) {
	rl := m.d.RowLen
	g := m.wlo + off/rl
	for len(dst) > 0 {
		copy(dst[:rl], m.d.Row(g))
		dst = dst[rl:]
		g++
	}
}

func (m *denseWinMem) Len() int { return (m.d.Hi() - m.d.Lo()) * m.d.RowLen }

// winKind names the one-sided windows the runtime keeps per dense array. They
// stay apart because they expose different memories: the replica window a
// staging buffer, the redistribution window a receiver's resident rows.
type winKind int

const (
	winRedist winKind = iota
	winReplica
)

// createWins registers one window of kind k per dense array on g. Every
// member of g does so in registration order (identical on every rank), so the
// k-th WinCreate of each member meets on the same window.
func (rt *Runtime) createWins(k winKind, g *mpi.Group) {
	for i := range rt.arrays {
		if a := &rt.arrays[i]; a.dense != nil {
			a.wins[k] = rt.comm.WinCreate(g, nil)
		}
	}
}

// redistWin returns array a's redistribution window, creating every array's
// the first time the active group needs them. All active ranks reach it
// collectively (applyDistribution), so creation meets.
func (rt *Runtime) redistWin(a *regArray) *mpi.Win {
	if rt.redistGroup != rt.group {
		rt.redistGroup = rt.group
		rt.createWins(winRedist, rt.group)
	}
	return a.wins[winRedist]
}

// rmaRedistArray runs Phase 3 of one dense array's redistribution through a
// one-sided window, pairwise between the schedule's senders and receivers:
// a receiver exposes its freshly resized resident window (Phase 2 has run)
// and posts to its senders; a sender runs one access epoch per receiver,
// Putting its packed slabs at destination offsets both sides compute from
// the schedule; the receiver's single wait settles the deposits. There is no
// harvest loop and no commit loop, the receiver pays neither per-message CPU
// nor commit touches, and a rank with nothing to send or receive does
// nothing. A dead receiver costs its senders that one epoch; a dead sender
// costs its receivers the rows unlanded says did not land.
func (rt *Runtime) rmaRedistArray(a *regArray, sched []drsd.Transfer, outs []redistOut, mv *telemetry.ArrayMove, p *redistPass) {
	me := rt.comm.Rank()
	win := rt.redistWin(a)
	rl := a.dense.RowLen

	origins := rt.originBuf[:0]
	for _, tr := range sched {
		if tr.To == me && !containsInt(origins, tr.From) {
			origins = append(origins, tr.From)
		}
	}
	rt.originBuf = origins
	if len(origins) > 0 {
		nlo, nhi := p.newDist.RangeOf(me)
		wlo, _ := drsd.Window(a.accesses, nlo, nhi, rt.n)
		a.winMem = denseWinMem{d: a.dense, wlo: wlo}
		rt.comm.WinAttach(win, &a.winMem)
		rt.comm.WinPost(win, origins, 0)
	}

	// outs is in schedule order — by receiver, then row — so one receiver's
	// slabs are adjacent.
	for i := 0; i < len(outs); {
		to := outs[i].to
		err := rt.comm.WinStartErr(win, []int{to}, nil)
		if err != nil {
			// The receiver died before posting; its rows die with it.
			rt.absorbDead(rt.deadOf(err))
		}
		tlo, thi := p.newDist.RangeOf(to)
		twlo, _ := drsd.Window(a.accesses, tlo, thi, rt.n)
		for ; i < len(outs) && outs[i].to == to; i++ {
			m := &outs[i]
			if err == nil {
				rt.comm.Put(win, to, (m.lo-twlo)*rl, m.dense.data)
				p.sent(mv, m.rows, m.bytes)
			}
			putDenseSlab(m.dense)
			m.dense = nil
		}
		if err == nil {
			// A receiver that died after posting is reported by the closing
			// barrier.
			rt.comm.WinComplete(win)
		}
	}

	if len(origins) == 0 {
		return
	}
	var lost []int
	if err := rt.comm.WinWaitErr(win); err != nil {
		dead := rt.deadOf(err)
		rt.absorbDead(dead)
		lost = rt.unlanded(win, dead, origins, func(o int) int {
			n := 0
			for _, tr := range sched {
				if tr.To == me && tr.From == o {
					n += (tr.Hi - tr.Lo) * rl
				}
			}
			return n
		})
	}
	for _, tr := range sched {
		if tr.To != me {
			continue
		}
		if containsInt(lost, tr.From) {
			rt.loseRows(a, tr.Lo, tr.Hi)
		} else {
			p.bytesRecv += int64(tr.Hi-tr.Lo) * a.dense.RowBytes()
		}
	}
}
