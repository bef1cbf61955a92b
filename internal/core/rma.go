package core

import (
	"repro/internal/drsd"
	"repro/internal/matrix"
	"repro/internal/mpi"
	"repro/internal/telemetry"
	"repro/internal/vclock"
)

// One-sided consumers of the mpi window layer.
//
// Replica refresh (Config.ReplicaRMA): the paired-send/recv refresh makes
// every holder stall in a blocking receive for its predecessor's slab. The
// one-sided refresh defers that settlement a full cycle: at each refresh
// point a rank first *closes* the epoch opened at the previous refresh —
// by then an entire cycle of computation has hidden the wire, so the close
// settles with (near) zero stall — and then opens the next epoch by
// exposing a staging buffer and Putting its own rows into its successor's
// window. The committed replica (replica.data) is only overwritten when an
// epoch settles, so a predecessor that dies mid-cycle without depositing
// leaves the previous committed state intact, exactly like the paired
// path's keep-the-stale-replica behaviour.
//
// Epochs synchronise only the (holder, buddy) pairs, with general
// active-target sync: at each open every rank posts its windows to its ring
// predecessor (the origin that will Put into it), starts toward its
// successor, and Puts its slab; at the next close it completes toward the
// successor and waits on the predecessor, settling that pair's epoch with
// two 8-byte control messages — constant in the group size. Ordering rules
// the pairwise protocol needs:
//
//   - open posts every array's window before starting any: a start blocks
//     on the successor's post, so a ring that started first would wait on
//     itself. A rank whose start fails (dead successor) gives up only its
//     access side; its exposures stay open for the predecessor's deposit.
//   - close completes every array before waiting on any: completion
//     notifications must all be out before this rank can abandon in a
//     failed wait, or a live successor would hang in its wait.
//   - failure observation is pairwise-local: only the dead rank's ring
//     neighbours see an error mid-refresh, so they must not act on it
//     (tolerateDeath) — the next cycle boundary's collective fails for
//     everyone and recovery converges there (failure.go). In particular
//     the windows are rebuilt only when the distribution's membership
//     changes, which every member sees at once: a neighbour that rebuilt
//     on its own observation would post and start on windows its live
//     peers, still on the old ones, never touch.
//
// SyncAdaptive runs the same handshake every refresh but lets each holder
// pick, per refresh, between the deferred one-sided Put (wire hidden behind
// the next cycle of computation, one-cycle staleness) and an immediate
// paired send/recv (fresher replica, paid stall) — chosen from its measured
// cycle span against the wire time of its incoming slab. The verdict rides
// in-band as the post notification's note, so both ends of the pair agree
// without a global agreement step (a per-refresh allreduce would cost the
// very butterfly pairwise sync avoids). Clocks differ per rank under
// competing-process load, so the verdict is per-pair by construction, not
// per-group.
//
// Epoch/visibility discipline:
//
//   - open: attach stage, post, start, Put. The owner's post is the write
//     barrier that orders its predecessor's next-epoch Put after the
//     owner's close-time promotion of the previous stage: the predecessor
//     cannot Put until its start consumes the post, which follows the
//     promotion in program order — without it the promotion copy would
//     race a fast predecessor's next Put.
//   - close: complete, wait (settles this rank's deposits), then promote
//     stage to the committed replica. Promotion is host-only bookkeeping:
//     the modelled deposit already landed by one-sided DMA, so no virtual
//     charge is made (the paired path's receive CPU and commit touches are
//     precisely the cost this mode saves).
//   - failure: the wait returns *mpi.RankFailedError and settles nothing.
//     Only a *dead* predecessor's deposit may be adopted (its goroutine is
//     gone, so the stage cannot be concurrently written): PendingPSCW
//     answers deterministically whether its Put landed in full — a crash
//     fires at operation entry, so a Put either ran to completion or never
//     started. A live predecessor's deposit is abandoned (the replica keeps
//     its previous commit), and the windows are discarded and rebuilt on
//     the post-recovery group.
//
// Redistribution (Config.RedistMode == RedistRMA): see rmaRedistArray. A
// grow or rejoin redistribution additionally routes transfers bound for
// resized-in ranks through Get under PSCW — the joiner pulls its slabs
// from the owners instead of the owners pushing them — see
// rmaFetchArray.

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
		// The adaptive verdict compares the computation window between
		// refresh points against the slab wire time, so the span must be
		// measured from the END of the previous refresh to the ENTRY of
		// this one — including the close's settle stall in the span would
		// inflate it by exactly the stall the verdict is trying to avoid,
		// and the verdict could never flip to paired sends.
		rt.repSpan = rt.node.Now().Sub(rt.repMark)
		rt.repSpanOK = rt.repMarked
		rt.closeReplicaEpoch()
		rt.openReplicaEpoch()
		rt.repMark = rt.node.Now()
		rt.repMarked = true
		return
	}
	stall0 := rt.comm.RecvStall
	rt.refreshReplicas()
	rt.replicaStall += rt.comm.RecvStall - stall0
}

// Adaptive-mode verdicts, carried in-band as the post notification's note:
// the holder of the incoming slab decides how its predecessor should ship
// this epoch and the predecessor obeys the note its start returns.
const (
	notePut  int64 = 0 // deferred one-sided Put, settled at the next close
	noteSend int64 = 1 // immediate paired send, committed inside the open
)

// replicaWire prices the wire time of one replica refresh of `rows` rows
// across every dense array — the threshold the adaptive verdict compares
// the measured cycle span against: a span shorter than this cannot hide
// the deferred Put, so the holder asks for an immediate paired slab.
func (rt *Runtime) replicaWire(rows int) vclock.Duration {
	net := rt.comm.World().Cluster().Net()
	var d vclock.Duration
	for i := range rt.arrays {
		a := &rt.arrays[i]
		if a.dense == nil {
			continue
		}
		bytes := float64(rows) * float64(a.dense.RowBytes())
		d += net.Latency + vclock.FromSeconds(bytes/net.BytesPerSec)
	}
	return d
}

// AdaptiveRefreshModes reports how many adaptive refreshes chose the
// deferred Put and how many the immediate paired send. Zero outside
// SyncAdaptive.
func (rt *Runtime) AdaptiveRefreshModes() (put, send int) {
	return rt.adaptPut, rt.adaptSend
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
	if !equalInts(rt.repRanks, ranks) {
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

	// The adaptive verdict is computed first — it rides on every post
	// notification this rank sends its predecessor.
	note := notePut
	if rt.cfg.ReplicaSync == SyncAdaptive {
		if rt.repSpanOK && rt.repSpan < rt.replicaWire(phi-plo) {
			note = noteSend
		}
		if note == noteSend {
			rt.adaptSend++
		} else {
			rt.adaptPut++
		}
	}

	// Loop 1: attach and post every array's window toward the predecessor
	// before starting any — a start blocks on the successor's post, so a
	// ring that started before posting would wait on itself.
	for i := range rt.arrays {
		a := &rt.arrays[i]
		if a.dense == nil {
			continue
		}
		win := a.wins[winReplica]
		rt.comm.WinAttach(win, rt.stageReplica(a, phi-plo))
		// The post is this epoch's write barrier: the predecessor cannot Put
		// until its start consumes it, and it follows this rank's close-time
		// promotion of the previous stage in program order.
		rt.comm.WinPost(win, []int{rt.repPrev}, note)
	}

	// Loop 2: start toward the successor and ship this rank's slab the way
	// the successor's note asks for.
	var peerNote [1]int64
	for i := range rt.arrays {
		a := &rt.arrays[i]
		if a.dense == nil {
			continue
		}
		win := a.wins[winReplica]
		if err := rt.comm.WinStartErr(win, []int{rt.repNext}, peerNote[:]); err != nil {
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
		// Origin-side injection is the same either way — the packing touches
		// a paired sender pays; the saving of a Put is entirely holder-side.
		if peerNote[0] == noteSend {
			// The successor's cycles are too short to hide the wire: ship an
			// immediate paired slab (refreshReplicas wire form); it receives
			// and commits before leaving its own open.
			rt.comm.Send(rt.repNext, tagAdaptive+a.index, rt.packRows(a, lo, hi), 16+(hi-lo)*int(a.dense.RowBytes()))
		} else if hi > lo {
			slab := rt.packRows(a, lo, hi)
			rt.comm.Put(win, rt.repNext, 0, slab.data)
			putDenseSlab(slab)
		}
	}

	rt.repDirect = note == noteSend
	if rt.repDirect {
		// This rank asked its predecessor for immediate paired slabs:
		// receive and commit them now, exactly as the paired refresh would
		// (receive CPU plus commit touches) — the freshness this verdict
		// buys is paid for with the stall the Put path hides.
		for i := range rt.arrays {
			a := &rt.arrays[i]
			if a.dense == nil {
				continue
			}
			p, _, err := rt.comm.RecvErr(rt.repPrev, tagAdaptive+a.index)
			if err != nil {
				// Keep the stale replica; recovery handles the death.
				rt.tolerateDeath(err)
				continue
			}
			rt.storeReplica(a, p)
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
// No-op when no epoch is open. On a failed wait it runs the adoption
// protocol documented at the top of the file.
func (rt *Runtime) closeReplicaEpoch() {
	if !rt.repOpen {
		return
	}
	rt.repOpen = false
	stall0 := rt.comm.RecvStall
	// Loop 1: complete toward the successor for every array before waiting
	// on any — all completion notifications must be out before this rank can
	// block (or abandon) in a wait, or a live successor would hang in its
	// own wait (see the file comment). A successor recorded dead gets none:
	// the windows are about to be rebuilt without it (the guard is the
	// recorded set, never the wall-clock Alive — see knownDead).
	for i := range rt.arrays {
		a := &rt.arrays[i]
		if a.dense == nil || rt.knownDead(rt.repNext) {
			continue
		}
		if err := rt.comm.WinCompleteErr(a.wins[winReplica]); err != nil {
			// The successor died: this rank's deposits are gone with it.
			// Nothing to settle on this side; the wait loop still runs.
			rt.tolerateDeath(err)
		}
	}
	// Loop 2: wait on the predecessor's completion, settling the pair's
	// epoch, and promote the staged deposit.
	for i := range rt.arrays {
		a := &rt.arrays[i]
		if a.dense == nil {
			continue
		}
		win, rep, pend := a.wins[winReplica], a.rep, rt.repPend
		if err := rt.comm.WinWaitErr(win); err != nil {
			rt.tolerateDeath(err)
			// Only a dead predecessor's deposit may be adopted, and only when
			// it landed in full; an adaptive epoch whose slabs arrived paired
			// has already committed (repDirect) and has nothing staged.
			adopt := false
			if !rt.comm.World().Alive(rt.repPrev) && !rt.repDirect {
				want := (pend.hi - pend.lo) * a.dense.RowLen
				elems, ok := rt.comm.PendingPSCW(win, rt.repPrev)
				adopt = want == 0 || (ok && elems == want)
			}
			rt.comm.DiscardPending(win)
			if adopt {
				rt.promoteReplica(a, rep, pend)
			}
			continue
		}
		if !rt.repDirect {
			rt.promoteReplica(a, rep, pend)
		}
	}
	rt.replicaStall += rt.comm.RecvStall - stall0
}

// promoteReplica commits one settled stage as the array's replica by
// swapping the two buffers: the deposit covers the whole stage, and the next
// open re-sizes and exposes the other one (its post is the write barrier, so
// no Put can land before then). Host-only bookkeeping: the modelled transfer
// already landed one-sided, so no virtual cost is charged (see the file
// comment).
func (rt *Runtime) promoteReplica(a *regArray, rep *replica, pend repRange) {
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
// deposits model one-sided DMA into the exposed rows.
type denseWinMem struct {
	d   *matrix.Dense
	wlo int
}

func (m denseWinMem) WriteAt(off int, src []float64) {
	rl := m.d.RowLen
	g := m.wlo + off/rl
	for len(src) > 0 {
		copy(m.d.Row(g), src[:rl])
		src = src[rl:]
		g++
	}
}

func (m denseWinMem) ReadAt(off int, dst []float64) {
	rl := m.d.RowLen
	g := m.wlo + off/rl
	for len(dst) > 0 {
		copy(dst[:rl], m.d.Row(g))
		dst = dst[rl:]
		g++
	}
}

func (m denseWinMem) Len() int { return (m.d.Hi() - m.d.Lo()) * m.d.RowLen }

// winKind names the one-sided windows the runtime keeps per dense array. They
// stay apart because they expose different memories: the replica window a
// staging buffer, the redistribution window a receiver's resident rows for
// Puts, the fetch window a source's packed outgoing slabs for Gets.
type winKind int

const (
	winRedist winKind = iota
	winFetch
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

// groupWin returns array a's redistribution or fetch window, creating that
// kind's windows the first time the active group needs them. All active ranks
// reach it collectively (applyDistribution), so creation meets.
func (rt *Runtime) groupWin(a *regArray, k winKind) *mpi.Win {
	if rt.winGroup[k] != rt.group {
		rt.winGroup[k] = rt.group
		rt.createWins(k, rt.group)
	}
	return a.wins[k]
}

// rmaRedistArray runs Phase 3 of one dense array's redistribution through
// a one-sided window: the receiver exposes its freshly resized resident
// window (Phase 2 has run), an opening fence publishes the attachments,
// senders Put their packed slabs directly at destination offsets both
// sides compute from the schedule, and the closing fence settles the
// deposits — there is no harvest loop and no commit loop, and the receiver
// pays neither per-message CPU nor commit touches.
//
// Returns (committed, down): committed reports whether the array's
// exchange was fully handled here; down reports that a fence failed and
// the remaining arrays must fall back to the message-passing drain. An
// opening-fence failure returns (false, true) with outs untouched — the
// caller re-runs the array through that drain. A closing-fence failure is
// handled in full: a marker exchange restores the ordering the fence
// would have provided, live senders' rows are kept, and a dead sender's
// rows are kept only when PendingFrom proves its Puts landed completely.
func (rt *Runtime) rmaRedistArray(a *regArray, sched []drsd.Transfer, outs []redistOut, mv *telemetry.ArrayMove, p *redistPass) (bool, bool) {
	me := rt.comm.Rank()
	newDist := p.newDist
	win := rt.groupWin(a, winRedist)
	nlo, nhi := newDist.RangeOf(me)
	wlo, _ := drsd.Window(a.accesses, nlo, nhi, rt.n)
	rt.comm.WinAttach(win, denseWinMem{d: a.dense, wlo: wlo})
	if err := rt.comm.FenceErr(win); err != nil {
		rt.absorbDead(rt.deadOf(err))
		rt.winGroup[winRedist] = nil
		return false, true
	}
	for i := range outs {
		m := &outs[i]
		tlo, thi := newDist.RangeOf(m.to)
		twlo, _ := drsd.Window(a.accesses, tlo, thi, rt.n)
		rt.comm.Put(win, m.to, (m.lo-twlo)*a.dense.RowLen, m.dense.data)
		putDenseSlab(m.dense)
		m.dense = nil
		p.sent(mv, m.rows, m.bytes)
	}
	err := rt.comm.FenceErr(win)
	if err == nil {
		for _, tr := range sched {
			if tr.To == me {
				p.bytesRecv += int64(tr.Hi-tr.Lo) * a.dense.RowBytes()
			}
		}
		return true, false
	}
	rt.absorbDead(rt.deadOf(err))

	// Marker exchange: a live sender's marker follows its Puts in program
	// order, so receiving it restores the happens-before edge the failed
	// fence could not provide before this rank touches the landed rows.
	tag := tagRedistSync + a.index
	sentTo := map[int]bool{}
	for _, tr := range sched {
		if tr.From == me && tr.To != me && !sentTo[tr.To] && !rt.knownDead(tr.To) {
			rt.comm.Send(tr.To, tag, nil, 0)
			sentTo[tr.To] = true
		}
	}
	synced := map[int]bool{}  // origin -> marker exchange completed
	decided := map[int]bool{} // origin -> verdict cached in kept
	kept := map[int]bool{}
	for _, tr := range sched {
		if tr.To != me || tr.From == me {
			continue
		}
		if _, seen := synced[tr.From]; !seen {
			_, _, rerr := rt.comm.RecvErr(tr.From, tag)
			if rerr != nil {
				rt.absorbDead(rt.deadOf(rerr))
			}
			synced[tr.From] = rerr == nil
		}
	}
	for _, tr := range sched {
		if tr.To != me {
			continue
		}
		if tr.From == me {
			// This rank's own Put ran to completion by definition.
			p.bytesRecv += int64(tr.Hi-tr.Lo) * a.dense.RowBytes()
			continue
		}
		keep := synced[tr.From]
		if !keep {
			// The origin is dead. Its Puts either all landed before the
			// crash or the tail never ran (a crash fires at operation
			// entry); PendingFrom decides deterministically, and a partial
			// landing conservatively loses every transfer from that origin.
			if !decided[tr.From] {
				want := 0
				for _, t2 := range sched {
					if t2.To == me && t2.From == tr.From {
						want += (t2.Hi - t2.Lo) * a.dense.RowLen
					}
				}
				elems, ok := rt.comm.PendingFrom(win, tr.From)
				kept[tr.From] = ok && elems == want
				decided[tr.From] = true
			}
			keep = kept[tr.From]
		}
		if keep {
			p.bytesRecv += int64(tr.Hi-tr.Lo) * a.dense.RowBytes()
		} else {
			rt.loseRows(a, tr.Lo, tr.Hi)
		}
	}
	rt.comm.DiscardPending(win)
	rt.winGroup[winRedist] = nil
	return true, true
}

// rmaFetchArray moves one dense array's joiner-bound transfers with Get
// under PSCW: each source exposes its packed outgoing slabs (fbuf, laid
// out in schedule order) and posts to the joiners pulling from it; each
// joiner runs one pairwise epoch per source — start, Get each of its rows
// at offsets both sides derive from the same schedule, complete — and the
// source's wait then settles the handshake. Established owners never
// stall in a per-joiner serve loop (the joiner pays the Get landing at
// its completion), and failure isolation is pairwise: a joiner that finds
// a source dead loses exactly that source's rows and keeps pulling from
// the rest. Every group member calls this when the schedule routes any
// transfer to a resized-in rank — the window registration must meet
// collectively — and non-participants return after registering.
func (rt *Runtime) rmaFetchArray(a *regArray, sched []drsd.Transfer, newcomer map[int]bool, fetchOuts []redistOut, fbuf []float64, mv *telemetry.ArrayMove, p *redistPass) {
	me := rt.comm.Rank()
	fwin := rt.groupWin(a, winFetch)
	rl := a.dense.RowLen

	if len(fetchOuts) > 0 {
		// Source: expose the packed slabs, post to the pulling joiners, and
		// wait out their completions. The joiners' Gets read the exposed
		// buffer while this rank sits in the wait, so fbuf must not be
		// touched until the wait returns (the next array's packing reuses
		// it — strictly after this).
		rt.comm.WinAttach(fwin, mpi.FlatMem(fbuf))
		var fetchers []int
		for i := range fetchOuts {
			m := &fetchOuts[i]
			seen := false
			for _, f := range fetchers {
				if f == m.to {
					seen = true
					break
				}
			}
			if !seen {
				fetchers = append(fetchers, m.to)
			}
			p.sent(mv, m.rows, m.bytes)
		}
		rt.comm.WinPost(fwin, fetchers, 0)
		if err := rt.comm.WinWaitErr(fwin); err != nil {
			// A joiner died mid-pull; its pairwise epoch can never settle.
			// Its rows die with it either way — drop the handshake state.
			rt.absorbDead(rt.deadOf(err))
			rt.comm.DiscardPending(fwin)
		}
		return
	}

	if !newcomer[me] {
		return
	}
	// Joiner: pull from each source in one pairwise epoch per source, in
	// schedule order (the same order every rank derives).
	nlo, nhi := p.newDist.RangeOf(me)
	wlo, _ := drsd.Window(a.accesses, nlo, nhi, rt.n)
	type pull struct {
		lo, hi int
		slab   *denseSlab
	}
	var pulls []pull
	started := map[int]bool{}
	for _, tr := range sched {
		if tr.To != me || started[tr.From] {
			continue
		}
		s := tr.From
		started[s] = true
		var note [1]int64
		if err := rt.comm.WinStartErr(fwin, []int{s}, note[:]); err != nil {
			// The source died before posting: its rows cannot be pulled.
			// Pairwise isolation — only this source's transfers are lost.
			rt.absorbDead(rt.deadOf(err))
			for _, t2 := range sched {
				if t2.To == me && t2.From == s {
					rt.loseRows(a, t2.Lo, t2.Hi)
				}
			}
			continue
		}
		pulls = pulls[:0]
		off := 0
		for _, t2 := range sched {
			if t2.From != s || !newcomer[t2.To] {
				continue
			}
			rows := t2.Hi - t2.Lo
			if t2.To == me {
				slab := getDenseSlab(rows, rl)
				rt.comm.Get(fwin, s, off, slab.data)
				pulls = append(pulls, pull{lo: t2.Lo, hi: t2.Hi, slab: slab})
			}
			off += rows * rl
		}
		if err := rt.comm.WinCompleteErr(fwin); err != nil {
			// The source died after posting. The Gets captured their payload
			// at call time, so the rows are good: absorb the death, drop the
			// handshake state the completion could not settle, commit anyway.
			rt.absorbDead(rt.deadOf(err))
			rt.comm.DiscardPending(fwin)
		}
		for _, pl := range pulls {
			// Raw landing into the resident window — one-sided DMA, priced
			// by the Get settlement at completion, exactly like a pushed
			// Put's landing (no per-row commit touches).
			denseWinMem{d: a.dense, wlo: wlo}.WriteAt((pl.lo-wlo)*rl, pl.slab.data)
			p.bytesRecv += int64(pl.hi-pl.lo) * a.dense.RowBytes()
			putDenseSlab(pl.slab)
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
