package core

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/drsd"
	"repro/internal/matrix"
	"repro/internal/telemetry"
	"repro/internal/vclock"
)

// commitSlab unpacks one received slab into a's resident window — charging
// the same virtual touches as the per-row formulation (PutRows/UnpackRows
// price every row) — and recycles the slab.
func (rt *Runtime) commitSlab(a *regArray, lo, hi int, payload any) {
	if a.dense != nil {
		slab, ok := payload.(*denseSlab)
		if !ok || slab.rows != hi-lo {
			panic(fmt.Sprintf("core: bad dense redistribution payload for %q", a.name))
		}
		a.dense.PutRows(lo, slab.data)
		putDenseSlab(slab)
	} else {
		slab, ok := payload.(*sparseSlab)
		if !ok || slab.p.Rows() != hi-lo {
			panic(fmt.Sprintf("core: bad sparse redistribution payload for %q", a.name))
		}
		a.sparse.UnpackRows(lo, &slab.p)
		putSparseSlab(slab)
	}
}

// Redistribution payloads travel as contiguous slabs — one allocation per
// (array, transfer) instead of one per row — recycled through process-wide
// free lists. The lists are process-wide because slabs outlive the world that
// made them: a program runs world after world (a study, a sweep, a bench
// repetition), and the next world's first redistribution takes the last
// one's slabs. A list owned by a rank or a world starts empty in every
// world; with such lists (eight slabs per runtime, ownership moving with the
// message) every redistributing bench workload allocated more bytes per
// repetition, +5% (adapt_dense) to +32% (sweep_smoke). They are lists, not
// sync.Pools, so that no garbage collection empties them: which slabs a
// world can reuse does not depend on where a GC landed.
//
// Free-list invariants:
//
//   - Ownership travels with the message: the sender gets a slab, packs it,
//     and Sends it; from that point the slab belongs to the receiver, which
//     puts it back after unpacking — or, for a paired replica, keeps it as
//     the replica until a newer one replaces it or the world finalizes
//     (failure.go). The sender never touches a slab after Send, and nothing
//     else may retain a reference into a slab's backing storage
//     (matrix.Dense.PutRows / Sparse.UnpackRows copy out of the slab
//     precisely so the window never aliases recycled memory). The one
//     exception is a replica window, which names its stage slab as memory
//     and may keep naming it after the slab went back; no Put lands there
//     without a post, and every post follows the attach of a fresh stage.
//   - Slabs are resized with cap-preserving reslices, so steady-state
//     redistribution reaches a fixed point where a get returns buffers big
//     enough to need no growth: a dense array's redistribution allocates
//     nothing (TestRedistributionAllocFree). A sparse
//     array's costs one malloc per rank: Sparse.SetWindow builds a fresh
//     top-level row vector.
//   - All packing/unpacking is host-side batching only. The virtual costs
//     (ChargeTouch amounts and order, AdjustResident deltas, message bytes)
//     replicate the per-row formulation exactly, so golden traces are
//     byte-identical to the unbatched implementation.
var (
	denseSlabs  = slabList[denseSlab]{size: func(s *denseSlab) int { return 8 * cap(s.data) }}
	sparseSlabs = slabList[sparseSlab]{size: func(s *sparseSlab) int {
		return 4*cap(s.p.Starts) + 4*cap(s.p.Cols) + 8*cap(s.p.Vals)
	}}
)

// maxFreeBytes bounds the storage each free list holds; a slab that would
// take a list past it is left to the GC. The bound is on bytes because a
// count cannot see what a list keeps, nor what it turns away: a replicated
// world hands its replica slabs back at Finalize, 256 of them in
// refresh_rma's 64 ranks, and a bound of 64 slabs made every repetition
// allocate most of them afresh. The most any bench workload holds free at
// once is 2.4 MB in 276 slabs (refresh_rma; sweep_smoke 1.2 MB, adapt_dense
// 30 KB, and adapt_sparse 170 KB on the sparse list).
const maxFreeBytes = 4 << 20

// slabList is a process-wide, mutex-guarded LIFO free list of slabs.
type slabList[T any] struct {
	mu    sync.Mutex
	free  []*T
	bytes int          // the storage the free slabs hold
	size  func(*T) int // a slab's storage in bytes
}

// get pops the most recently put slab, or returns a new one.
func (l *slabList[T]) get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.free)
	if n == 0 {
		return new(T)
	}
	s := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	l.bytes -= l.size(s)
	return s
}

func (l *slabList[T]) put(s *T) {
	n := l.size(s)
	l.mu.Lock()
	if l.bytes+n <= maxFreeBytes {
		l.free = append(l.free, s)
		l.bytes += n
	}
	l.mu.Unlock()
}

// denseSlab is one dense transfer's rows, packed back to back. lo is the
// first global row, set only by the replica shippers: a replica payload
// covers [lo, lo+rows), possibly less than the range asked for (a holder
// whose replica does not cover a requested transfer ships the covered
// subrange, possibly empty; the receiver zero-fills the rest as lost).
type denseSlab struct {
	lo, rows int
	data     []float64
}

// sparseSlab is one sparse transfer's rows in batched packed form.
type sparseSlab struct {
	p matrix.PackedRows
}

func getDenseSlab(rows, rowLen int) *denseSlab {
	s := denseSlabs.get()
	s.fit(rows, rowLen)
	return s
}

// fit sizes s for rows rows of rowLen values, keeping its storage when that
// is big enough.
func (s *denseSlab) fit(rows, rowLen int) {
	n := rows * rowLen
	if cap(s.data) < n {
		s.data = make([]float64, n)
	} else {
		s.data = s.data[:n]
	}
	s.rows = rows
}

func putDenseSlab(s *denseSlab) {
	s.rows = 0
	denseSlabs.put(s)
}

func getSparseSlab() *sparseSlab {
	s := sparseSlabs.get()
	s.p.Reset()
	return s
}

func putSparseSlab(s *sparseSlab) {
	sparseSlabs.put(s)
}

// neighbourSlabs is where a rank's per-redistribution lists start: a block
// that shifts trades one slab with each neighbour, two when ghost rows move
// apart from owned ones. Longer lists grow by append.
const neighbourSlabs = 4

// redistOut is one outgoing transfer staged during the extraction phase.
type redistOut struct {
	to    int
	dense *denseSlab
	spars *sparseSlab
	rows  int
	bytes int
}

// redistPass is the bookkeeping one redistribution carries from its start to
// the RedistRecord its end emits.
type redistPass struct {
	newDist              *drsd.Block
	dead                 []int // ranks of the current distribution that died: a failure recovery
	rowsSent             int
	bytesSent, bytesRecv int64
	moves                []telemetry.ArrayMove // per-array send volumes; nil without a sink
	start                vclock.Time
	lost0                int
	stall0               vclock.Duration
}

// beginRedist opens a redistribution to newDist. The replica epoch left
// open by the last refresh settles first, before any row moves or any
// replica is read: on an intact group the replicas commit at their
// pre-redistribution ranges; after a death the close fails and the adoption
// protocol decides, per array, whether the dead predecessor's deposit
// landed in full (rma.go).
func (rt *Runtime) beginRedist(newDist *drsd.Block, dead []int) redistPass {
	if rt.cfg.ReplicaRMA {
		rt.closeReplicaEpoch()
	}
	p := redistPass{newDist: newDist, dead: dead, start: rt.node.Now(), lost0: rt.lostRows, stall0: rt.comm.RecvStall}
	if rt.cfg.Telemetry != nil {
		p.moves = make([]telemetry.ArrayMove, 0, len(rt.arrays))
	}
	return p
}

// sent accounts one outgoing transfer against the pass and its array.
func (p *redistPass) sent(mv *telemetry.ArrayMove, rows, bytes int) {
	mv.Rows += rows
	mv.Bytes += int64(bytes)
	p.rowsSent += rows
	p.bytesSent += int64(bytes)
}

// moved files one array's send volume once its outgoing side is done.
func (p *redistPass) moved(mv telemetry.ArrayMove) {
	if p.moves != nil && (mv.Rows > 0 || mv.Bytes > 0) {
		p.moves = append(p.moves, mv)
	}
}

// endRedist installs the new distribution, synchronises the group and emits
// the redistribution's telemetry record.
func (rt *Runtime) endRedist(p *redistPass) {
	rt.dist = p.newDist
	if err := rt.comm.BarrierErr(rt.group); err != nil {
		rt.absorbDead(rt.deadOf(err))
	}
	if rt.cfg.Telemetry == nil {
		return
	}
	rt.cfg.Telemetry.Emit(telemetry.RedistRecord{
		Base:       rt.stamp(telemetry.KindRedist),
		Arrays:     p.moves,
		RowsSent:   p.rowsSent,
		BytesSent:  p.bytesSent,
		BytesRecv:  p.bytesRecv,
		BytesMoved: p.bytesSent + p.bytesRecv,
		Counts:     p.newDist.Counts(),
		LostRows:   rt.lostRows - p.lost0,
		StartVT:    p.start.Seconds(),
		StallS:     (rt.comm.RecvStall - p.stall0).Seconds(),
		Dead:       p.dead,
	})
}

// scheduleFor derives array a's transfer schedule (§4.4 step 1) into the
// runtime's schedule scratch: every rank of the new distribution fetches the
// rows of its DRSD window it does not hold. An array whose accesses all sit
// at zero offset has its owned range as its window, so for it this one
// schedule is the ownership delta.
func (rt *Runtime) scheduleFor(a *regArray, newDist *drsd.Block) []drsd.Transfer {
	// Every rank of the new distribution fetches at most a gap on each side of
	// what it holds, most often from one old owner each.
	buf := atLeast(rt.schedBuf, 2*len(newDist.Ranks()))
	rt.schedBuf = drsd.ScheduleWindowsInto(buf, rt.dist, newDist, a.accesses)
	return rt.schedBuf
}

// extractAndResize runs §4.4 steps 2–3 for one array: it packs every
// transfer this rank sources into a slab (Phase 1, before the window
// changes) and then resizes the resident window to the new ownership
// (Phase 2; reuses retained rows, the allocation scheme determines the
// cost).
func (rt *Runtime) extractAndResize(a *regArray, sched []drsd.Transfer, newDist *drsd.Block) []redistOut {
	me := rt.comm.Rank()
	olo, ohi := rt.dist.RangeOf(me)
	nlo, nhi := newDist.RangeOf(me)
	wlo, whi := drsd.Window(a.accesses, nlo, nhi, rt.n)
	// Destination multiplicity distinguishes a row's final destination (a
	// move: the row's storage leaves with it) from earlier ones (a copy).
	// Every transfer with From == me covers rows this rank owns under the
	// old distribution, so a flat slice indexed by row offset into [olo,ohi)
	// serves as the map.
	if n := ohi - olo; cap(rt.destBuf) < n {
		rt.destBuf = make([]int, n)
	} else {
		rt.destBuf = rt.destBuf[:n]
	}
	destCount := rt.destBuf
	clear(destCount)
	for _, tr := range sched {
		if tr.From != me {
			continue
		}
		for g := tr.Lo; g < tr.Hi; g++ {
			destCount[g-olo]++
		}
	}
	outs := atLeast(rt.outsBuf, neighbourSlabs)
	for _, tr := range sched {
		if tr.From != me {
			continue
		}
		m := redistOut{to: tr.To, rows: tr.Hi - tr.Lo}
		if a.dense == nil {
			m.spars = getSparseSlab()
			a.sparse.PackRowsTo(&m.spars.p, tr.Lo, tr.Hi)
			m.bytes = m.spars.p.WireBytes()
			outs = append(outs, m)
			continue
		}
		m.dense = getDenseSlab(m.rows, a.dense.RowLen)
		a.dense.CopyRowsTo(m.dense.data, tr.Lo, tr.Hi)
		// Virtual cost per row, identical to the per-row path: a row that
		// stays resident here or still has further destinations was copied
		// out (one RowBytes touch); a leaving row's final destination was a
		// move — free under Projection (the model hands the row over), a
		// charged copy out of the flat block under Contiguous.
		for g := tr.Lo; g < tr.Hi; g++ {
			keep := g >= wlo && g < whi
			destCount[g-olo]--
			if keep || destCount[g-olo] > 0 || a.dense.Scheme() == matrix.Contiguous {
				rt.node.ChargeTouch(a.dense.RowBytes())
			}
		}
		m.bytes = m.rows * int(a.dense.RowBytes())
		outs = append(outs, m)
	}
	rt.outsBuf = outs

	if a.dense != nil {
		a.dense.SetWindow(wlo, whi)
	} else {
		a.sparse.SetWindow(wlo, whi)
	}
	return outs
}

// applyDistribution executes a redistribution to newDist (§4.4): for every
// registered array each node (1) determines ownership from the DRSDs,
// (2) extracts rows that leave it, (3) resizes its resident window —
// deallocating unneeded memory, allocating new, updating pointers for data
// that stays — and (4) exchanges exactly the rows the schedule demands.
// A failure recovery is the same redistribution with the dead ranks of the
// current distribution in dead: their rows cannot ship, so the drain serves
// them from buddy replicas or declares them lost. All active ranks call this
// collectively with identical arguments.
func (rt *Runtime) applyDistribution(newDist *drsd.Block, dead []int) {
	p := rt.beginRedist(newDist, dead)
	for i := range rt.arrays {
		a := &rt.arrays[i]
		sched := rt.scheduleFor(a, newDist)
		outs := rt.extractAndResize(a, sched, newDist)

		// Phase 3: exchange exactly the rows the schedule demands.
		mv := telemetry.ArrayMove{Name: a.name}
		rt.drainArray(a, sched, outs, &mv, &p)
		p.moved(mv)
	}

	rt.endRedist(&p)
	if len(dead) > 0 {
		rt.refreshReplicasNow()
	} else {
		rt.refreshReplicas()
	}
}

// drainArray is the message-passing Phase 3 of one array, a blocking
// exchange: this rank Sends every outgoing slab, then the dead ranks' rows it
// serves as replica holder, then walks the schedule once more and receives
// each transfer addressed to it, in schedule order. Sends are eager and every
// rank ships all of an array's slabs before it receives any of them, so no
// receive waits on a peer's receive; delivery is FIFO per (source, tag) and
// both sides walk the same schedule, so each receive matches its transfer.
// A dead source's rows are served by its replica holder on tagServe, so the
// holder's own slabs and its service never match each other's receives.
func (rt *Runtime) drainArray(a *regArray, sched []drsd.Transfer, outs []redistOut, mv *telemetry.ArrayMove, p *redistPass) {
	me := rt.comm.Rank()
	tag, serve := tagRedist+a.index, tagServe+a.index
	for i := range outs {
		m := &outs[i]
		if m.dense != nil {
			rt.comm.Send(m.to, tag, m.dense, m.bytes)
			m.dense = nil
		} else {
			rt.comm.Send(m.to, tag, m.spars, m.bytes)
			m.spars = nil
		}
		p.sent(mv, m.rows, m.bytes)
	}
	for _, tr := range sched {
		if tr.To == me || !slices.Contains(p.dead, tr.From) {
			continue
		}
		if h, ok := rt.replicaHolder(a, tr.From, p.dead); ok && h == me {
			slab, bytes := rt.serveSlab(a, tr.Lo, tr.Hi)
			p.sent(mv, slab.rows, bytes) // before the Send: the slab is the receiver's after it
			rt.comm.Send(tr.To, serve, slab, bytes)
		}
	}
	for _, tr := range sched {
		if tr.To != me {
			continue
		}
		from, t, served := tr.From, tag, false
		if slices.Contains(p.dead, tr.From) {
			h, ok := rt.replicaHolder(a, tr.From, p.dead)
			switch {
			case !ok:
				rt.loseRows(a, tr.Lo, tr.Hi)
				continue
			case h == me:
				rt.restoreLocal(a, tr.Lo, tr.Hi)
				continue
			}
			from, t, served = h, serve, true
		}
		payload, st, err := rt.comm.RecvErr(from, t)
		if err != nil {
			// The sender died before shipping these rows: record the death
			// and declare the rows lost.
			rt.absorbDead(rt.deadOf(err))
			rt.loseRows(a, tr.Lo, tr.Hi)
			continue
		}
		p.bytesRecv += int64(st.Bytes)
		if served {
			rt.commitServed(a, tr.Lo, tr.Hi, payload)
		} else {
			rt.commitSlab(a, tr.Lo, tr.Hi, payload)
		}
	}
}
