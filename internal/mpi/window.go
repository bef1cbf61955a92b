package mpi

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/telemetry"
	"repro/internal/vclock"
)

// One-sided RMA layer: windows, Put, and fence or pairwise epochs.
//
// A Win exposes each group member's slab memory for direct remote access.
// Between two fences (an epoch), any member may Put into any other member's
// window; the owner does not participate per message.
// The fence closes the epoch: it synchronises the group (priced as a
// dissemination barrier, see cost.go) and then settles every deposit that
// landed in the caller's own window during the epoch, in a deterministic
// order.
//
// Virtual-time contract (the one-sided analogue of the request layer's):
//
//   - Put charges the origin exactly what Send charges a sender: the CPU
//     injection cost at post time, with the data arriving wireTime later.
//     The target is not disturbed at all — no matching, no receive-side
//     CPU. This is the modelled saving over paired send/recv: the copy
//     lands by (virtual) DMA into the exposed memory.
//   - Fence advances every member to a common barrier-completion time,
//     then each owner drains its own deposits: residual wire time not
//     already hidden behind the owner's computation is paid as stall
//     (accumulated into Comm.RecvStall) and the hidden remainder is
//     credited to Comm.HiddenWire — the exact arithmetic of a request
//     Wait, validated against per-message Send/Recv simulation by the
//     crosscheck tests.
//
// Failure contract: a fence whose group lost a member returns
// *RankFailedError and settles nothing — no deposit is drained and the
// epoch does not advance, so the call can never hang on a dead peer. The
// owner must then release the window with DiscardPending before abandoning
// it. A Put on a target already marked dead deposits nothing; the death is
// reported at the fence.
//
// General active-target synchronization (PSCW) is the pairwise alternative
// to the fence: WinPost declares which origins may access this rank's
// window, WinStartErr blocks the origin until every named target has
// posted, WinComplete closes the origin's access epoch (notifying each
// target), and WinWaitErr blocks the target until every posted origin has
// completed, then settles their deposits with the exact fence arithmetic.
// Only the participating pairs synchronise — each post and each complete is
// one small control message riding the ordinary mailbox, so an epoch over k
// pairs prices as k round-trips instead of a full-group dissemination
// barrier (see cost.go). Deposits made under an open access epoch are
// marked pscw and are invisible to fences; a window may use either
// discipline, or both for disjoint transfers.
//
// PSCW failure contract, symmetric with FenceErr: a dead target fails the
// origin's WinStartErr, a dead origin fails the target's WinWaitErr, and no
// call can hang (control receives use the bounded-wait failure detection of
// RecvErr). WinComplete cannot fail: it only sends, delivery drops a
// notification to a dead target, and the death surfaces at the origin's
// next wait or barrier that needs the target. A failed wait settles
// nothing; the target may inspect a dead origin's deposits with PendingPSCW
// and must DiscardPending before abandoning the window. Windows of different groups must not run
// overlapping PSCW epochs on a shared rank pair — the same per-communicator
// epoch discipline MPI imposes.
//
// Memory visibility: deposits mutate the target's memory at call time,
// under the target slot's mutex. The owner must not access the exposed
// range while an epoch in which remote ranks deposit is open — the same
// rule as MPI_Win_fence — and may freely access it between an epoch-closing
// fence and the next deposit (the fence's rendezvous atomics carry the
// happens-before edge from every origin's write to the owner's reads).

// FlatMem is memory exposed through a window, in float64 elements.
type FlatMem []float64

// deposit is one one-sided transfer landed in a window slot, recorded at
// the origin's post time and settled by the owner's epoch-closing fence or
// wait. Deposits are stored by value in the slot's pending list, so a
// steady-state epoch — fence or pairwise — performs no heap allocation once
// the list's high-water mark is reached (TestPSCWSteadyStateAllocFree).
type deposit struct {
	originSlot int
	off        int
	elems      int
	bytes      int
	pscw       bool        // made under an open PSCW access epoch; settled by a wait, never by a fence
	post       vclock.Time // origin clock when the transfer was injected
	avail      vclock.Time // when the data has fully arrived
	seq        int64       // per-origin program order, for deterministic ties
	epoch      int64       // fence epoch the transfer belongs to (a wait ignores it)
}

// winSlot is one member's side of a window: its attached memory and the
// deposits pending against it, then the member's own epoch state. mu
// serialises remote deposits with each other and with the owner's drain;
// drain is the owner-only settlement scratch (filled under mu, consumed
// outside it).
type winSlot struct {
	mu    sync.Mutex
	mem   FlatMem
	dep   []deposit
	drain []deposit

	// The rest is written only by the member's own goroutine, unguarded.
	// epoch is its current epoch number and putSeq its program-order
	// deposit counter. Fences advance every member's epoch in lockstep, so
	// an origin's stamp names exactly the epoch the owner will drain —
	// including across the physical race where a fast origin starts the
	// next epoch's Puts while the owner is still settling this one.
	epoch  int64
	putSeq int64

	// PSCW state: access is the open access epoch's target list and expose
	// the open exposure epoch's origin list. No counter: at most one pairwise
	// epoch is in flight per pair (see WinWaitErr).
	access []int
	expose []int
}

// Win is a one-sided access window over each group member's memory. All
// members create it collectively (the k-th WinCreate call of every member
// resolves to the same Win) and advance its epochs together through Fence.
type Win struct {
	g     *Group
	id    int // index within the group's window registry
	slots []winSlot
}

func newWin(g *Group, id int) *Win {
	return &Win{g: g, id: id, slots: make([]winSlot, len(g.members))}
}

// WinCreate registers this rank's memory in a window over g. Like groups,
// windows are canonical per creation order: the k-th call on g by every
// member returns the same Win, which is how SPMD ranks meet on a window
// without naming it. mem may be nil for members that expose nothing (pure
// origins). The window is usable once every member has both created it and
// passed a first Fence — creation itself synchronises nothing.
func (c *Comm) WinCreate(g *Group, mem FlatMem) *Win {
	c.checkFailed()
	slot := c.groupSlot(g)
	k := g.winSeq[slot]
	g.winSeq[slot]++
	g.winMu.Lock()
	for int64(len(g.wins)) <= k {
		g.wins = append(g.wins, newWin(g, len(g.wins)))
	}
	win := g.wins[k]
	g.winMu.Unlock()
	c.WinAttach(win, mem)
	return win
}

// WinAttach replaces this rank's exposed memory. The caller must separate
// the attach from any remote deposit against it with a Fence (the same
// epoch discipline as any other local access to window memory).
func (c *Comm) WinAttach(win *Win, mem FlatMem) {
	slot := c.groupSlot(win.g)
	ts := &win.slots[slot]
	ts.mu.Lock()
	ts.mem = mem
	ts.mu.Unlock()
}

// Put starts a one-sided transfer of src into target's window memory at
// element offset off. It completes at the next Fence: the origin pays the
// injection CPU now, the target pays nothing per message, and the residual
// wire time is settled when the target's fence closes the epoch. src is
// copied at call time, so the caller may reuse it immediately. A Put to a
// target already marked dead deposits nothing; the death surfaces as the
// fence's *RankFailedError.
func (c *Comm) Put(win *Win, target, off int, src []float64) {
	c.enter()
	g := win.g
	tslot, ok := g.Slot(target)
	if !ok {
		panic(fmt.Sprintf("mpi: put to rank %d outside window group", target))
	}
	var faultDelay vclock.Duration
	if c.flt != nil {
		faultDelay = c.messageFault(target)
	}
	net := c.w.cl.Net()
	bytes := F64Bytes(len(src))
	c.node.Compute(cpuCost(net, bytes))
	post := c.node.Now()
	c.SentMsgs++
	c.SentBytes += int64(bytes)
	oslot := c.groupSlot(g)
	os := &win.slots[oslot]
	os.putSeq++
	pscw := len(os.access) > 0
	ts := &win.slots[tslot]
	ts.mu.Lock()
	if c.w.deadCount.Load() > 0 && c.w.dead[target].Load() {
		// The dead slot's pending list was already reclaimed by Kill and no
		// fence will ever drain it; depositing would leak.
		ts.mu.Unlock()
		return
	}
	if ts.mem == nil {
		ts.mu.Unlock()
		panic(fmt.Sprintf("mpi: put into window %d slot of rank %d with no memory attached", win.id, target))
	}
	if len(src) > 0 {
		copy(ts.mem[off:off+len(src)], src)
	}
	ts.dep = append(ts.dep, deposit{
		originSlot: oslot,
		off:        off,
		elems:      len(src),
		bytes:      bytes,
		pscw:       pscw,
		post:       post,
		avail:      post.Add(wireTime(net, bytes) + faultDelay),
		seq:        os.putSeq,
		epoch:      os.epoch,
	})
	ts.mu.Unlock()
}

// Fence closes the window's current epoch, failing the whole world when a
// group member is dead (mirroring the blocking collectives).
func (c *Comm) Fence(win *Win) { c.must(c.FenceErr(win)) }

// FenceErr closes the window's current epoch: it synchronises the group (a
// dissemination barrier), then settles every deposit that landed in the
// caller's own window during the epoch — in (arrival, origin, program
// order) order, so the settlement is deterministic regardless of physical
// scheduling — and opens the next epoch. When a group member is dead it
// returns *RankFailedError without settling anything or advancing the
// epoch; see DiscardPending for the recovery protocol.
func (c *Comm) FenceErr(win *Win) error {
	if _, err := c.rendezvousErr(win.g, nil, nil, &collDesc{kind: opFence}, nil); err != nil {
		return err
	}
	slot := c.groupSlot(win.g)
	ts := &win.slots[slot]
	ep := ts.epoch
	ts.mu.Lock()
	// Pairwise deposits belong to a PSCW epoch and are settled by
	// WinWaitErr, never by a fence.
	drain := extractDeposits(ts, func(d *deposit) bool { return d.epoch == ep && !d.pscw })
	ts.mu.Unlock()
	sortDeposits(drain)
	bytes, stall, hidden := c.settleDeposits(drain)
	ts.drain = drain
	ts.epoch = ep + 1
	if len(drain) > 0 {
		c.emitRMA("fence", win.id, len(drain), bytes, stall, hidden)
	}
	return nil
}

// extractDeposits moves every deposit matching match out of ts.dep into the
// returned slice (backed by ts.drain's array), compacting the rest in place
// and zeroing the dropped tail. A deposit that does not match stays for a
// later settlement — e.g. a faster origin already opened the next epoch, or
// the transfer belongs to the other synchronization discipline. Caller
// holds ts.mu and must store the result back into ts.drain after settling.
func extractDeposits(ts *winSlot, match func(*deposit) bool) []deposit {
	drain := ts.drain[:0]
	keep := ts.dep[:0]
	for i := range ts.dep {
		// In place: a copy's address would escape through the indirect call
		// and cost one heap object per deposit examined. keep never runs
		// ahead of i, so d is read before its slot can be overwritten.
		d := &ts.dep[i]
		if match(d) {
			drain = append(drain, *d)
		} else {
			keep = append(keep, *d)
		}
	}
	// Clear the tail so dropped entries do not linger in the backing array.
	for i := len(keep); i < len(ts.dep); i++ {
		ts.dep[i] = deposit{}
	}
	ts.dep = keep
	return drain
}

// settleDeposits lands one epoch's worth of deposits on the caller's clock,
// with hidden-wire credit and no receive-side CPU (the copy landed by DMA),
// and totals what they cost. Fence and PSCW settlement share it — the
// disciplines differ only in who synchronises, not in what a drained
// deposit costs. The caller must sortDeposits first.
func (c *Comm) settleDeposits(drain []deposit) (bytes int64, stall, hidden vclock.Duration) {
	for i := range drain {
		d := &drain[i]
		s, h := c.land(d.post, d.avail, d.bytes)
		stall += s
		hidden += h
		bytes += int64(d.bytes)
	}
	return bytes, stall, hidden
}

// sortDeposits orders deposits by (arrival, origin slot, per-origin program
// order) — a total, schedule-independent order. Insertion sort: epochs
// settle a handful of deposits, and the sort must not allocate (the fence
// is on the zero-alloc steady-state path).
func sortDeposits(d []deposit) {
	for i := 1; i < len(d); i++ {
		for j := i; j > 0 && depositLess(&d[j], &d[j-1]); j-- {
			d[j], d[j-1] = d[j-1], d[j]
		}
	}
}

func depositLess(a, b *deposit) bool {
	if a.avail != b.avail {
		return a.avail < b.avail
	}
	if a.originSlot != b.originSlot {
		return a.originSlot < b.originSlot
	}
	return a.seq < b.seq
}

// emitRMA emits an RMARecord for a settled epoch through the node's
// telemetry sink, if one is attached.
func (c *Comm) emitRMA(op string, window, deposits int, bytes int64, stall, hidden vclock.Duration) {
	sink, st := c.node.Telemetry()
	if sink == nil {
		return
	}
	sink.Emit(telemetry.RMARecord{
		Base:     st.Stamp(telemetry.KindRMA, -1, c.node.Now().Seconds()),
		Op:       op,
		Window:   window,
		Deposits: deposits,
		Bytes:    bytes,
		StallS:   stall.Seconds(),
		HiddenS:  hidden.Seconds(),
	})
}

// PSCW control messages ride the ordinary mailbox under reserved tags far
// above the runtime's tag space (internal/core reserves 1<<20 and a few
// KiB above it): the post and complete notifications for window w use
// pscwTagBase+2*w.id and pscwTagBase+2*w.id+1. Windows of one group have
// distinct ids, so their control traffic never cross-matches; windows of
// different groups must not run overlapping PSCW epochs on a shared rank
// pair (the header's epoch-discipline rule).
const pscwTagBase = 1 << 26

// pscwCtlBytes is the modelled size of a post or complete notification, as
// if each carried one int64 (a post carries its note, a completion nothing).
// Control messages are priced exactly as ordinary sends and receives of
// this size — that identity is what makes the PSCW closed form in cost.go
// trivially cross-validate against per-message simulation.
const pscwCtlBytes = 8

func (win *Win) pscwPostTag() int { return pscwTagBase + 2*win.id }
func (win *Win) pscwDoneTag() int { return pscwTagBase + 2*win.id + 1 }

// WinPost opens an exposure epoch: it declares that exactly origins may
// access this rank's window until the matching WinWaitErr, and sends each
// a post notification carrying note (delivered to its WinStartErr). The
// runtime passes 0; the parameter stays because the benchmark calls this
// signature, and goes together with WinStart's notes when that code changes.
// The call does not block: posts to dead origins are dropped in delivery
// and the deaths surface at the wait.
func (c *Comm) WinPost(win *Win, origins []int, note int64) {
	c.checkFailed()
	ms := &win.slots[c.groupSlot(win.g)]
	if len(ms.expose) != 0 {
		panic(fmt.Sprintf("mpi: rank %d posting window %d with exposure epoch already open", c.rank, win.id))
	}
	for _, o := range origins {
		if _, ok := win.g.Slot(o); !ok {
			panic(fmt.Sprintf("mpi: post to rank %d outside window group", o))
		}
		if o == c.rank {
			panic("mpi: post to self")
		}
		c.Send(o, win.pscwPostTag(), note, pscwCtlBytes)
	}
	ms.expose = append(ms.expose[:0], origins...)
}

// WinStart opens an access epoch, failing the whole world when a target is
// dead (mirroring the blocking collectives).
func (c *Comm) WinStart(win *Win, targets []int, notes []int64) {
	c.must(c.WinStartErr(win, targets, notes))
}

// WinStartErr opens an access epoch toward targets: it blocks until every
// named target's post notification arrives, then marks the epoch open so
// subsequent Put calls settle pairwise instead of at a fence. When
// notes is non-nil it receives target i's post note at notes[i]. A dead
// target fails the call with *RankFailedError (every remaining target's
// post is still consumed, so no control message is left behind) and the
// epoch does not open.
func (c *Comm) WinStartErr(win *Win, targets []int, notes []int64) error {
	c.checkFailed()
	ms := &win.slots[c.groupSlot(win.g)]
	if len(ms.access) != 0 {
		panic(fmt.Sprintf("mpi: rank %d starting window %d with access epoch already open", c.rank, win.id))
	}
	var dead []int
	for i, t := range targets {
		if _, ok := win.g.Slot(t); !ok {
			panic(fmt.Sprintf("mpi: start toward rank %d outside window group", t))
		}
		if t == c.rank {
			panic("mpi: start toward self")
		}
		p, _, err := c.RecvErr(t, win.pscwPostTag())
		if err != nil {
			var rf *RankFailedError
			if errors.As(err, &rf) {
				dead = append(dead, rf.Ranks...)
				continue
			}
			return err
		}
		if notes != nil {
			notes[i] = p.(int64)
		}
	}
	if dead != nil {
		return &RankFailedError{Op: "win-start", Ranks: dead}
	}
	ms.access = append(ms.access[:0], targets...)
	return nil
}

// WinComplete closes this rank's open access epoch: it notifies every
// target that the epoch's transfers are in flight (one control message
// each). It cannot fail: a dead target's notification is dropped in
// delivery, and the death surfaces at this rank's next wait or barrier that
// needs the target. Every target is sent one, dead or not, so the origin's
// send charge — and its virtual clock — does not depend on when a target
// died.
func (c *Comm) WinComplete(win *Win) {
	c.checkFailed()
	ms := &win.slots[c.groupSlot(win.g)]
	for _, t := range ms.access {
		c.Send(t, win.pscwDoneTag(), nil, pscwCtlBytes)
	}
	ms.access = ms.access[:0]
}

// WinWait closes the exposure epoch, failing the whole world when an
// origin is dead.
func (c *Comm) WinWait(win *Win) { c.must(c.WinWaitErr(win)) }

// WinWaitErr closes this rank's open exposure epoch: it blocks until every
// posted origin's completion notification arrives, then drains and settles
// every pairwise deposit those origins made — in the same deterministic
// (arrival, origin, program order) order as a fence. No epoch stamp is
// needed: an origin's next start toward this rank consumes this rank's next
// post, which goes out only after this wait has drained, so every pairwise
// deposit of a posted origin belongs to the epoch closing. A dead origin
// fails the call with *RankFailedError without settling anything (the
// remaining live origins' notifications are still consumed); see
// PendingPSCW and DiscardPending for the recovery protocol. Either way the
// exposure epoch is closed.
func (c *Comm) WinWaitErr(win *Win) error {
	c.checkFailed()
	slot := c.groupSlot(win.g)
	ts := &win.slots[slot]
	var dead []int
	for _, o := range ts.expose {
		if _, _, err := c.RecvErr(o, win.pscwDoneTag()); err != nil {
			var rf *RankFailedError
			if errors.As(err, &rf) {
				dead = append(dead, rf.Ranks...)
				continue
			}
			ts.expose = ts.expose[:0]
			return err
		}
	}
	if dead != nil {
		ts.expose = ts.expose[:0]
		return &RankFailedError{Op: "win-wait", Ranks: dead}
	}
	ts.mu.Lock()
	drain := extractDeposits(ts, func(d *deposit) bool {
		return d.pscw && slices.Contains(ts.expose, win.g.members[d.originSlot])
	})
	ts.mu.Unlock()
	ts.expose = ts.expose[:0]
	sortDeposits(drain)
	bytes, stall, hidden := c.settleDeposits(drain)
	ts.drain = drain
	if len(drain) > 0 {
		c.emitRMA("pscw", win.id, len(drain), bytes, stall, hidden)
	}
	return nil
}

// PendingPSCW reports the total elements Put into this rank's window slot
// by origin under a PSCW access epoch, and whether any such deposit
// is present. It is meaningful after WinWaitErr returned a
// *RankFailedError naming origin: a crashed rank's Puts completed before
// its death was published (same goroutine), and with the close-then-open
// discipline at most one pairwise epoch is in flight per pair, so an
// epoch-agnostic count answers deterministically whether the dead origin's
// transfer landed in full.
func (c *Comm) PendingPSCW(win *Win, origin int) (elems int, ok bool) {
	oslot, member := win.g.Slot(origin)
	if !member {
		return 0, false
	}
	slot := c.groupSlot(win.g)
	ts := &win.slots[slot]
	ts.mu.Lock()
	for i := range ts.dep {
		if d := &ts.dep[i]; d.originSlot == oslot && d.pscw {
			elems += d.elems
			ok = true
		}
	}
	ts.mu.Unlock()
	return elems, ok
}

// DiscardPending drops every deposit pending against this rank's window
// slot, releasing it after a failed fence (the epoch can no longer settle:
// the group lost a member and the window is being abandoned). Without the
// discard the deposits would count as leaked operations.
func (c *Comm) DiscardPending(win *Win) {
	slot := c.groupSlot(win.g)
	ts := &win.slots[slot]
	ts.mu.Lock()
	for i := range ts.dep {
		ts.dep[i] = deposit{}
	}
	ts.dep = ts.dep[:0]
	ts.mu.Unlock()
}

// dropWindowSlot reclaims the pending deposits of a dead member's window
// slots: only the owner drains a slot, and the owner is gone. Called by
// World.Kill.
func (g *Group) dropWindowSlot(slot int) {
	g.winMu.Lock()
	wins := g.wins
	g.winMu.Unlock()
	for _, win := range wins {
		ts := &win.slots[slot]
		ts.mu.Lock()
		for i := range ts.dep {
			ts.dep[i] = deposit{}
		}
		ts.dep = ts.dep[:0]
		ts.mu.Unlock()
	}
}

// pendingDeposits counts deposits still pending across the group's
// windows, for leak accounting (see World.LeakedOps). A run that closes
// its epochs (or discards them after a failure) leaves zero.
func (g *Group) pendingDeposits() int {
	g.winMu.Lock()
	wins := g.wins
	g.winMu.Unlock()
	n := 0
	for _, win := range wins {
		for i := range win.slots {
			ts := &win.slots[i]
			ts.mu.Lock()
			n += len(ts.dep)
			ts.mu.Unlock()
		}
	}
	return n
}
