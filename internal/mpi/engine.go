package mpi

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/vclock"
)

// This file is the sharded collective engine. The former implementation
// funnelled every collective through one Group mutex: deposits serialised on
// it, completion was announced with cond.Broadcast wakeups that made every
// member re-acquire the lock to poll a map, and the last arriver performed
// the whole O(n·len) element-wise reduction while all other ranks blocked.
//
// The engine replaces that with a ring of per-op rendezvous slots:
//
//   - Deposits are lock-free. Each member writes its own contribution slot
//     and publishes it with one atomic (the arrival counter), so concurrent
//     deposits never contend on a mutex. Vector contributions travel
//     through a typed [][]float64 array, so the hot reductions never box a
//     slice through an interface.
//   - The last arriver publishes every op. The element-wise allreduce folds
//     the contributions in slot order, so the floating-point association —
//     and therefore every result bit — is independent of physical arrival
//     order. Every []float64 result is a recycled vector that each member
//     copies into its own buffer before releasing the op.
//   - Completion is published by flipping one atomic flag. Members waiting
//     for it spin briefly (yielding the processor), which resolves almost
//     every rendezvous without a single scheduler park; a member that
//     exhausts its spin budget parks on its rank's capacity-1 wake channel
//     (World.wake), and the publisher wakes members only when someone
//     actually parked. No mutex is ever taken on a spin-resolved success.
//
// Waiters never look for dead members: an op a dead member never deposited
// into is failed by resolve, once no live rank can move (see resolve.go).

// opRing is the number of in-flight rendezvous slots per group. A member
// depositing into op seq proves op seq-2 has fully drained (it consumed
// seq-1, so every member deposited seq-1, so every member had consumed
// seq-2), hence a ring of 4 leaves a whole spare generation; the ready
// generation gate below turns the residual scheduling race (a resetter
// descheduled between the final consumption and the reset) into a bounded
// spin instead of a correctness hazard.
const opRing = 4

const opRingMask = opRing - 1

// waitSpinRounds bounds the yield-and-recheck spins a member performs
// waiting for publication before it parks on its wake channel. Collectives
// between compute phases publish within a round or two of yields, so the
// common case never touches the scheduler's park/unpark machinery.
const waitSpinRounds = 8

type opKind uint8

// rop identifies well-known reduction operators so the fold loop can run
// direct arithmetic instead of calling through a function pointer — on the
// element-wise hot path the indirect call is the dominant cost.
const (
	ropCustom uint8 = iota
	ropSum
	ropMax
)

// foldInto reduces v into out element-wise, in place.
func foldInto(out, v []float64, rop uint8, rfn func(x, y float64) float64) {
	v = v[:len(out)]
	switch rop {
	case ropSum:
		for i := range out {
			out[i] += v[i]
		}
	case ropMax:
		for i := range out {
			if v[i] > out[i] {
				out[i] = v[i]
			}
		}
	default:
		for i := range out {
			out[i] = rfn(out[i], v[i])
		}
	}
}

const (
	opBarrier opKind = iota
	opBcast
	opAllreduce
	opAllgather
	opAllgatherF64
	opGather
	opFence
	opKinds // count sentinel
)

// kindNames and kindAlgorithms label the collective shapes for telemetry
// and stats (the algorithm is the cost-model tree, see cost.go).
var kindNames = [opKinds]string{
	"barrier", "bcast", "allreduce", "allgather", "allgather-f64", "gather",
	"fence",
}

var kindAlgorithms = [opKinds]string{
	"dissemination", "binomial-tree", "recursive-doubling",
	"recursive-doubling", "recursive-doubling", "binomial-gather",
	"dissemination",
}

// collDesc describes one collective invocation. Every member passes an
// identical descriptor (the SPMD contract), so whichever member publishes
// the result can price and build it.
type collDesc struct {
	kind     opKind
	bytes    int // per-member payload wire size
	rootSlot int // bcast/gather root, as a group slot
	rfn      func(a, b float64) float64
	rop      uint8 // well-known operator fast path (ropSum/ropMax)
}

// opState is one collective rendezvous slot. The success path is lock-free:
// members deposit with writes to their own slot entries published by one
// atomic, the last arriver writes the result fields and flips pub, and every
// consumer releases the slot with one atomic decrement. op.mu guards only the
// rare failure path (dead-member error publication, orphan adoption, leak
// accounting).
type opState struct {
	g *Group // the group whose ring holds the slot

	// ready names the op sequence number this slot currently serves.
	// Deposits for seq spin until ready == seq; the spin is almost never
	// taken, because the slot was necessarily drained two ops ago.
	ready atomic.Int64

	times       []vclock.Time // per-slot deposit time (owner-written)
	bytes       []int         // per-slot offered payload bytes (owner-written)
	contribs    []any         // per-slot boxed contribution (owner-written)
	contribsF64 [][]float64   // per-slot vector contribution (owner-written)

	// depSeq[s] records the op generation member s last deposited into, as
	// seq+1 (so the zero value means "never"). "Deposited this op" is
	// depSeq[s] == ready+1, which makes the deposit marker self-resetting:
	// recycling the slot never has to clear n per-slot flags.
	depSeq  []atomic.Int64
	arrived atomic.Int32 // deposit count; the n-th depositor publishes

	// Result fields, valid once pub is true (pub is flipped with release
	// semantics after they are written).
	pub     atomic.Bool
	value   any
	finish  vclock.Time
	cpuEach vclock.Duration
	cErr    error // dead-member failure; nil on success

	// vec is the []float64 result. It belongs to the slot and is grown in
	// place: every consumer copies it into its dst before releasing the op,
	// and resetOp only reslices it, so a slot's next vector op reuses the
	// array. Empty for the boxed results.
	vec []float64

	left atomic.Int32 // successful-op consumptions outstanding

	// parked counts members parked on op. The publisher wakes members only
	// when it is non-zero, so spin-resolved rendezvous (the common case)
	// perform no channel operations at all.
	parked atomic.Int32

	mu       sync.Mutex
	consumed []bool // error-path consumption accounting (under mu)
	errLeft  int    // live members yet to consume the error (under mu)
}

// Group is a subset of world ranks that participates in collectives
// together. All members must call each collective in the same order.
type Group struct {
	w       *World
	members []int   // world ranks
	slot    []int32 // world rank -> index in members plus one; 0: not a member

	// The ring slots live in the group and each per-member field of theirs is
	// one array cut in opRing pieces: a group costs the same few allocations
	// at any size.
	seq  []int64 // per-slot local op counter (written only by the owner)
	ring [opRing]opState

	// One-sided windows registered on this group (see window.go). winSeq[s]
	// counts member s's WinCreate calls and is written only by that member's
	// goroutine; the k-th call of every member resolves to wins[k], which is
	// what lets SPMD ranks meet on the same window without naming it.
	winMu  sync.Mutex
	wins   []*Win
	winSeq []int64

	stats collStats
}

// collStats counts completed collectives per shape. bytes accumulates the
// payload offered across all members (bytes-per-member × ranks × ops).
type collStats struct {
	count [opKinds]atomic.Int64
	bytes [opKinds]atomic.Int64
}

// CollectiveShape summarises the completed collectives of one kind on a
// group, in cost-model terms.
type CollectiveShape struct {
	Op        string // "barrier", "bcast", "allreduce", ...
	Algorithm string // modelled tree: "binomial-tree", "recursive-doubling", ...
	Ranks     int    // group size
	Steps     int    // modelled tree depth ceil(log2 ranks)
	Count     int64  // completed operations
	Bytes     int64  // payload bytes offered across members and ops
}

// CollectiveStats returns per-shape counters of the collectives completed
// on this group so far, ordered by kind. Failed (dead-member) collectives
// never completed and are not counted.
func (g *Group) CollectiveStats() []CollectiveShape {
	out := make([]CollectiveShape, 0, int(opKinds))
	for k := opKind(0); k < opKinds; k++ {
		out = append(out, CollectiveShape{
			Op:        kindNames[k],
			Algorithm: kindAlgorithms[k],
			Ranks:     len(g.members),
			Steps:     treeSteps(len(g.members)),
			Count:     g.stats.count[k].Load(),
			Bytes:     g.stats.bytes[k].Load(),
		})
	}
	return out
}

func (g *Group) noteOp(kind opKind, bytes int) {
	g.stats.count[kind].Add(1)
	g.stats.bytes[kind].Add(int64(bytes) * int64(len(g.members)))
}

// NewGroup returns the collective group over the given world ranks. Groups
// are canonical: every rank asking for the same member list receives the
// *same* Group object, which is what lets SPMD ranks rebuild a group after
// a membership change and still meet in its collectives.
func (w *World) NewGroup(members []int) *Group {
	if len(members) == 0 {
		panic("mpi: empty group")
	}
	// The canonical key is built in a stack buffer and only becomes a heap
	// string when a new group is registered: every rank asks for its group
	// again at every membership change and replica-window rebuild.
	var stack [128]byte
	key := stack[:0]
	for _, m := range members {
		key = append(strconv.AppendInt(key, int64(m), 10), ' ')
	}
	w.groups.Lock()
	if w.groups.byKey == nil {
		w.groups.byKey = make(map[string]*Group)
	}
	if g, ok := w.groups.byKey[string(key)]; ok {
		w.groups.Unlock()
		return g
	}
	w.groups.Unlock()
	n := len(members)
	g := &Group{w: w, members: append([]int(nil), members...), slot: make([]int32, w.cap)}
	counters := make([]int64, 2*n)
	g.seq, g.winSeq = counters[:n:n], counters[n:]
	for i, m := range members { // a rank outside the world's capacity panics on the index
		if g.slot[m] != 0 {
			panic(fmt.Sprintf("mpi: duplicate rank %d in group", m))
		}
		g.slot[m] = int32(i + 1)
	}
	times := make([]vclock.Time, opRing*n)
	bytes := make([]int, opRing*n)
	contribs := make([]any, opRing*n)
	contribsF64 := make([][]float64, opRing*n)
	depSeq := make([]atomic.Int64, opRing*n)
	consumed := make([]bool, opRing*n)
	for i := range g.ring {
		op := &g.ring[i]
		op.g = g
		lo, hi := i*n, (i+1)*n
		op.times, op.bytes = times[lo:hi:hi], bytes[lo:hi:hi]
		op.contribs, op.contribsF64 = contribs[lo:hi:hi], contribsF64[lo:hi:hi]
		op.depSeq, op.consumed = depSeq[lo:hi:hi], consumed[lo:hi:hi]
		op.left.Store(int32(n))
		op.ready.Store(int64(i))
	}
	w.groups.Lock()
	if prior, ok := w.groups.byKey[string(key)]; ok {
		// Another rank registered the same group concurrently; use theirs.
		w.groups.Unlock()
		return prior
	}
	w.groups.byKey[string(key)] = g
	w.groups.list = append(w.groups.list, g)
	w.groups.Unlock()
	return g
}

// AllGroup returns the group containing every world rank.
func (w *World) AllGroup() *Group { return w.all }

// Size reports the number of group members.
func (g *Group) Size() int { return len(g.members) }

// Slot reports rank's index within the group and whether it is a member.
func (g *Group) Slot(rank int) (int, bool) {
	if uint(rank) >= uint(len(g.slot)) {
		return 0, false
	}
	return int(g.slot[rank]) - 1, g.slot[rank] != 0
}

// resultVec sizes op's result vector to n, reusing the slot's array when
// it is large enough, and returns it: steady-state vector collectives
// allocate nothing.
func resultVec(op *opState, n int) []float64 {
	if cap(op.vec) < n {
		op.vec = make([]float64, n)
	}
	op.vec = op.vec[:n]
	return op.vec
}

// maxTime returns the latest of ts.
func maxTime(ts []vclock.Time) vclock.Time {
	m := ts[0]
	for _, t := range ts[1:] {
		if t > m {
			m = t
		}
	}
	return m
}

// opBytes returns the payload size the op is priced at: the largest
// contribution any member deposited. Collectives with asymmetric
// per-member payloads (an allgather of uneven chunks after a skewed
// redistribution) would otherwise be priced by whichever member happened
// to publish — the last *physical* arriver — making virtual time depend on
// goroutine scheduling. Every member has deposited by publication time (the
// last arriver publishes), so the maximum is well-defined and deterministic.
// For the symmetric collectives it equals every member's own desc.bytes.
func opBytes(op *opState) int {
	m := op.bytes[0]
	for _, b := range op.bytes[1:] {
		if b > m {
			m = b
		}
	}
	return m
}

// groupSlot resolves this rank's slot in g, caching the last group so the
// steady state (one group used every cycle) skips the map lookup.
func (c *Comm) groupSlot(g *Group) int {
	if g == c.lastGroup {
		return c.lastSlot
	}
	slot, ok := g.Slot(c.rank)
	if !ok {
		panic(fmt.Sprintf("mpi: rank %d not in group", c.rank))
	}
	c.lastGroup, c.lastSlot = g, slot
	return slot
}

// rendezvousErr is the failure-aware collective core. Every member deposits
// a contribution (vec for the typed float64 collectives, contrib for boxed
// payloads); the last arriver publishes the result; everyone leaves with the
// result, its clock advanced to the completion time plus the per-member CPU
// charge.
//
// A []float64 result leaves only one way: copied into dst *before the op is
// released*, so the result vector is recycled the moment the last member
// leaves without racing a slow reader. A dst shorter than the result fails
// the run rather than truncating it.
//
// When a group member is dead and has not deposited, every surviving member
// leaves with a *RankFailedError naming every member dead at the quiescent
// point resolve published it at, at its own deposit time and with no clock
// advance — the collective never completed, so it charges nothing. A member
// cannot die *inside* an op: injected crashes fire at operation entry,
// before the deposit, which is the invariant that lets successful ops drain
// without any reclamation logic.
func (c *Comm) rendezvousErr(g *Group, contrib any, vec []float64, desc *collDesc, dst []float64) (any, error) {
	c.checkFailed()
	if c.flt != nil {
		c.pollFaults()
	}
	slot := c.groupSlot(g)
	seq := g.seq[slot]
	g.seq[slot]++

	op := &g.ring[seq&opRingMask]
	// Generation gate: wait until the slot's previous tenant has drained.
	// Steady state never spins (the previous op drained two generations
	// ago); the loop exists for the rare descheduled-resetter window and
	// for error-path drains that complete out of band.
	for op.ready.Load() != seq {
		if c.w.failed.Load() {
			panic(errFailed)
		}
		runtime.Gosched()
	}

	op.times[slot] = c.node.Now()
	op.bytes[slot] = desc.bytes
	if vec != nil {
		op.contribsF64[slot] = vec
	} else if contrib != nil {
		op.contribs[slot] = contrib
	}
	op.depSeq[slot].Store(seq + 1)

	if int(op.arrived.Add(1)) == len(g.members) {
		c.publish(g, op, desc)
	}

	if !op.pub.Load() {
		c.waitOp(op)
	}

	if err := op.cErr; err != nil {
		op.mu.Lock()
		if !op.consumed[slot] {
			op.consumed[slot] = true
			op.errLeft--
			if op.errLeft == 0 {
				g.resetOp(op)
			}
		}
		op.mu.Unlock()
		return nil, err
	}

	value := op.value
	finish, cpuEach := op.finish, op.cpuEach
	if dst != nil {
		// Copy-out before release: after the final decrement the vector may
		// be recycled, so no reference escapes past this point.
		res := op.vec
		if len(dst) < len(res) {
			panic(fmt.Sprintf("mpi: %s destination has length %d, want %d", kindNames[desc.kind], len(dst), len(res)))
		}
		copy(dst, res)
	}
	if desc.kind == opGather && slot != desc.rootSlot {
		value = nil // non-root members receive nothing from a gather
	}
	if op.left.Add(-1) == 0 {
		op.mu.Lock()
		g.resetOp(op)
		op.mu.Unlock()
	}

	c.node.WaitUntil(finish)
	if cpuEach > 0 {
		c.node.Compute(cpuEach)
	}
	return value, nil
}

// waitOp blocks this member until the op publishes (success or error). It
// first spins with scheduler yields — collectives between compute phases
// publish within a round or two, so the common case costs no park/unpark —
// and only then parks on its rank's wake channel, announcing op as its wait
// and itself through op.parked so the publisher knows to wake members.
// Waiters are also woken by a world failure, and by resolve when it fails
// the op. A wake meant for an earlier park just re-runs the checks.
func (c *Comm) waitOp(op *opState) {
	w := c.w
	for i := 0; i < waitSpinRounds; i++ {
		if w.failed.Load() {
			panic(errFailed)
		}
		runtime.Gosched()
		if op.pub.Load() {
			return
		}
	}
	b := &w.boxes[c.rank]
	b.opWait.Store(op)
	op.parked.Add(1)
	// Announce-then-recheck pairs with the publisher's publish-then-check:
	// either the publisher sees parked > 0 and wakes this rank, or sleep's
	// recheck sees pub — a parked member can never miss the publication.
	for !op.pub.Load() && !w.failed.Load() {
		w.sleep(c.rank)
	}
	op.parked.Add(-1)
	b.opWait.Store(nil)
	if !op.pub.Load() {
		panic(errFailed)
	}
}

// publish assembles and prices the result, installs it in op's result
// fields (only the publisher touches them before pub flips), flips pub and
// wakes any member that parked. The last arriver runs it outside any lock —
// all contributions are in and immutable — and a panicking assembly (bad
// payload shapes) fails the world rather than deadlocking it. Spin-waiting
// members observe pub directly, so when no one parked (the common case)
// publication costs one atomic store beyond the assembly.
func (c *Comm) publish(g *Group, op *opState, desc *collDesc) {
	defer func() {
		if r := recover(); r != nil {
			c.w.fail(fmt.Errorf("rank %d: collective reduction: %v", c.rank, r))
			panic(errFailed)
		}
	}()
	n := len(g.members)
	net := g.w.cl.Net()
	bytes := opBytes(op) // deterministic pricing: see opBytes
	var cost collCost
	switch desc.kind {
	case opBarrier, opFence:
		// The fence's synchronisation component is exactly a dissemination
		// barrier; the deposit settlement (stall + landing CPU) is charged by
		// each owner on its own clock after the rendezvous (see window.go).
		cost = barrierCost(net, n)
	case opBcast:
		cost = bcastCost(net, n, bytes)
		if p := op.contribs[desc.rootSlot]; p != nil {
			op.value = p
		} else {
			// BcastF64sInto: the root's own buffer is only stable until the
			// root leaves the collective, but members may copy out later.
			src := op.contribsF64[desc.rootSlot]
			copy(resultVec(op, len(src)), src)
		}
	case opAllreduce:
		// Fold in slot order: the association, and so every result bit, is
		// the same whatever order the members arrived in.
		first := op.contribsF64[0]
		out := resultVec(op, len(first))
		copy(out, first)
		for _, v := range op.contribsF64[1:] {
			if len(v) != len(out) {
				panic("mpi: allreduce length mismatch")
			}
			foldInto(out, v, desc.rop, desc.rfn)
		}
		cost = allreduceCost(net, n, bytes)
	case opAllgather:
		op.value = append([]any(nil), op.contribs...)
		cost = allgatherCost(net, n, bytes)
	case opAllgatherF64:
		out := resultVec(op, n)
		for i := range out {
			out[i] = op.contribsF64[i][0]
		}
		cost = allgatherCost(net, n, bytes)
	case opGather:
		op.value = append([]any(nil), op.contribs...)
		cost = gatherCost(net, n, bytes)
	}
	op.finish = maxTime(op.times).Add(cost.wire)
	op.cpuEach = cost.cpuEach
	g.noteOp(desc.kind, bytes)
	op.pub.Store(true)
	if op.parked.Load() > 0 {
		w := g.w
		w.mu.Lock()
		for _, m := range g.members {
			if w.boxes[m].opWait.Load() == op {
				w.wakeLocked(m)
			}
		}
		w.mu.Unlock()
	}
}

// resetOp recycles the slot for its next op generation. Callers hold op.mu
// (the success path's final consumer takes it uncontended; the error drain
// and the orphan walk already hold it). The ready bump is the release store
// that lets the next generation's depositors through the gate.
func (g *Group) resetOp(op *opState) {
	op.vec = op.vec[:0]
	if op.cErr != nil {
		op.cErr = nil
		clear(op.consumed) // only the error path marks consumption
		op.errLeft = 0
	}
	op.value = nil
	op.finish = 0
	op.cpuEach = 0
	clear(op.contribs) // release payload references for the GC
	clear(op.contribsF64)
	// depSeq deliberately stays: the deposit markers are generation-stamped,
	// so recycling costs O(1) atomics instead of O(n) clears.
	op.arrived.Store(0)
	op.left.Store(int32(len(g.members)))
	op.pub.Store(false)
	op.ready.Store(op.ready.Load() + opRing)
}

// adoptOrphans credits the dead rank's unconsumed error results across the
// group's ring, reclaiming ops that would otherwise leak: a member that
// dies after an error was published (and was therefore counted as a live
// consumer) can no longer consume its share. Called by World.Kill.
func (g *Group) adoptOrphans(slot int) {
	for i := range g.ring {
		op := &g.ring[i]
		op.mu.Lock()
		if op.pub.Load() && op.cErr != nil && !op.consumed[slot] {
			op.consumed[slot] = true
			op.errLeft--
			if op.errLeft == 0 {
				g.resetOp(op)
			}
		}
		op.mu.Unlock()
	}
}

// leakedOps counts ring slots still holding an undrained op: a deposit or
// published result some member never released.
func (g *Group) leakedOps() int {
	n := 0
	for i := range g.ring {
		op := &g.ring[i]
		op.mu.Lock()
		dirty := op.pub.Load()
		if !dirty {
			gen := op.ready.Load() + 1
			for i := range op.depSeq {
				if op.depSeq[i].Load() == gen {
					dirty = true
					break
				}
			}
		}
		op.mu.Unlock()
		if dirty {
			n++
		}
	}
	return n
}

// LeakedOps reports the number of collective rendezvous slots left
// undrained across all groups, plus the number of nonblocking receive
// requests still posted in a mailbox, plus the number of one-sided
// deposits never settled by a fence (see window.go). After a Run that completes without
// failing the world this is zero — even when ranks crashed mid-collective
// or mid-Wait — which the failure tests assert; a non-zero count means some
// op's bookkeeping was orphaned (the bug class the adoption walk and the
// Kill posted-list reclaim eliminate).
func (w *World) LeakedOps() int {
	total := 0
	w.groups.Lock()
	for _, g := range w.groups.list {
		total += g.leakedOps()
		total += g.pendingDeposits()
	}
	w.groups.Unlock()
	for i := range w.boxes {
		b := &w.boxes[i]
		b.mu.Lock()
		total += len(b.posted)
		b.mu.Unlock()
	}
	return total
}
