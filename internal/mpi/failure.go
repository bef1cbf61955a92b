package mpi

import (
	"errors"
	"fmt"

	"repro/internal/fault"
	"repro/internal/telemetry"
	"repro/internal/vclock"
)

// errCrashed is the panic value that unwinds a rank killed by an injected
// crash fault. Unlike errFailed it does not fail the world: the surviving
// ranks keep running and see the death at the next operation that needs it.
var errCrashed = errors.New("mpi: rank crashed")

// RankFailedError reports that an operation could not complete because one
// or more peer ranks are dead. Ranks is sorted and never empty. For a
// collective it is every member dead at the quiescent point the failure was
// published at (see resolve.go), and so the same on every run.
type RankFailedError struct {
	Op    string // "recv", "irecv", "waitall", "collective", "win-start" or "win-wait"
	Ranks []int
}

func (e *RankFailedError) Error() string {
	return fmt.Sprintf("mpi: %s failed: dead rank(s) %v", e.Op, e.Ranks)
}

// Kill marks rank as dead. It is idempotent and wakes no one: a receive
// from the dead rank that starts later fails at once, and one already
// parked, like a collective, fails once no live rank can move (see
// resolve.go). For every group the dead rank belongs to, Kill also adopts
// the rank's unconsumed error results: a member that dies after a
// collective failure was published was counted as a live consumer, and
// without adoption its share would pin the rendezvous slot forever (the
// opResult leak of the pre-sharding engine).
func (w *World) Kill(rank int) {
	if w.dead[rank].Swap(true) {
		return
	}
	w.deadCount.Add(1)
	// The dead rank's own posted receives are orphans: no Wait will ever
	// drain them. Reclaim them here so they do not count as leaked
	// operations; live ranks' requests on the dead peer stay posted and
	// end in a RankFailedError at their Wait. Queued envelopes are purged
	// for the same reason — nothing will ever receive them — and deliver
	// drops any that arrive later, so a corpse's mailbox stays empty instead
	// of accreting protocol pings forever.
	db := &w.boxes[rank]
	db.mu.Lock()
	db.queue, db.posted = nil, nil
	db.mu.Unlock()
	w.groups.Lock()
	groups := append([]*Group(nil), w.groups.list...)
	w.groups.Unlock()
	for _, g := range groups {
		if slot, ok := g.Slot(rank); ok {
			g.adoptOrphans(slot)
			// Deposits targeting the dead rank's window slots will never be
			// fence-drained (only the owner drains its slot); drop them so
			// they do not count as leaked. Deposits *from* the dead rank in
			// live owners' slots stay — the owner inspects them through
			// PendingFrom after its fence fails, then discards.
			g.dropWindowSlot(slot)
		}
	}
}

// DeadRanks returns the sorted list of crashed ranks.
func (w *World) DeadRanks() []int {
	var out []int
	for i := range w.dead {
		if w.dead[i].Load() {
			out = append(out, i)
		}
	}
	return out
}

// InjectCycleFaults fires the node faults scheduled for the given phase
// cycle on this rank, then any time-triggered faults that have come due.
// The runtime calls it once at the top of every cycle, from the rank's own
// goroutine — the injection point that makes cycle-triggered crashes
// deterministic. A crash fault does not return.
func (c *Comm) InjectCycleFaults(cycle int) {
	if c.flt == nil {
		return
	}
	for _, f := range c.flt.AtCycle(cycle) {
		c.applyNodeFault(f, cycle)
	}
	c.pollFaults()
}

// pollFaults fires any time-triggered node faults that have come due at the
// rank's current virtual time. Called at every communication operation
// entry, so a timed crash lands at the first op at or after its deadline.
func (c *Comm) pollFaults() {
	for {
		f, ok := c.flt.TimedDue(c.node.Now())
		if !ok {
			return
		}
		c.applyNodeFault(f, -1)
	}
}

// applyNodeFault executes a crash or stall on this rank. Crash marks the
// rank dead, emits telemetry, and unwinds the goroutine with errCrashed
// (recovered silently by Run). Neither fault advances any other rank's
// clock directly, preserving determinism.
func (c *Comm) applyNodeFault(f fault.Fault, cycle int) {
	switch f.Kind {
	case fault.Stall:
		c.emitFailure("stall", cycle, f.Dur, -1)
		c.node.WaitUntil(c.node.Now().Add(f.Dur))
	case fault.Crash:
		c.emitFailure("crash", cycle, 0, -1)
		c.w.Kill(c.rank)
		panic(errCrashed)
	}
}

// messageFault consults the rank's per-link fault rules for a send to dst
// and returns the extra delivery delay (drop = modelled retransmission,
// delay = added latency). The link's send counter advances exactly once per
// send, so rule windows are deterministic.
func (c *Comm) messageFault(dst int) vclock.Duration {
	kind, extra, hit := c.flt.MessageFault(dst)
	if !hit {
		return 0
	}
	switch kind {
	case fault.Drop:
		c.emitFailure("drop", -1, extra, dst)
	case fault.Delay:
		c.emitFailure("delay", -1, extra, dst)
	}
	return extra
}

// emitFailure emits a FailureRecord through the node's telemetry sink, if
// one is attached.
func (c *Comm) emitFailure(kind string, cycle int, d vclock.Duration, target int) {
	sink, st := c.node.Telemetry()
	if sink == nil {
		return
	}
	sink.Emit(telemetry.FailureRecord{
		Base:   st.Stamp(telemetry.KindFailure, cycle, c.node.Now().Seconds()),
		Fault:  kind,
		Target: target,
		DelayS: d.Seconds(),
	})
}
