package core

import (
	"sync"

	"repro/internal/vclock"
)

// Pacer is the runtime's cycle-boundary pacing hook. When Config.Pacer is
// set, every rank calls Checkpoint at the top of each BeginCycle — before
// scenario events materialise and before any adaptation work — and blocks
// there until the pacer releases it. Pacing is pure wall-clock control:
// the virtual clocks, message order, PRNG streams and telemetry of a paced
// run are byte-identical to an unpaced one.
type Pacer interface {
	Checkpoint(rank, cycle int, now vclock.Time)
}

// gateState is one rank's position relative to its world's gate.
type gateState int8

const (
	gateRunning gateState = iota // executing a released cycle (or the pre-cycle prologue)
	gateParked                   // blocked in Checkpoint, waiting for release
	gateExited                   // rank goroutine finished (normal return, failure unwind or crash)
)

// WorldGate turns one goroutine-per-rank world into a vclock.Stepper: it
// implements Pacer on the rank side and the step primitives
// (HasPendingEvents / PeekNextEventTime / ProcessNextEvent) on the
// controller side, which is how a sweep scheduler advances many worlds in
// global virtual-time order from outside.
//
// One "event" is one phase-cycle wave: ranks park at every BeginCycle, and
// ProcessNextEvent releases all parked ranks for exactly one cycle, then
// waits for the world to go quiescent again (every rank re-parked or
// exited). Whole-wave release is what keeps stepping deadlock-free — all
// intra-cycle communication partners are running whenever any of them is —
// while still exposing the world's progress one cycle at a time.
//
// Wiring: set Config.Pacer to the gate, and register RankExit as the
// cluster's rank-exit hook (cluster.SetRankExitHook) so ranks that stop
// checkpointing — normal completion, world failure, injected crashes —
// never wedge the controller.
//
// Who wakes whom: parked ranks wait on rankCond, which only a release
// broadcasts, so a wave wakes each released rank once; the controller waits
// on ctlCond, which a park, exit or grow wakes only when it leaves the
// world quiescent, so a wave wakes the controller once. Once quiescent, the
// world stays so until the controller releases it: no rank is running to
// park, exit or grow.
type WorldGate struct {
	mu       sync.Mutex
	rankCond sync.Cond // L is &mu; broadcast by ProcessNextEvent's release
	ctlCond  sync.Cond // L is &mu; broadcast when parked+exited reaches len(ranks)

	ranks  []gateRank
	parked int
	exited int

	// Wait-loop passes, counted under mu: rankWakes by parked ranks,
	// ctlWakes by the controller, over ctlBlocks waitQuiescent calls that
	// found the world running. The wake test pins them exact.
	rankWakes, ctlWakes, ctlBlocks int
}

// gateRank is one rank's side of the gate.
type gateRank struct {
	state    gateState
	released bool
	time     vclock.Time // park time, valid while parked
}

// NewWorldGate creates a gate for a world of n ranks, all initially
// running (the pre-first-cycle prologue: registration, array fill,
// initial replica exchange).
func NewWorldGate(n int) *WorldGate {
	g := &WorldGate{ranks: make([]gateRank, n)}
	g.rankCond.L, g.ctlCond.L = &g.mu, &g.mu
	return g
}

// Checkpoint implements Pacer: the calling rank parks until the controller
// releases its next cycle.
func (g *WorldGate) Checkpoint(rank, cycle int, now vclock.Time) {
	g.mu.Lock()
	g.ranks[rank].state, g.ranks[rank].time = gateParked, now
	g.parked++
	g.wakeIfQuiescent()
	for !g.ranks[rank].released { // indexed each time: Grow may move the slice
		g.rankCond.Wait()
		g.rankWakes++
	}
	g.ranks[rank].released = false
	g.mu.Unlock()
}

// RankExit records that a rank's goroutine has finished and will never
// checkpoint again. It is called from the mpi run harness via the
// cluster's rank-exit hook, on every exit path.
func (g *WorldGate) RankExit(rank int) {
	g.mu.Lock()
	if g.ranks[rank].state != gateExited {
		g.ranks[rank].state = gateExited
		g.exited++
		g.wakeIfQuiescent()
	}
	g.mu.Unlock()
}

// Grow extends the gate to cover ranks spawned into arrival capacity by an
// elastic resize. Arrival slots below the highest spawned rank that are not
// (yet) spawned are recorded as exited so they can never block quiescence;
// a later Grow that claims them flips them back to running. The runtime's
// grow path calls this (on the root, mid-wave) before World.Spawn, so a
// stepping controller accounts for the joiners from the moment they exist.
func (g *WorldGate) Grow(ranks []int) {
	g.mu.Lock()
	for _, r := range ranks {
		for len(g.ranks) <= r {
			g.ranks = append(g.ranks, gateRank{state: gateExited})
			g.exited++
		}
	}
	for _, r := range ranks {
		if g.ranks[r].state == gateExited {
			g.ranks[r].state = gateRunning
			g.exited--
		}
	}
	g.wakeIfQuiescent()
	g.mu.Unlock()
}

// quiescent reports whether every rank is parked or exited. Callers hold g.mu.
func (g *WorldGate) quiescent() bool { return g.parked+g.exited == len(g.ranks) }

// wakeIfQuiescent wakes the controller when the caller's park, exit or
// grow left the world quiescent. Callers hold g.mu.
func (g *WorldGate) wakeIfQuiescent() {
	if g.quiescent() {
		g.ctlCond.Broadcast() // one controller in practice; Broadcast keeps a second from hanging
	}
}

// waitQuiescent blocks until every rank is parked or exited. Callers hold
// g.mu. The loop re-reads the rank count each pass, so a concurrent Grow (the
// root admitting joiners mid-wave) safely raises the quiescence bar.
func (g *WorldGate) waitQuiescent() {
	if !g.quiescent() {
		g.ctlBlocks++
	}
	for !g.quiescent() {
		g.ctlCond.Wait()
		g.ctlWakes++
	}
}

// HasPendingEvents reports whether any rank will run another cycle. It
// waits for the world to go quiescent first, so a false answer means the
// run has fully completed and its result is available.
func (g *WorldGate) HasPendingEvents() bool {
	g.mu.Lock()
	g.waitQuiescent()
	pending := g.parked > 0
	g.mu.Unlock()
	return pending
}

// PeekNextEventTime reports the virtual time of the world's next event:
// the earliest parked rank's clock. Only valid while HasPendingEvents.
func (g *WorldGate) PeekNextEventTime() vclock.Time {
	g.mu.Lock()
	g.waitQuiescent()
	var min vclock.Time
	first := true
	for _, r := range g.ranks {
		if r.state != gateParked {
			continue
		}
		if first || r.time < min {
			min, first = r.time, false
		}
	}
	g.mu.Unlock()
	return min
}

// ProcessNextEvent releases every parked rank for one phase cycle and
// returns once the world is quiescent again. With no parked ranks it is a
// no-op.
func (g *WorldGate) ProcessNextEvent() {
	g.mu.Lock()
	g.waitQuiescent()
	if g.parked == 0 {
		g.mu.Unlock()
		return
	}
	for r := range g.ranks {
		if g.ranks[r].state == gateParked {
			g.ranks[r].state, g.ranks[r].released = gateRunning, true
			g.parked--
		}
	}
	g.rankCond.Broadcast()
	g.waitQuiescent()
	g.mu.Unlock()
}
