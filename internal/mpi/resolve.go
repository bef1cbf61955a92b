package mpi

import (
	"fmt"
	"strings"
)

// The one liveness rule: a failure is published only when no live rank can
// move. World.live counts the ranks launched and not yet returned, and
// World.asleep the ranks parked at waitErr or waitOp with their wait — a
// posted receive or one group's op — announced on their mailbox. When a park
// or a return makes the counts equal, that rank runs resolve, which decides
// from one snapshot of the waits:
//
//  1. If any wait can already move, it does nothing.
//  2. Otherwise it publishes every failure that involves a dead rank: a
//     pending collective fails once, naming all of its dead members, and a
//     receive from a dead source fails.
//  3. Otherwise, if every wait is a wildcard receive, those receives fail.
//  4. Otherwise the world fails with a *DeadlockError naming each wait.
//
// Crashes fire at operation entry and a dying rank is live until it
// returns, so then no rank can still reach a crash point: the dead set
// depends only on the program and the fault spec. Whoever clears a rank's
// asleep flag uncounts it and hands it its one token under World.mu, so no
// token goes stale and no rank leaves its park while resolve holds the lock.

// DeadlockError reports that every live rank was parked and none could ever
// move. Waits names each parked rank's wait, in rank order (-1 is AnySource
// or AnyTag).
type DeadlockError struct {
	Waits []string
}

func (e *DeadlockError) Error() string {
	return "mpi: deadlock: no live rank can move: " + strings.Join(e.Waits, "; ")
}

// sleep parks rank until it is woken. The caller has announced the rank's
// wait on its mailbox and rechecks it when sleep returns. A parker whose
// wait is ready after it announced itself undoes the announcement, or
// consumes the token of the waker that beat it to the flag.
func (w *World) sleep(rank int) {
	b := &w.boxes[rank]
	w.mu.Lock()
	b.asleep.Store(true)
	w.asleep++
	w.unlockQuiesced()
	if (w.failed.Load() || b.ready()) && b.asleep.CompareAndSwap(true, false) {
		w.mu.Lock()
		w.asleep--
		w.mu.Unlock()
		return
	}
	<-w.wake[rank]
}

// exit uncounts a returning rank.
func (w *World) exit() {
	w.mu.Lock()
	w.live--
	w.unlockQuiesced()
}

// unlockQuiesced releases w.mu, first running resolve if every live rank is
// asleep, and fails the world with the deadlock resolve may find.
func (w *World) unlockQuiesced() {
	var err error
	if w.asleep == w.live && w.live > 0 && !w.failed.Load() {
		err = w.resolve()
	}
	w.mu.Unlock()
	if err != nil {
		w.fail(err)
	}
}

// signal wakes rank if it is asleep.
func (w *World) signal(rank int) {
	w.mu.Lock()
	w.wakeLocked(rank)
	w.mu.Unlock()
}

// wakeLocked wakes rank if it is asleep. Its channel is empty: a rank
// consumes every token it is handed before it parks again. Callers hold w.mu.
func (w *World) wakeLocked(rank int) {
	if w.boxes[rank].asleep.CompareAndSwap(true, false) {
		w.asleep--
		select {
		case w.wake[rank] <- struct{}{}:
		default:
		}
	}
}

// ready reports whether the wait b's owner announced can move: its op has
// published, or its receive was filled or voided (which clears reqWait).
func (b *mailbox) ready() bool {
	if op := b.opWait.Load(); op != nil {
		return op.pub.Load()
	}
	return b.reqWait.Load() == nil
}

// resolve applies the rule of the file comment and returns the
// *DeadlockError of step 4. Callers hold w.mu.
func (w *World) resolve() error {
	asleep, wild := 0, true
	for r := range w.boxes {
		b := &w.boxes[r]
		if !b.asleep.Load() {
			continue
		}
		if b.ready() {
			return nil
		}
		asleep++
		req := b.reqWait.Load()
		wild = wild && req != nil && req.src == AnySource
	}
	if asleep != w.live {
		return nil // a waker has yet to uncount the rank it woke
	}
	// Publish every failure before waking anyone: a woken member could
	// drain and reset an op another member's turn would fail again.
	failing := wild
	for r := range w.boxes {
		b := &w.boxes[r]
		if !b.asleep.Load() {
			continue
		}
		switch op, req := b.opWait.Load(), b.reqWait.Load(); {
		case op != nil:
			failing = op.g.tryFailOp(op) || failing
		case req.src != AnySource:
			if w.dead[req.src].Load() {
				failing = true
				b.reqWait.Store(nil) // waitErr finds the source dead
			}
		case wild: // no rank is left that could send
			b.mu.Lock()
			removePosted(b, req)
			req.stalled = true
			b.reqWait.Store(nil)
			b.mu.Unlock()
		}
	}
	if !failing {
		return w.deadlock()
	}
	for r := range w.boxes {
		if b := &w.boxes[r]; b.asleep.Load() && b.ready() {
			w.wakeLocked(r)
		}
	}
	return nil
}

// deadlock names every asleep rank's wait. Callers hold w.mu.
func (w *World) deadlock() error {
	var waits []string
	for r := range w.boxes {
		b := &w.boxes[r]
		if !b.asleep.Load() {
			continue
		}
		if op := b.opWait.Load(); op != nil {
			waits = append(waits, fmt.Sprintf("rank %d in collective %d over %v", r, op.ready.Load(), op.g.members))
		} else {
			req := b.reqWait.Load()
			waits = append(waits, fmt.Sprintf("rank %d in %s from %d tag %d", r, req.op, req.src, req.tag))
		}
	}
	return &DeadlockError{Waits: waits}
}

// tryFailOp publishes a RankFailedError when a group member is dead, and
// reports whether op is now published. Crashes fire at operation entry, so
// a dead member never deposited into a pending op and never will: the dead
// are exactly the members that will never consume, pre-marked consumed
// here, and members that die after this are adopted by World.Kill's orphan
// walk, so the slot always drains.
func (g *Group) tryFailOp(op *opState) bool {
	op.mu.Lock()
	defer op.mu.Unlock()
	if op.pub.Load() {
		return true
	}
	var dead []int
	for i, m := range g.members {
		if g.w.dead[m].Load() {
			dead = append(dead, m)
			op.consumed[i] = true
		}
	}
	if dead == nil {
		return false
	}
	op.cErr = &RankFailedError{Op: "collective", Ranks: dead}
	op.errLeft = len(g.members) - len(dead)
	op.pub.Store(true)
	return true
}
