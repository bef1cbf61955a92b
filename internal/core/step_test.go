package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/vclock"
)

// TestWorldGateWakeCounts pins who wakes whom: only a release wakes parked
// ranks, and only quiescence wakes the controller. So a parked rank passes
// its wait loop exactly once per checkpoint, and the controller exactly once
// per waitQuiescent call that found the world running — at most once per
// wave plus the prologue — however the goroutines interleave. The run
// includes an early RankExit and a mid-wave Grow that raises the bar.
func TestWorldGateWakeCounts(t *testing.T) {
	const waves, growAt, exitAfter = 12, 4, 3
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			g := NewWorldGate(8)
			var checkpoints atomic.Int64
			var wg sync.WaitGroup
			var rank func(r, from, to int)
			rank = func(r, from, to int) {
				defer wg.Done()
				defer g.RankExit(r)
				for c := from; c < to; c++ {
					g.Checkpoint(r, c, vclock.Time(c))
					checkpoints.Add(1)
					if r == 0 && c == growAt {
						// Slot 8 stays an exited gap; rank 9 joins this wave.
						g.Grow([]int{9})
						wg.Add(1)
						go rank(9, c+1, waves)
					}
				}
			}
			for r := 0; r < 8; r++ {
				to := waves
				if r == 7 {
					to = exitAfter
				}
				wg.Add(1)
				go rank(r, 0, to)
			}

			released := 0
			for g.HasPendingEvents() {
				g.PeekNextEventTime()
				g.ProcessNextEvent()
				released++
			}
			wg.Wait()

			want := int64(7*waves + exitAfter + waves - growAt - 1)
			if got := checkpoints.Load(); got != want {
				t.Fatalf("checkpoints = %d, want %d", got, want)
			}
			if released != waves {
				t.Errorf("waves = %d, want %d", released, waves)
			}
			g.mu.Lock()
			defer g.mu.Unlock()
			if int64(g.rankWakes) != want {
				t.Errorf("rank wait-loop passes = %d, want one per checkpoint (%d)", g.rankWakes, want)
			}
			if g.ctlWakes != g.ctlBlocks {
				t.Errorf("controller wait-loop passes = %d, want one per blocking waitQuiescent (%d)", g.ctlWakes, g.ctlBlocks)
			}
			if g.ctlWakes > released+1 {
				t.Errorf("controller wait-loop passes = %d, want at most waves+1 (%d)", g.ctlWakes, released+1)
			}
		})
	}
}
