package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/telemetry"
	"repro/internal/vclock"
)

// Multi-victim replay: with two or three ranks dying in one run, which
// deaths an error names must not depend on how the goroutines interleave.
// A failure is published only once no live rank can move, so by then every
// victim that dies before blocking has died, and every survivor sees the same
// failed set. Each spec runs twice and the two runs must agree on every
// rank's finish time, record stream and globals.

const (
	replayN      = 40
	replayCycles = 16
	replayPoints = 63 // timed crash instants per victim set
)

// replayVictims are the victim sets both tables kill; -short keeps the first.
var replayVictims = [][]int{{0, 1}, {0, 2}, {0, 2, 3}, {1, 2}, {2, 3}}

func replayVictimSets() [][]int {
	if testing.Short() {
		return replayVictims[:1]
	}
	return replayVictims
}

// replayScenario is a five-rank world whose node 4 carries a competing
// process from cycle 1, so DropAlways removes it while the victims die.
func replayScenario() cluster.Spec { return cpAtCycle(cluster.Uniform(5), 4, 1) }

// replayRun runs one spec under the matrix watchdog and fails the test on a
// hang or an error.
func replayRun(t *testing.T, label string, faults []fault.Fault, cfg Config) map[int]*miniResult {
	t.Helper()
	spec := replayScenario()
	spec.Faults = faults
	results, err, ok := runMiniWatched(t, spec, cfg, replayN, replayCycles, true)
	if !ok || err != nil {
		t.Fatalf("%s: finished %v, err %v", label, ok, err)
	}
	return results
}

// replaySpec runs one spec twice as a subtest: the two runs must agree on
// every rank's globals, finish time and record stream.
func replaySpec(t *testing.T, name string, faults []fault.Fault, cfg Config) {
	t.Helper()
	t.Run(name, func(t *testing.T) {
		a := replayRun(t, "first run", faults, cfg)
		b := replayRun(t, "replay", faults, cfg)
		for r, res := range a {
			if other := b[r]; other != nil && !slices.Equal(res.globals, other.globals) {
				t.Fatalf("rank %d globals differ across runs: %v vs %v", r, res.globals, other.globals)
			}
		}
		sameRecords(t, a, b)
	})
}

// TestMultiVictimCycleCrashReplays kills every victim set at the top of one
// cycle, across the run, under both drop policies and with and without
// replication.
func TestMultiVictimCycleCrashReplays(t *testing.T) {
	for _, victims := range replayVictimSets() {
		for cycle := 3; cycle <= 13; cycle += 2 {
			for _, drop := range []DropPolicy{DropNever, DropAlways} {
				for _, rep := range []bool{false, true} {
					cfg := DefaultConfig()
					cfg.Drop, cfg.Replicate = drop, rep
					var faults []fault.Fault
					for _, v := range victims {
						faults = append(faults, fault.CrashAtCycle(v, cycle))
					}
					replaySpec(t, fmt.Sprintf("victims=%v/cycle=%d/drop=%v/replicate=%v", victims, cycle, drop, rep), faults, cfg)
				}
			}
		}
	}
}

// TestMultiVictimTimedCrashReplays kills every victim set at evenly spaced
// instants from the end of cycle 2 to the end of the run, the victims dying
// together, 1 ns apart or 1 µs apart, each at whichever operation it enters
// next.
func TestMultiVictimTimedCrashReplays(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Drop = DropNever
	ref := replayRun(t, "fault-free", nil, cfg)
	its := only[telemetry.IterationRecord](ref[0].recs)
	if len(its) != replayCycles {
		t.Fatalf("rank 0 reported %d cycles, want %d", len(its), replayCycles)
	}
	t0 := vclock.Time(vclock.FromSeconds(its[1].Time))
	span := ref[0].final.Sub(t0)
	for _, victims := range replayVictimSets() {
		for k := 0; k < replayPoints; k++ {
			at := t0.Add(span * vclock.Duration(k) / (replayPoints - 1))
			for _, gap := range []vclock.Duration{0, vclock.Nanosecond, vclock.Microsecond} {
				var faults []fault.Fault
				for i, v := range victims {
					faults = append(faults, fault.CrashAt(v, at.Add(vclock.Duration(i)*gap)))
				}
				replaySpec(t, fmt.Sprintf("victims=%v/t=%v/gap=%v", victims, at, gap), faults, cfg)
			}
		}
	}
}
