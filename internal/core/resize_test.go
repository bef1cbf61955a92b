package core

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/drsd"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/telemetry"
	"repro/internal/vclock"
)

// runElastic executes the runMini workload on a cluster that may have
// arrival capacity, with an optional explicit Resize request at iteration
// resizeAt (see miniWorld).
func runElastic(t *testing.T, spec cluster.Spec, cfg Config, n, cycles, resizeAt, resizeTo int) map[int]*miniResult {
	t.Helper()
	ring := traceInto(&cfg)
	results, err := miniWorld(spec, cfg, n, cycles, false, resizeAt, resizeTo)
	if err != nil {
		t.Fatal(err)
	}
	withRecords(t, results, ring)
	return results
}

// countResizes counts a rank's resize-grow, resize-join and resize-shrink
// membership records.
func countResizes(res *miniResult) int {
	n := 0
	for _, m := range only[telemetry.MembershipRecord](res.recs) {
		if strings.HasPrefix(m.Change, "resize-") && m.Change != "resize-removed" {
			n++
		}
	}
	return n
}

// TestResizeGrowOnArrival: two capacity nodes arrive at cycle 10 and must
// be admitted automatically — the final distribution spans six ranks, the
// joiners own rows, and every row carries the value an uninterrupted run
// produces (redistribution handed the joiners up-to-date data).
func TestResizeGrowOnArrival(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Drop = DropNever
	spec := cluster.Uniform(4).WithArrival(1.0, 10).WithArrival(1.0, 10)
	results := runElastic(t, spec, cfg, 64, 30, 0, 0)
	checkValuesAndCoverage(t, results, 64)
	if len(results) != 6 {
		t.Fatalf("%d ranks reported, want 6 (4 seed + 2 joiners)", len(results))
	}
	for _, r := range []int{4, 5} {
		res := results[r]
		if res == nil || res.removed {
			t.Fatalf("joiner %d missing or removed: %+v", r, res)
		}
		if res.ownedCnt == 0 {
			t.Fatalf("joiner %d owns no rows", r)
		}
		if countResizes(res) == 0 {
			t.Fatalf("joiner %d reported no resize", r)
		}
	}
	for r, res := range results {
		if len(res.counts) != 6 {
			t.Fatalf("rank %d final distribution %v does not span 6 ranks", r, res.counts)
		}
	}
	if countResizes(results[0]) == 0 {
		t.Fatal("seed rank reported no resize")
	}
}

// TestResizeExplicitGrowClaimsReserves: reserve capacity (AtCycle < 0) is
// claimed only by an explicit Resize call, which every active rank issues
// at the same iteration.
func TestResizeExplicitGrowClaimsReserves(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Drop = DropNever
	spec := cluster.Uniform(4).WithArrival(1.0, -1).WithArrival(1.0, -1)
	// Without a Resize call, reserves stay unclaimed.
	idle := runElastic(t, spec, cfg, 64, 20, 0, 0)
	checkValuesAndCoverage(t, idle, 64)
	if len(idle) != 4 {
		t.Fatalf("reserves were spawned without a Resize call: %d ranks reported", len(idle))
	}
	// With one, both reserves join.
	results := runElastic(t, spec, cfg, 64, 30, 10, 6)
	checkValuesAndCoverage(t, results, 64)
	if len(results) != 6 {
		t.Fatalf("%d ranks reported after Resize(6), want 6", len(results))
	}
	for r, res := range results {
		if res.removed {
			t.Fatalf("rank %d removed after a grow", r)
		}
		if len(res.counts) != 6 {
			t.Fatalf("rank %d final distribution %v does not span 6 ranks", r, res.counts)
		}
	}
}

// TestResizeShrinkReleasesRanks: Resize(4) on a 6-rank world drops the two
// highest ranks. With AllowRejoin on, the released (unloaded!) ranks must
// NOT flap back in — explicit shrinkage is recorded in resizedOut and
// excluded from automatic rejoin.
func TestResizeShrinkReleasesRanks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Drop = DropNever
	cfg.AllowRejoin = true
	results := runElastic(t, cluster.Uniform(6), cfg, 64, 40, 10, 4)
	checkValuesAndCoverage(t, results, 64)
	for _, r := range []int{4, 5} {
		if !results[r].removed {
			t.Fatalf("rank %d not removed by Resize(4) (or flapped back in via rejoin)", r)
		}
	}
	for _, r := range []int{0, 1, 2, 3} {
		res := results[r]
		if res.removed {
			t.Fatalf("rank %d removed by Resize(4), want kept", r)
		}
		if len(res.counts) != 4 {
			t.Fatalf("rank %d final distribution %v does not span 4 ranks", r, res.counts)
		}
	}
	if countResizes(results[0]) == 0 {
		t.Fatal("no resize reported for the shrink")
	}
}

// TestResizeDeterministic: repeated grow runs produce identical finish
// times and record streams on every rank, joiners included.
func TestResizeDeterministic(t *testing.T) {
	runOnce := func() map[int]*miniResult {
		cfg := DefaultConfig()
		cfg.Drop = DropNever
		spec := cluster.Uniform(4).WithArrival(1.0, 10).WithArrival(1.0, 10)
		return runElastic(t, spec, cfg, 64, 30, 0, 0)
	}
	sameRecords(t, runOnce(), runOnce())
}

// TestCrashWhileRemovedPrunesSameCycle is the dead-removed-node satellite:
// a removed node that crashes mid-poll must leave rt.removed on every
// active rank in the detection cycle itself, its mailbox must not keep
// accumulating protocol traffic, and a surviving removed node must still be
// able to rejoin later.
func TestCrashWhileRemovedPrunesSameCycle(t *testing.T) {
	results := runCrashWhileRemoved(t)
	// Rank 1 (crashed while removed) never reports.
	if _, ok := results[1]; ok {
		t.Fatal("crashed removed rank reported a result")
	}
	// Every survivor pruned it: final distributions span exactly the three
	// remaining ranks (0, 2 rejoined, 3).
	for r, res := range results {
		if res.removed {
			t.Fatalf("rank %d still removed at the end", r)
		}
		if len(res.counts) != 3 {
			t.Fatalf("rank %d final distribution %v, want 3 members", r, res.counts)
		}
	}
	// The prune happened in the cycle the crash was detected, on every
	// rank: all failure-drop records carry the same cycle.
	failCycle := -1
	for r, res := range results {
		for _, m := range only[telemetry.MembershipRecord](res.recs) {
			if m.Change != "failure-drop" {
				continue
			}
			if fmt.Sprint(m.Left) != "[1]" {
				t.Fatalf("rank %d pruned %v, want [1]", r, m.Left)
			}
			if failCycle == -1 {
				failCycle = m.Cycle
			} else if m.Cycle != failCycle {
				t.Fatalf("rank %d pruned the corpse at cycle %d, others at %d", r, m.Cycle, failCycle)
			}
		}
	}
	if failCycle == -1 {
		t.Fatal("no failure-drop reported for the crashed removed node")
	}
	// The surviving removed node rejoined after the corpse was pruned.
	if got := changesOf(results[2]); got != "removed rejoined" {
		t.Fatalf("surviving removed node's membership changes %q, want removed then rejoined", got)
	}
}

// runCrashWhileRemoved: 4 ranks; CPs land on ranks 1 and 2 at cycle 3 (both
// dropped), rank 1 crashes at cycle 12 while removed, rank 2's CP leaves at
// cycle 20 so it rejoins.
func runCrashWhileRemoved(t *testing.T) map[int]*miniResult {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Drop = DropAlways
	cfg.AllowRejoin = true
	spec := cluster.Uniform(4).
		With(cluster.CycleEvent(1, 3, +1)).
		With(cluster.CycleEvent(2, 3, +1)).
		With(cluster.CycleEvent(2, 20, -1))
	spec.Faults = append(spec.Faults, fault.CrashAtCycle(1, 12))
	return runMini(t, spec, cfg, 64, 45, false)
}

// TestCrashWhileRemovedDeterministic: the crash-while-removed scenario
// produces byte-identical traces across runs — the protocol's send charges
// must not depend on whether the corpse's crash goroutine has fired yet
// (the reason dead-guards key on the absorbed dead set, not wall-clock
// liveness).
func TestCrashWhileRemovedDeterministic(t *testing.T) {
	sameRecords(t, runCrashWhileRemoved(t), runCrashWhileRemoved(t))
}

// uniformCost charges every row iterCost.
func uniformCost(int) vclock.Duration { return iterCost }

// runReshape is runElastic with an arbitrary sequence of Resize steps:
// steps[cycle] = target, and row g costing cost(g). Every active rank issues
// the same requests at the same iterations, as the SPMD discipline requires.
// A world that has not finished after ten seconds is reported as hung: a
// membership disagreement parks ranks in collectives nobody else joins.
func runReshape(t *testing.T, spec cluster.Spec, cfg Config, n, cycles int, steps map[int]int, cost func(g int) vclock.Duration) map[int]*miniResult {
	t.Helper()
	ring := traceInto(&cfg)
	var mu sync.Mutex
	results := map[int]*miniResult{}
	body := func(c *mpi.Comm) error {
		rt := New(c, cfg)
		x := rt.RegisterDense("X", n, 4)
		ph := rt.InitPhase(n)
		ph.AddAccess("X", drsd.ReadWrite, 1, 0)
		rt.Commit()
		start := 0
		if rt.Joined() {
			start = rt.Cycle()
		} else {
			x.Fill(func(g, j int) float64 { return float64(g * 10) })
		}

		res := &miniResult{rank: c.Rank()}
		for tstep := start; tstep < cycles; tstep++ {
			if to, ok := steps[tstep]; ok && rt.Participating() {
				rt.Resize(to)
			}
			if rt.BeginCycle() {
				lo, hi := ph.Bounds()
				for g := lo; g < hi; g++ {
					row := x.Row(g)
					for j := range row {
						row[j]++
					}
					rt.ComputeIter(g, cost(g))
				}
			}
			rt.EndCycle()
		}
		rt.Finish()
		rt.Finalize()

		res.redists = rt.Redistributions()
		res.removed = !rt.Participating()
		res.final = c.Now()
		res.relRank = rt.RelRank()
		if rt.Participating() {
			res.counts = rt.Dist().Counts()
			lo, hi := ph.Bounds()
			res.ownedOK = true
			res.ownedCnt = hi - lo
			for g := lo; g < hi; g++ {
				for j := 0; j < 4; j++ {
					if x.Row(g)[j] != float64(g*10+cycles) {
						res.ownedOK = false
					}
				}
			}
		}
		mu.Lock()
		results[c.Rank()] = res
		mu.Unlock()
		return nil
	}
	done := make(chan error, 1)
	go func() { done <- mpi.Run(cluster.New(spec), body) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the world hung")
	}
	withRecords(t, results, ring)
	return results
}

// reshapeCfgs are the configurations the multi-step reshape suites sweep:
// the default message-passing paths, the same with automatic rejoin on (the
// ranks a Resize released must stay out on every member, joiners included),
// and the full one-sided configuration (RMA redistribution with joiner fetch,
// PSCW replica refresh).
func reshapeCfgs() map[string]Config {
	base := DefaultConfig()
	base.Drop = DropNever
	rejoin := base
	rejoin.AllowRejoin = true
	rma := DefaultConfig()
	rma.Drop = DropNever
	rma.RedistMode = RedistRMA
	rma.Replicate = true
	rma.ReplicaEvery = 1
	rma.ReplicaRMA = true
	return map[string]Config{"default": base, "rejoin": rejoin, "rma-pscw": rma}
}

// TestReshapeGrowThenShrink runs both reshape directions in one run: the
// world grows 4→6 by claiming reserves, then shrinks back 6→4. Values must
// stay bit-exact against a dedicated run through both transitions — the
// diff schedule moves rows out to the joiners and back again.
func TestReshapeGrowThenShrink(t *testing.T) {
	for name, cfg := range reshapeCfgs() {
		spec := cluster.Uniform(4).WithArrival(1.0, -1).WithArrival(1.0, -1)
		results := runReshape(t, spec, cfg, 64, 30, map[int]int{8: 6, 18: 4}, uniformCost)
		checkValuesAndCoverage(t, results, 64)
		if len(results) != 6 {
			t.Fatalf("%s: %d ranks reported, want 6 (4 seed + 2 reserves)", name, len(results))
		}
		for _, r := range []int{4, 5} {
			if !results[r].removed {
				t.Fatalf("%s: reserve %d still active after the shrink", name, r)
			}
		}
		for _, r := range []int{0, 1, 2, 3} {
			res := results[r]
			if res.removed {
				t.Fatalf("%s: seed rank %d removed", name, r)
			}
			if len(res.counts) != 4 {
				t.Fatalf("%s: rank %d final distribution %v does not span 4 ranks", name, r, res.counts)
			}
			if res.redists < 2 {
				t.Fatalf("%s: rank %d saw %d redistributions, want ≥ 2", name, r, res.redists)
			}
		}
	}
}

// TestReshapeShrinkThenGrow is the reverse order in one run: 4→3, then
// 3→5 by claiming reserves — the grow after a shrink ships the joiners
// their rows while the distribution still records the shrink.
func TestReshapeShrinkThenGrow(t *testing.T) {
	for name, cfg := range reshapeCfgs() {
		spec := cluster.Uniform(4).WithArrival(1.0, -1).WithArrival(1.0, -1)
		results := runReshape(t, spec, cfg, 64, 30, map[int]int{8: 3, 18: 5}, uniformCost)
		checkValuesAndCoverage(t, results, 64)
		if len(results) != 6 {
			t.Fatalf("%s: %d ranks reported, want 6", name, len(results))
		}
		if !results[3].removed {
			t.Fatalf("%s: rank 3 still active after Resize(3)", name)
		}
		for _, r := range []int{4, 5} {
			res := results[r]
			if res == nil || res.removed {
				t.Fatalf("%s: reserve %d missing or removed after Resize(5)", name, r)
			}
			if res.ownedCnt == 0 {
				t.Fatalf("%s: joiner %d owns no rows", name, r)
			}
		}
		for _, r := range []int{0, 1, 2} {
			if len(results[r].counts) != 5 {
				t.Fatalf("%s: rank %d final distribution %v does not span 5 ranks", name, r, results[r].counts)
			}
		}
	}
}

// TestReshapeDeterministic: the one-sided multi-step reshape must be
// schedule-independent — identical finish times and record streams across
// repeated runs, joiners included.
func TestReshapeDeterministic(t *testing.T) {
	cfg := reshapeCfgs()["rma-pscw"]
	run := func() map[int]*miniResult {
		spec := cluster.Uniform(4).WithArrival(1.0, -1).WithArrival(1.0, -1)
		return runReshape(t, spec, cfg, 64, 30, map[int]int{8: 6, 18: 4}, uniformCost)
	}
	sameRecords(t, run(), run())
}

// sameFinalCounts fails unless every participating rank ended on the same
// distribution, and returns it.
func sameFinalCounts(t *testing.T, results map[int]*miniResult) []int {
	t.Helper()
	var counts []int
	for r, res := range results {
		if res.removed {
			continue
		}
		if counts == nil {
			counts = res.counts
		}
		if !reflect.DeepEqual(res.counts, counts) {
			t.Fatalf("rank %d ended on distribution %v, another rank on %v", r, res.counts, counts)
		}
	}
	return counts
}

// TestReshapeJoinerPartitionsByMeasuredCosts: rows cost ∝ 1+g and a load
// change has made every member measure them, then the world grows 4→6 and
// shrinks 6→5. The shrink is partitioned by each member alone, so a joiner
// that was not handed the measured costs cuts the rows by unit costs, disagrees
// with the incumbents on who owns what, and the world parks forever.
func TestReshapeJoinerPartitionsByMeasuredCosts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Drop = DropNever
	spec := cluster.Uniform(4).WithArrival(1.0, -1).WithArrival(1.0, -1).With(cluster.CycleEvent(1, 3, +1))
	cost := func(g int) vclock.Duration { return iterCost * vclock.Duration(1+g) / 8 }
	results := runReshape(t, spec, cfg, 64, 40, map[int]int{20: 6, 28: 5}, cost)
	checkValuesAndCoverage(t, results, 64)
	if counts := sameFinalCounts(t, results); len(counts) != 5 {
		t.Fatalf("final distribution %v does not span 5 ranks", counts)
	}
	if results[4].removed || !results[5].removed {
		t.Fatalf("after Resize(5): joiner 4 removed=%v, joiner 5 removed=%v", results[4].removed, results[5].removed)
	}
}

// TestReshapeRejoinAcrossGrow: rank 3 is dropped, the world claims reserve 4
// while it is out, and it rejoins. The claim ledger must reach it with the
// rejoin verdict: the next grow claims a reserve on every member alone, and a
// rank on the ledger of the day it left claims rank 4 a second time.
func TestReshapeRejoinAcrossGrow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Drop = DropAlways
	cfg.AllowRejoin = true
	spec := cluster.Uniform(4).WithArrival(1.0, -1).WithArrival(1.0, -1).WithArrival(1.0, -1).
		With(cluster.CycleEvent(3, 2, +1)).With(cluster.CycleEvent(3, 18, -1))
	results := runReshape(t, spec, cfg, 64, 40, map[int]int{12: 4, 30: 6}, uniformCost)
	checkValuesAndCoverage(t, results, 64)
	if len(results) != 6 {
		t.Fatalf("%d ranks reported, want 6 (4 seed + 2 of 3 reserves)", len(results))
	}
	for r, res := range results {
		if res.removed {
			t.Fatalf("rank %d removed at the end", r)
		}
	}
	if counts := sameFinalCounts(t, results); len(counts) != 6 {
		t.Fatalf("final distribution %v does not span 6 ranks", counts)
	}
}

// TestReshapeJoinerHonoursMaxRedists: the redistribution cap is spent — one
// load-driven redistribution, one admission — before a second load change. A
// joiner that counts only the redistributions it took part in still has
// budget, opens a grace period the incumbents do not, and its decision
// collectives cross their load exchanges.
func TestReshapeJoinerHonoursMaxRedists(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Drop = DropNever
	cfg.MaxRedists = 2
	spec := cluster.Uniform(4).WithArrival(1.0, 14).
		With(cluster.CycleEvent(1, 2, +1)).With(cluster.CycleEvent(2, 22, +1))
	results := runReshape(t, spec, cfg, 64, 40, nil, uniformCost)
	checkValuesAndCoverage(t, results, 64)
	if len(results) != 5 {
		t.Fatalf("%d ranks reported, want 5", len(results))
	}
	for r, res := range results {
		if res.redists != cfg.MaxRedists {
			t.Errorf("rank %d reports %d redistributions, the world made %d", r, res.redists, cfg.MaxRedists)
		}
		for _, d := range only[telemetry.DecisionRecord](res.recs) {
			if d.Cycle >= 14 {
				t.Errorf("rank %d decided at cycle %d, after the cap was spent", r, d.Cycle)
			}
		}
	}
}

// TestArrivalSurvivesFailedLoadExchange: rank 2 dies at the top of cycle 10,
// the cycle two nodes arrive at, so that cycle's load exchange fails and its
// adaptation step never runs. The arrivals are admitted at the next cycle
// instead of being lost: the three survivors and both joiners finish, and the
// five own every row.
func TestArrivalSurvivesFailedLoadExchange(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Drop = DropNever
	spec := cluster.Uniform(4).WithArrival(1.0, 10).WithArrival(1.0, 10)
	spec.Faults = []fault.Fault{fault.CrashAtCycle(2, 10)}
	results := runElastic(t, spec, cfg, 64, 30, 0, 0)
	if len(results) != 5 || results[4] == nil || results[5] == nil {
		t.Fatalf("%d ranks finished, want the 3 survivors and both joiners", len(results))
	}
	if got := changesOf(results[0]); got != "failure-drop resize-grow" {
		t.Fatalf("rank 0's membership changes %q, want the failure, then the grow", got)
	}
	owned := 0
	for _, res := range results {
		owned += res.ownedCnt
	}
	if owned != 64 {
		t.Fatalf("the survivors own %d of 64 rows", owned)
	}
}
