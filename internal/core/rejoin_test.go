package core

import (
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/drsd"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/telemetry"
)

// rejoinSpec builds the canonical churn scenario: a CP lands on `node` at
// cycle `on` and leaves at cycle `off`.
func rejoinSpec(n, node, on, off int) cluster.Spec {
	return cluster.Uniform(n).
		With(cluster.CycleEvent(node, on, +1)).
		With(cluster.CycleEvent(node, off, -1))
}

func TestRejoinAfterLoadVanishes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Drop = DropAlways
	cfg.AllowRejoin = true
	// Node 2 is loaded between cycles 3 and 25: it gets dropped, then its
	// CP exits and it must be re-added with a fair share of the data.
	spec := rejoinSpec(4, 2, 3, 25)
	results := runMini(t, spec, cfg, 64, 60, false)
	checkValuesAndCoverage(t, results, 64)
	res2 := results[2]
	if res2.removed {
		t.Fatal("node 2 still removed at the end; rejoin did not happen")
	}
	if got := changesOf(res2); got != "removed rejoined" {
		t.Fatalf("membership changes %q, want removed then rejoined", got)
	}
	// After rejoin, the node must own a non-trivial share again.
	if res2.ownedCnt < 8 {
		t.Fatalf("rejoined node owns only %d rows", res2.ownedCnt)
	}
	// All survivors agree on the final 4-node distribution.
	for r, res := range results {
		if len(res.counts) != 4 {
			t.Fatalf("rank %d final distribution %v does not include the rejoined node", r, res.counts)
		}
	}
}

func TestRejoinPreservesValuesWithGlobals(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Drop = DropAlways
	cfg.AllowRejoin = true
	spec := rejoinSpec(3, 1, 2, 20)
	results := runMini(t, spec, cfg, 30, 45, true)
	checkValuesAndCoverage(t, results, 30)
	// Global reductions must have stayed consistent across removal and
	// rejoin on every rank.
	g0 := results[0].globals
	for r := 1; r < 3; r++ {
		g := results[r].globals
		if len(g) != len(g0) {
			t.Fatalf("rank %d saw %d globals, rank 0 saw %d", r, len(g), len(g0))
		}
		for i := range g {
			if g[i] != g0[i] {
				t.Fatalf("global %d differs: rank %d saw %v, rank 0 saw %v", i, r, g[i], g0[i])
			}
		}
	}
}

func TestRejoinDisabledKeepsNodeOut(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Drop = DropAlways
	cfg.AllowRejoin = false
	spec := rejoinSpec(4, 2, 3, 25)
	results := runMini(t, spec, cfg, 64, 60, false)
	checkValuesAndCoverage(t, results, 64)
	if !results[2].removed {
		t.Fatal("without AllowRejoin the dropped node must stay removed")
	}
}

// TestRejoinRootIsDroppedAndRejoins: a CP on rank 0, the send-out root,
// drops it like any other loaded node, and once the CP leaves the root is
// polled by its successor and readmitted. The run is the same on every repeat.
func TestRejoinRootIsDroppedAndRejoins(t *testing.T) {
	runOnce := func() map[int]*miniResult {
		cfg := DefaultConfig()
		cfg.Drop = DropAlways
		cfg.AllowRejoin = true
		results := runMini(t, rejoinSpec(3, 0, 3, 20), cfg, 30, 40, true)
		checkValuesAndCoverage(t, results, 30)
		return results
	}
	results := runOnce()
	if got := changesOf(results[0]); got != "removed rejoined" {
		t.Fatalf("root's membership changes %q, want removed then rejoined", got)
	}
	for r := 1; r < 3; r++ {
		if fmt.Sprint(results[r].globals) != fmt.Sprint(results[0].globals) {
			t.Errorf("rank %d saw globals %v, rank 0 %v", r, results[r].globals, results[0].globals)
		}
	}
	sameRecords(t, results, runOnce())
}

// TestRejoinSurvivesCrashWhileRemoved: while rank 1 is removed, a rank dies
// at the top of cycle 20 — the send-out root, or another member — and the
// load exchange fails. The poll round still hands rank 1 its ping — from the
// root, or re-sent by the rank that takes over from a dead one — and a
// verdict (closePoll), so rank 1 rejoins once its CP leaves, the survivors
// cover every row and see the same globals, and the run replays exactly.
func TestRejoinSurvivesCrashWhileRemoved(t *testing.T) {
	for _, victim := range []int{0, 2} {
		t.Run(fmt.Sprintf("victim%d", victim), func(t *testing.T) { rejoinSurvivesCrash(t, victim) })
	}
}

func rejoinSurvivesCrash(t *testing.T, victim int) {
	runOnce := func() map[int]*miniResult {
		cfg := DefaultConfig()
		cfg.Drop = DropAlways
		cfg.AllowRejoin = true
		spec := rejoinSpec(4, 1, 3, 30)
		spec.Faults = []fault.Fault{fault.CrashAtCycle(victim, 20)}
		results, err, ok := runMiniWatched(t, spec, cfg, 64, 45, true)
		if !ok || err != nil {
			t.Fatalf("finished %v, err %v", ok, err)
		}
		return results
	}
	results := runOnce()
	if got := changesOf(results[1]); got != "removed rejoined" {
		t.Errorf("rank 1's membership changes %q, want removed then rejoined", got)
	}
	owned := 0
	for r, res := range results {
		owned += res.ownedCnt
		if fmt.Sprint(res.globals) != fmt.Sprint(results[3].globals) {
			t.Errorf("rank %d saw globals %v, rank 3 %v", r, res.globals, results[3].globals)
		}
	}
	if len(results) != 3 || owned != 64 {
		t.Errorf("%d survivors own %d of 64 rows", len(results), owned)
	}
	sameRecords(t, results, runOnce())
}

func TestRepeatedChurn(t *testing.T) {
	// Two full load/unload waves on the same node: drop, rejoin, drop,
	// rejoin — data must survive every transition.
	cfg := DefaultConfig()
	cfg.Drop = DropAlways
	cfg.AllowRejoin = true
	spec := cluster.Uniform(4).
		With(cluster.CycleEvent(1, 3, +1)).
		With(cluster.CycleEvent(1, 25, -1)).
		With(cluster.CycleEvent(1, 50, +1)).
		With(cluster.CycleEvent(1, 75, -1))
	results := runMini(t, spec, cfg, 64, 110, false)
	checkValuesAndCoverage(t, results, 64)
	if got := changesOf(results[1]); got != "removed rejoined removed rejoined" {
		t.Fatalf("node 1 membership changes %q, want two removed-then-rejoined waves", got)
	}
	if results[1].removed {
		t.Fatal("node 1 should be active at the end")
	}
}

// TestRejoinTimingDeterministic pins the rejoin-protocol cost accounting:
// every rank's record stream and finish time must be identical across runs.
// The old exchangeLoads priced the removed-poll wire traffic only on
// whichever rank happened to run the allgather's reduce closure (the last
// physical arriver), so repeated runs could disagree on virtual timestamps.
func TestRejoinTimingDeterministic(t *testing.T) {
	runOnce := func() map[int]*miniResult {
		cfg := DefaultConfig()
		cfg.Drop = DropAlways
		cfg.AllowRejoin = true
		return runMini(t, rejoinSpec(4, 2, 3, 25), cfg, 64, 60, false)
	}
	sameRecords(t, runOnce(), runOnce())
}

// TestPolledLoadExchangeCarriesTheLoads: with nodes 2 and 3 loaded from
// cycle 3 to cycle 30, DropAlways removes both at once and AllowRejoin polls
// them every cycle until they rejoin. Each polled cycle's load exchange is
// one float64 allgather in which the send-out root also carries the R
// removed loads, so the active group's CollectiveStats grow by one
// allgather-f64 op of 8·(1+R) bytes per member, and by no allgather op.
func TestPolledLoadExchangeCarriesTheLoads(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Drop = DropAlways
	cfg.AllowRejoin = true
	spec := rejoinSpec(4, 2, 3, 30).With(cluster.CycleEvent(3, 3, +1)).With(cluster.CycleEvent(3, 30, -1))
	var polledTwo atomic.Int32 // polled rank-cycles with both nodes removed
	err := mpi.Run(cluster.New(spec), func(c *mpi.Comm) error {
		rt := New(c, cfg)
		x := rt.RegisterDense("X", 64, 4)
		ph := rt.InitPhase(64)
		ph.AddAccess("X", drsd.ReadWrite, 1, 0)
		rt.Commit()
		for cycle := 0; cycle < 40; cycle++ {
			polls, g, r := rt.Participating() && rt.polls(), rt.group, len(rt.removed)
			before := g.CollectiveStats()
			if rt.BeginCycle() {
				lo, hi := ph.Bounds()
				for i := lo; i < hi; i++ {
					x.Row(i)[0]++
					rt.ComputeIter(i, iterCost)
				}
			}
			if polls {
				for k, st := range g.CollectiveStats() {
					dc, db := st.Count-before[k].Count, st.Bytes-before[k].Bytes
					var wc, wb int64
					if st.Op == "allgather-f64" {
						wc, wb = 1, int64(8*(1+r)*g.Size())
					}
					if (st.Op == "allgather-f64" || st.Op == "allgather") && (dc != wc || db != wb) {
						return fmt.Errorf("rank %d cycle %d, %d removed: %s grew by %d ops, %d bytes, want %d, %d", c.Rank(), cycle, r, st.Op, dc, db, wc, wb)
					}
				}
				if r == 2 {
					polledTwo.Add(1)
				}
			}
			rt.EndCycle()
		}
		rt.Finalize()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if polledTwo.Load() == 0 {
		t.Fatal("no cycle polled two removed nodes")
	}
}

// changesOf lists a rank's membership changes in order, space-separated.
func changesOf(res *miniResult) string {
	var out []string
	for _, m := range only[telemetry.MembershipRecord](res.recs) {
		out = append(out, m.Change)
	}
	return strings.Join(out, " ")
}

// sameRecords fails unless two runs reported the same ranks, each finishing at
// the same virtual time with the same record stream.
func sameRecords(t *testing.T, a, b map[int]*miniResult) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("rank sets differ: %d vs %d", len(a), len(b))
	}
	for r, res := range a {
		other := b[r]
		if other == nil || res.final != other.final {
			t.Fatalf("rank %d finish time differs across runs", r)
		}
		if !reflect.DeepEqual(res.recs, other.recs) {
			t.Fatalf("rank %d record streams differ across runs", r)
		}
	}
}
