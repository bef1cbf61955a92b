package core

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/distribution"
	"repro/internal/drsd"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/telemetry"
	"repro/internal/timing"
	"repro/internal/vclock"
)

// TestLogicalDropCountsRemainderToLastUnloaded pins the minimum assignment of
// a logical drop: a loaded node gets exactly one iteration even when it is
// the last rank (an old inline version padded counts[len-1] with the rounding
// remainder unconditionally), and the counts cover the iteration space.
func TestLogicalDropCountsRemainderToLastUnloaded(t *testing.T) {
	costs := make([]float64, 11)
	for g := range costs {
		costs[g] = 1
	}
	for _, loaded := range []int{3, 1} {
		nodes := []distribution.Node{{Rank: 0, Power: 1}, {Rank: 1, Power: 1}, {Rank: 2, Power: 1}, {Rank: 3, Power: 1}}
		nodes[loaded].Load = 1
		v := distribution.Decide(distribution.Input{Nodes: nodes, IterCosts: costs, Drop: DropLogical})
		sum := 0
		for i, c := range v.Counts {
			sum += c
			if (i == loaded) != (c == 1) {
				t.Errorf("node %d loaded: counts %v, want exactly 1 on it and more elsewhere", loaded, v.Counts)
			}
		}
		if v.Chosen != "logical-drop" || sum != len(costs) {
			t.Errorf("node %d loaded: %s %v, want logical-drop covering %d", loaded, v.Chosen, v.Counts, len(costs))
		}
	}
}

// TestUserTagGuards verifies SendRel and RecvRel both reject tags that
// collide with the runtime's internal tag space (the old code guarded only
// the send side, so a stray user receive could steal redistribution or
// replica traffic) and negative tags (a receive for tag -1 would be a
// wildcard).
func TestUserTagGuards(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s accepted a runtime-space tag", name)
			}
		}()
		fn()
	}
	rt := &Runtime{}
	expectPanic("SendRel", func() { rt.SendRel(0, tagBase, nil, 0) })
	expectPanic("RecvRel", func() { rt.RecvRel(0, tagBase+5) })
	expectPanic("RecvRelF64s", func() { rt.RecvRelF64s(0, tagRedist) })
	expectPanic("SendRel", func() { rt.SendRel(0, -1, nil, 0) })
	expectPanic("RecvRel", func() { rt.RecvRel(0, -1) })
}

// TestPostRedistGraceRestartsOnLoadChange: a load change arriving during the
// post-redistribution grace window must restart measurement immediately
// instead of waiting the window out (the second redistribution then lands
// inside the first window). Only DropAuto enters that window.
func TestPostRedistGraceRestartsOnLoadChange(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GracePeriod = 3
	spec := cluster.Uniform(3).
		With(cluster.CycleEvent(1, 2, +1)).
		With(cluster.CycleEvent(2, 9, +1))
	results := runMini(t, spec, cfg, 48, 45, false)
	checkValuesAndCoverage(t, results, 48)
	redists := only[telemetry.RedistRecord](results[0].recs)
	if len(redists) < 2 {
		t.Fatalf("saw %d redistributions, want 2 (restart inside post-redist grace)", len(redists))
	}
	if gap := redists[1].Cycle - redists[0].Cycle; gap >= timing.PostRedistGrace {
		t.Fatalf("second redistribution waited out the post-redist grace: cycles %d -> %d (window %d)",
			redists[0].Cycle, redists[1].Cycle, timing.PostRedistGrace)
	}
	counts := results[0].counts
	if counts[1] >= counts[0] || counts[2] >= counts[0] {
		t.Fatalf("counts %v: both loaded nodes should trail the unloaded one", counts)
	}
}

// crashMini runs the runMini workload with an injected crash and returns
// the surviving ranks' results.
func crashMini(t *testing.T, cfg Config, n, cycles, victim, crashCycle int) map[int]*miniResult {
	t.Helper()
	spec := cluster.Uniform(3)
	spec.Faults = []fault.Fault{fault.CrashAtCycle(victim, crashCycle)}
	ring := traceInto(&cfg)
	var mu sync.Mutex
	results := map[int]*miniResult{}
	err := mpi.Run(cluster.New(spec), func(c *mpi.Comm) error {
		rt := New(c, cfg)
		x := rt.RegisterDense("X", n, 4)
		ph := rt.InitPhase(n)
		ph.AddAccess("X", drsd.ReadWrite, 1, 0)
		rt.Commit()
		x.Fill(func(g, j int) float64 { return float64(g * 10) })
		res := &miniResult{rank: c.Rank()}
		for tstep := 0; tstep < cycles; tstep++ {
			if rt.BeginCycle() {
				lo, hi := ph.Bounds()
				for g := lo; g < hi; g++ {
					row := x.Row(g)
					for j := range row {
						row[j]++
					}
					rt.ComputeIter(g, iterCost)
				}
			}
			rt.EndCycle()
		}
		rt.Finalize()
		res.redists = rt.Redistributions()
		res.counts = rt.Dist().Counts()
		res.ownedOK = true
		lo, hi := ph.Bounds()
		res.ownedCnt = hi - lo
		for g := lo; g < hi; g++ {
			for j := 0; j < 4; j++ {
				if x.Row(g)[j] != float64(g*10+cycles) {
					res.ownedOK = false
				}
			}
		}
		lostRows := 0
		for _, lr := range rt.LostRows() {
			lostRows += lr.Hi - lr.Lo
		}
		res.globals = []float64{float64(lostRows), float64(rt.RecoveredRows())}
		mu.Lock()
		results[c.Rank()] = res
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	withRecords(t, results, ring)
	if len(results) != 2 {
		t.Fatalf("%d ranks reported, want the 2 survivors", len(results))
	}
	for r, res := range results {
		if r == victim {
			t.Fatalf("crashed rank %d reported a result", victim)
		}
		ms := only[telemetry.MembershipRecord](res.recs)
		if len(ms) != 1 || ms[0].Change != "failure-drop" || fmt.Sprint(ms[0].Left) != fmt.Sprint([]int{victim}) {
			t.Fatalf("rank %d reported %+v, want one failure-drop that left [%d]", r, ms, victim)
		}
		total := 0
		for _, c := range res.counts {
			total += c
		}
		if total != n {
			t.Fatalf("rank %d distribution covers %d rows, want %d (counts %v)", r, total, n, res.counts)
		}
	}
	return results
}

// TestCrashRecoveryWithoutReplication: survivors drop the dead member,
// re-partition the full index space, and declare the dead rank's rows lost.
func TestCrashRecoveryWithoutReplication(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Drop = DropNever
	results := crashMini(t, cfg, 48, 20, 2, 5)
	lost := 0.0
	for _, res := range results {
		lost += res.globals[0]
	}
	if lost == 0 {
		t.Fatal("no rows declared lost without replication")
	}
}

// TestCrashRecoveryWithReplicationRestoresValues: with per-cycle buddy
// replication the dead rank's rows are reconstructed exactly, so every
// surviving row carries the bit-exact value an uninterrupted run produces.
func TestCrashRecoveryWithReplicationRestoresValues(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Drop = DropNever
	cfg.Replicate = true
	cfg.ReplicaEvery = 1
	results := crashMini(t, cfg, 48, 20, 2, 5)
	recovered := 0.0
	for r, res := range results {
		if res.globals[0] != 0 {
			t.Fatalf("rank %d lost %v rows despite replication", r, res.globals[0])
		}
		recovered += res.globals[1]
		if !res.ownedOK {
			t.Fatalf("rank %d holds wrong values after recovery", r)
		}
	}
	if recovered == 0 {
		t.Fatal("no rows recovered from replicas")
	}
}

// TestMultiCrashConverges: two ranks crashing at different cycles leave a
// single survivor that still completes and owns the whole index space.
func TestMultiCrashConverges(t *testing.T) {
	const n = 30
	spec := cluster.Uniform(3)
	spec.Faults = []fault.Fault{
		fault.CrashAtCycle(1, 4),
		fault.CrashAtCycle(2, 8),
	}
	cfg := DefaultConfig()
	cfg.Drop = DropNever
	var mu sync.Mutex
	counts := map[int][]int{}
	err := mpi.Run(cluster.New(spec), func(c *mpi.Comm) error {
		rt := New(c, cfg)
		rt.RegisterDense("X", n, 1)
		ph := rt.InitPhase(n)
		ph.AddAccess("X", drsd.ReadWrite, 1, 0)
		rt.Commit()
		for tstep := 0; tstep < 15; tstep++ {
			if rt.BeginCycle() {
				lo, hi := ph.Bounds()
				for g := lo; g < hi; g++ {
					rt.ComputeIter(g, iterCost)
				}
			}
			rt.EndCycle()
		}
		rt.Finalize()
		if got := rt.DeadRanks(); len(got) != 2 {
			return fmt.Errorf("rank %d sees dead ranks %v, want [1 2]", c.Rank(), got)
		}
		mu.Lock()
		counts[c.Rank()] = rt.Dist().Counts()
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != 1 || counts[0] == nil {
		t.Fatalf("want only rank 0 to survive, got %v", counts)
	}
	if len(counts[0]) != 1 || counts[0][0] != n {
		t.Fatalf("survivor's distribution %v, want [%d]", counts[0], n)
	}
}

// TestCrashDeterminismCore: repeated crash runs produce identical finish
// times on the survivors.
func TestCrashDeterminismCore(t *testing.T) {
	runOnce := func() map[int]vclock.Time {
		spec := cluster.Uniform(3)
		spec.Faults = []fault.Fault{fault.CrashAtCycle(1, 5)}
		cfg := DefaultConfig()
		cfg.Drop = DropNever
		var mu sync.Mutex
		finish := map[int]vclock.Time{}
		err := mpi.Run(cluster.New(spec), func(c *mpi.Comm) error {
			rt := New(c, cfg)
			rt.RegisterDense("X", 30, 1)
			ph := rt.InitPhase(30)
			ph.AddAccess("X", drsd.ReadWrite, 1, 0)
			rt.Commit()
			for tstep := 0; tstep < 12; tstep++ {
				if rt.BeginCycle() {
					lo, hi := ph.Bounds()
					for g := lo; g < hi; g++ {
						rt.ComputeIter(g, iterCost)
					}
				}
				rt.EndCycle()
			}
			rt.Finalize()
			mu.Lock()
			finish[c.Rank()] = c.Now()
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return finish
	}
	a, b := runOnce(), runOnce()
	if len(a) != len(b) {
		t.Fatalf("survivor sets differ: %v vs %v", a, b)
	}
	for r, ta := range a {
		if tb, ok := b[r]; !ok || ta != tb {
			t.Fatalf("rank %d finish differs: %v vs %v", r, ta, b[r])
		}
	}
}

// recoveryRank is one survivor's final state in runServedRecovery.
type recoveryRank struct {
	Lo, Hi    int
	Rows      []float64 // every element of X[g] per owned row
	Lost      []LostRange
	Recovered int
	Final     vclock.Time
	Records   []telemetry.Record
}

// runServedRecovery runs the runMini array on four uniform nodes with
// per-cycle replication, cps competing processes on each of nodes 0 and 1
// from cycle 1 and rank 1 crashing at crashCycle. The load skew leaves rank
// 0's recovery range covering the dead rank's rows — served by its holder,
// rank 2 — and the first rows of rank 2's own range, so rank 0 receives a
// replica slab and an owner slab from the same source in one recovery. The
// error is the world's, or the watchdog's when it did not return in 10 s.
func runServedRecovery(t *testing.T, cps, crashCycle int) (results map[int]*recoveryRank, leaked int, err error) {
	const n, cycles = 64, 24
	cfg := DefaultConfig()
	cfg.Drop = DropNever
	cfg.Replicate = true
	cfg.ReplicaEvery = 1
	ring := traceInto(&cfg)
	spec := cluster.Uniform(4)
	for _, node := range []int{0, 1} {
		for i := 0; i < cps; i++ {
			spec = spec.With(cluster.CycleEvent(node, 1, +1))
		}
	}
	spec.Faults = []fault.Fault{fault.CrashAtCycle(1, crashCycle)}
	var mu sync.Mutex
	results = map[int]*recoveryRank{}
	w := mpi.NewWorld(cluster.New(spec))
	done := make(chan error, 1)
	go func() {
		done <- w.Run(func(c *mpi.Comm) error {
			rt := New(c, cfg)
			x := rt.RegisterDense("X", n, 4)
			ph := rt.InitPhase(n)
			ph.AddAccess("X", drsd.ReadWrite, 1, 0)
			rt.Commit()
			x.Fill(func(g, j int) float64 { return float64(g * 10) })
			for tstep := 0; tstep < cycles; tstep++ {
				if rt.BeginCycle() {
					lo, hi := ph.Bounds()
					for g := lo; g < hi; g++ {
						row := x.Row(g)
						for j := range row {
							row[j]++
						}
						rt.ComputeIter(g, iterCost)
					}
				}
				rt.EndCycle()
			}
			rt.Finalize()
			res := &recoveryRank{Lost: rt.LostRows(), Recovered: rt.RecoveredRows(), Final: c.Now()}
			res.Lo, res.Hi = ph.Bounds()
			for g := res.Lo; g < res.Hi; g++ {
				res.Rows = append(res.Rows, x.Row(g)...)
			}
			mu.Lock()
			results[c.Rank()] = res
			mu.Unlock()
			return nil
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			return nil, 0, err
		}
		recs := byNode(t, ring)
		for r, res := range results {
			res.Records = recs[r]
		}
		return results, w.LeakedOps(), nil
	case <-time.After(10 * time.Second):
		return nil, 0, errors.New("survivors hung (10 s watchdog)")
	}
}

// TestRecoveryServesReplicasOnTheirOwnTag is the shared-tag trap: replica
// service once travelled on the owner slabs' tag, so a receiver expecting
// the holder's replica of the dead rank's rows could take the holder's own
// owner slab in its place (a bad payload panic, or rows put outside the
// window). Whatever the load and crash instant, every surviving row must
// come back exact, none may be lost, nothing may leak, and the run must
// replay exactly.
func TestRecoveryServesReplicasOnTheirOwnTag(t *testing.T) {
	const n, cycles = 64, 24
	for _, cps := range []int{1, 2, 3} {
		for _, crash := range []int{12, 15, 18} {
			name := fmt.Sprintf("cps=%d/crash=%d", cps, crash)
			a, leaked, err := runServedRecovery(t, cps, crash)
			if err != nil {
				t.Errorf("%s: %v", name, err)
				continue
			}
			if leaked != 0 {
				t.Errorf("%s: %d ops leaked", name, leaked)
			}
			if len(a) != 3 || a[1] != nil {
				t.Errorf("%s: %d ranks reported, want the 3 survivors", name, len(a))
				continue
			}
			owned, recovered := 0, 0
			for r, res := range a {
				if len(res.Lost) != 0 {
					t.Errorf("%s: rank %d lost %v despite per-cycle replication", name, r, res.Lost)
				}
				recovered += res.Recovered
				owned += res.Hi - res.Lo
				for k, v := range res.Rows {
					if g := res.Lo + k/4; v != float64(g*10+cycles) {
						t.Errorf("%s: rank %d row %d = %v, want %v", name, r, g, v, float64(g*10+cycles))
						break
					}
				}
			}
			if owned != n {
				t.Errorf("%s: survivors own %d of %d rows", name, owned, n)
			}
			if recovered == 0 {
				t.Errorf("%s: no rows recovered from replicas", name)
			}
			b, _, err := runServedRecovery(t, cps, crash)
			if err != nil {
				t.Errorf("%s: replay: %v", name, err)
			} else if !reflect.DeepEqual(a, b) {
				t.Errorf("%s: replay differs", name)
			}
		}
	}
}

// TestCrashVoidsLiveWindow: a crash recovered mid-window voids the live
// measurement window on every survivor. A fault-free dry run of a 4-rank
// DropAuto world with one competing process places two crashes: one inside
// the grace period and one inside the post-redistribution grace. No decision
// may then rest on a grace period that spans the recovery, and no drop check
// may follow it without a full post-redistribution grace after a fresh
// ordinary redistribution. Each world runs twice with identical records.
//
// The victim is the loaded node. Recovery resets the load baseline to zero,
// so with the competing process gone the survivors see no load change: no
// fresh grace period opens to hide a window the recovery left live.
func TestCrashVoidsLiveWindow(t *testing.T) {
	const n, cycles, victim = 48, 45, 3
	cfg := DefaultConfig()
	spec := cpAtCycle(cluster.Uniform(4), victim, 2)
	dry := runMini(t, spec, cfg, n, cycles, false)
	var redist, dropCheck int
	for _, d := range only[telemetry.DecisionRecord](dry[0].recs) {
		if d.MeasuredS > 0 {
			dropCheck = d.Cycle
		} else if redist == 0 {
			redist = d.Cycle
		}
	}
	if redist == 0 || dropCheck <= redist {
		t.Fatalf("dry run: redistribution at cycle %d, drop check at %d; want a post-redistribution grace", redist, dropCheck)
	}
	for _, tc := range []struct {
		window string
		crash  int
	}{
		{"grace period", redist - cfg.GracePeriod + 2},
		{"post-redistribution grace", (redist + dropCheck) / 2},
	} {
		crashed := spec
		crashed.Faults = []fault.Fault{fault.CrashAtCycle(victim, tc.crash)}
		first := runMini(t, crashed, cfg, n, cycles, false)
		again := runMini(t, crashed, cfg, n, cycles, false)
		if len(first) != 3 {
			t.Fatalf("%s: %d ranks reported, want the 3 survivors", tc.window, len(first))
		}
		for r, res := range first {
			if !reflect.DeepEqual(res.recs, again[r].recs) {
				t.Fatalf("%s: rank %d's records differ between two runs", tc.window, r)
			}
			var recovery telemetry.RedistRecord
			var ordinary []telemetry.RedistRecord
			for _, rd := range only[telemetry.RedistRecord](res.recs) {
				if len(rd.Dead) > 0 {
					recovery = rd
				} else if recovery.Dead != nil {
					ordinary = append(ordinary, rd)
				}
			}
			if recovery.Cycle != tc.crash {
				t.Fatalf("%s: rank %d recovered at cycle %d (dead %v), want %d", tc.window, r, recovery.Cycle, recovery.Dead, tc.crash)
			}
			for _, d := range only[telemetry.DecisionRecord](res.recs) {
				if d.Time <= recovery.Time {
					continue
				}
				if d.MeasuredS == 0 && d.GraceVT < recovery.Time {
					t.Errorf("%s: rank %d decided at cycle %d on a grace period opened at %.3f s, before the recovery at %.3f s",
						tc.window, r, d.Cycle, d.GraceVT, recovery.Time)
				}
				if d.MeasuredS > 0 && !slices.ContainsFunc(ordinary, func(o telemetry.RedistRecord) bool {
					return d.Cycle-o.Cycle >= timing.PostRedistGrace
				}) {
					t.Errorf("%s: rank %d checked the drop at cycle %d, within %d cycles of the recovery at cycle %d with no redistribution between",
						tc.window, r, d.Cycle, timing.PostRedistGrace, recovery.Cycle)
				}
			}
		}
	}
}
