package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/drsd"
	"repro/internal/fault"
	"repro/internal/matrix"
	"repro/internal/mpi"
	"repro/internal/telemetry"
	"repro/internal/vclock"
)

// The crash-time matrix: a rank is killed at evenly spaced virtual times
// across one redistribution and across one plain cycle, for every victim
// and every drain × replication combination, and each run must terminate,
// keep every row owned exactly once, hold exact values wherever it did not
// declare a loss, leak nothing, and replay to identical finish times. The
// cycle-triggered crash suites (CrashAtCycle) only ever kill a rank at the
// top of BeginCycle; a timed crash lands at whichever communication
// operation the victim enters next — inside a redistribution's sends,
// harvest, fences or barrier, inside a replica refresh, inside the load
// exchange — which is where asymmetric failure observation lives.

const (
	matrixN      = 64
	matrixRowLen = 4
	matrixCycles = 25
	matrixPoints = 21
	// matrixWatchdog bounds one world's wall time. A healthy run takes
	// milliseconds; a run still going after this long has ranks parked
	// forever, and the matrix reports that as a failure naming the cell
	// instead of leaving it to the package-level test timeout.
	matrixWatchdog = 30 * time.Second
)

// matrixRank is one surviving rank's final state.
type matrixRank struct {
	lo, hi    int
	dense     []float64 // X[g][0] per owned row; -1 when the row's columns disagree
	sparse    []float64 // S[g] single element per owned row; -1 when the row is empty or malformed
	lost      []LostRange
	recovered int
	final     vclock.Time
	cycleAt   []vclock.Time // clock at each BeginCycle entry
}

// runMatrixWorld runs the mini workload (one dense array, plus one sparse
// array when withSparse is set; every cycle increments every owned element)
// under a watchdog. ok is false when the world did not terminate in time.
func runMatrixWorld(t *testing.T, spec cluster.Spec, cfg Config, withSparse bool) (results map[int]*matrixRank, leaked int, ok bool) {
	t.Helper()
	var mu sync.Mutex
	results = map[int]*matrixRank{}
	w := mpi.NewWorld(cluster.New(spec))
	done := make(chan error, 1)
	go func() {
		done <- w.Run(func(c *mpi.Comm) error {
			rt := New(c, cfg)
			x := rt.RegisterDense("X", matrixN, matrixRowLen)
			var s *matrix.Sparse
			if withSparse {
				s = rt.RegisterSparse("S", matrixN)
			}
			ph := rt.InitPhase(matrixN)
			ph.AddAccess("X", drsd.ReadWrite, 1, 0)
			if withSparse {
				ph.AddAccess("S", drsd.ReadWrite, 1, 0)
			}
			rt.Commit()
			x.Fill(func(g, j int) float64 { return float64(g * 10) })
			if withSparse {
				lo, hi := ph.Bounds()
				for g := lo; g < hi; g++ {
					s.Append(g, 0, float64(g*10))
				}
			}
			res := &matrixRank{}
			for tstep := 0; tstep < matrixCycles; tstep++ {
				res.cycleAt = append(res.cycleAt, c.Now())
				if rt.BeginCycle() {
					lo, hi := ph.Bounds()
					for g := lo; g < hi; g++ {
						row := x.Row(g)
						for j := range row {
							row[j]++
						}
						if withSparse {
							for e := s.RowHead(g); e != nil; e = e.Next() {
								e.Val++
							}
						}
						rt.ComputeIter(g, iterCost)
					}
				}
				rt.EndCycle()
			}
			rt.Finalize()
			res.lo, res.hi = ph.Bounds()
			for g := res.lo; g < res.hi; g++ {
				row := x.Row(g)
				v := row[0]
				for _, e := range row {
					if e != v {
						v = -1
					}
				}
				res.dense = append(res.dense, v)
				if withSparse {
					v := -1.0
					if e := s.RowHead(g); s.RowLen(g) == 1 && e.Col == 0 {
						v = e.Val
					}
					res.sparse = append(res.sparse, v)
				}
			}
			res.lost = rt.LostRows()
			res.recovered = rt.RecoveredRows()
			res.final = c.Now()
			mu.Lock()
			results[c.Rank()] = res
			mu.Unlock()
			return nil
		})
	}()
	watchdog := time.NewTimer(matrixWatchdog)
	defer watchdog.Stop()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
		return results, w.LeakedOps(), true
	case <-watchdog.C:
		return nil, 0, false
	}
}

// checkMatrixRun asserts the per-run invariants on the survivors of one
// crash. A dense row ends at g*10+cycles unless it was declared lost
// (zero-filled at the loss, so anything below the fault-free value) or was
// rebuilt from a buddy replica, which restores the last refresh's snapshot:
// with ReplicaEvery=1 that is at most the one cycle of increments the
// victim computed and never shipped. Sparse rows are never replicated, so
// they are exact or lost.
func checkMatrixRun(t *testing.T, label string, results map[int]*matrixRank, victim int, withSparse bool) {
	t.Helper()
	if len(results) != 3 || results[victim] != nil {
		t.Errorf("%s: %d ranks reported, want the 3 survivors", label, len(results))
		return
	}
	owners := make([]int, matrixN)
	lost := map[string][]bool{"X": make([]bool, matrixN), "S": make([]bool, matrixN)}
	recovered := 0
	for _, res := range results {
		for g := res.lo; g < res.hi; g++ {
			owners[g]++
		}
		for _, lr := range res.lost {
			for g := lr.Lo; g < lr.Hi; g++ {
				lost[lr.Array][g] = true
			}
		}
		recovered += res.recovered
	}
	for g, c := range owners {
		if c != 1 {
			t.Errorf("%s: row %d owned %d times", label, g, c)
			return
		}
	}
	stale := 0
	for r, res := range results {
		for g := res.lo; g < res.hi; g++ {
			want := float64(g*10 + matrixCycles)
			got := res.dense[g-res.lo]
			switch {
			case got == want:
			case lost["X"][g]:
				if got >= want {
					t.Errorf("%s: rank %d lost row %d holds %v", label, r, g, got)
				}
			case got == want-1:
				stale++
			default:
				t.Errorf("%s: rank %d row %d = %v, want %v and not declared lost", label, r, g, got, want)
			}
			if withSparse && !lost["S"][g] && res.sparse[g-res.lo] != want {
				t.Errorf("%s: rank %d sparse row %d = %v, want %v and not declared lost",
					label, r, g, res.sparse[g-res.lo], want)
			}
		}
	}
	if stale > recovered {
		t.Errorf("%s: %d rows one refresh stale but only %d rebuilt from replicas", label, stale, recovered)
	}
}

// spread returns matrixPoints evenly spaced instants covering [t0, t1].
func spread(t0, t1 vclock.Time) []vclock.Time {
	out := make([]vclock.Time, matrixPoints)
	for k := range out {
		out[k] = t0.Add(t1.Sub(t0) * vclock.Duration(k) / (matrixPoints - 1))
	}
	return out
}

func TestCrashTimeMatrix(t *testing.T) {
	scenario := func() cluster.Spec { return cpAtCycle(cluster.Uniform(4), 1, 3) }
	type cell struct {
		name       string
		replicate  bool
		rma        bool
		withSparse bool
	}
	// The sparse cell sends a sparse array through the same drain as the
	// dense one beside it.
	cells := []cell{
		{"norep", false, false, false},
		{"paired", true, false, false},
		{"replicaRMA", true, true, false},
		{"paired/sparse", true, false, true},
	}

	for _, cl := range cells {
		cfg := DefaultConfig()
		cfg.Drop = DropNever
		cfg.Replicate = cl.replicate
		cfg.ReplicaRMA = cl.rma
		if cl.replicate {
			cfg.ReplicaEvery = 1
		}

		// Fault-free reference: where the first redistribution and one plain
		// cycle sit on rank 0's clock.
		refCfg := cfg
		ring := traceInto(&refCfg)
		ref, leaked, ok := runMatrixWorld(t, scenario(), refCfg, cl.withSparse)
		if !ok {
			t.Fatalf("%s: fault-free run hung", cl.name)
		}
		if leaked != 0 {
			t.Errorf("%s: fault-free run leaked %d ops", cl.name, leaked)
		}
		reds := only[telemetry.RedistRecord](byNode(t, ring)[0])
		if len(reds) == 0 || reds[0].Time <= reds[0].StartVT {
			t.Fatalf("%s: scenario produced no redistribution; matrix is vacuous", cl.name)
		}
		rs, re := vclock.Time(vclock.FromSeconds(reds[0].StartVT)), vclock.Time(vclock.FromSeconds(reds[0].Time))
		times := append(spread(rs, re), spread(ref[0].cycleAt[1], ref[0].cycleAt[2])...)

		for victim := 0; victim < 4; victim++ {
			for _, at := range times {
				label := fmt.Sprintf("%s victim %d t=%v", cl.name, victim, at)
				run := func() map[int]*matrixRank {
					spec := scenario()
					spec.Faults = []fault.Fault{fault.CrashAt(victim, at)}
					results, leaked, ok := runMatrixWorld(t, spec, cfg, cl.withSparse)
					if !ok {
						t.Fatalf("%s: survivors deadlocked (watchdog)", label)
					}
					if leaked != 0 {
						t.Errorf("%s: %d ops leaked", label, leaked)
					}
					return results
				}
				a := run()
				checkMatrixRun(t, label, a, victim, cl.withSparse)
				b := run()
				for r, ra := range a {
					if rb := b[r]; rb == nil || ra.final != rb.final {
						t.Errorf("%s: rank %d finish differs across runs", label, r)
					}
				}
			}
		}
	}
}

// runMiniWatched is runMiniErr under the matrix watchdog; ok is false when
// the world did not terminate in time.
func runMiniWatched(t *testing.T, spec cluster.Spec, cfg Config, n, cycles int, withGlobal bool) (results map[int]*miniResult, err error, ok bool) {
	t.Helper()
	ring := traceInto(&cfg)
	type outcome struct {
		results map[int]*miniResult
		err     error
	}
	done := make(chan outcome, 1)
	go func() {
		r, err := miniWorld(spec, cfg, n, cycles, withGlobal, 0, 0)
		done <- outcome{r, err}
	}()
	select {
	case o := <-done:
		if o.err == nil {
			withRecords(t, o.results, ring)
		}
		return o.results, o.err, true
	case <-time.After(matrixWatchdog):
		return nil, nil, false
	}
}

// removedAt returns the cycle at which rank r's trace reports its removal,
// or -1.
func removedAt(res *miniResult) int {
	for _, m := range only[telemetry.MembershipRecord](res.recs) {
		if m.Change == "removed" {
			return m.Cycle
		}
	}
	return -1
}

// TestRemovedRankSurvivesTimedRootCrash: while rank 1 is removed, the
// send-out root (rank 0) dies at evenly spaced instants across a whole cycle,
// across that cycle's global reduction and across the last cycle and
// Finalize. A timed crash lands at whichever operation the root enters next —
// so also at the send of a result the survivors already hold, or at the done
// notice after the closing barrier. Every run must finish, rank 1 must see
// exactly the survivors' globals, the survivors of a crash before the last
// cycle must own every row once (no cycle is left to recover a later one),
// and each run must replay exactly. Under AllowRejoin the root also pings
// rank 1 and sends it a verdict every cycle, so the crash lands inside that
// round as well.
func TestRemovedRankSurvivesTimedRootCrash(t *testing.T) {
	for _, rejoin := range []bool{false, true} {
		t.Run(fmt.Sprintf("rejoin=%v", rejoin), func(t *testing.T) { removedRankSurvivesTimedRootCrash(t, rejoin) })
	}
}

func removedRankSurvivesTimedRootCrash(t *testing.T, rejoin bool) {
	const n, cycles = 64, 20
	cfg := DefaultConfig()
	cfg.Drop = DropAlways
	cfg.AllowRejoin = rejoin
	scenario := func() cluster.Spec { return cpAtCycle(cluster.Uniform(4), 1, 3) }
	ref, err, ok := runMiniWatched(t, scenario(), cfg, n, cycles, true)
	if !ok || err != nil {
		t.Fatalf("fault-free run: finished %v, err %v", ok, err)
	}
	c := removedAt(ref[1]) + 2
	if c < 2 || c+1 >= cycles {
		t.Fatalf("rank 1 removed at cycle %d; the test needs it removed early", c-2)
	}
	var ends []vclock.Time // rank 0's clock at the end of each cycle
	for _, it := range only[telemetry.IterationRecord](ref[0].recs) {
		ends = append(ends, vclock.Time(vclock.FromSeconds(it.Time)))
	}
	if len(ends) != cycles {
		t.Fatalf("rank 0 reported %d cycles, want %d", len(ends), cycles)
	}
	g := ref[0].globalAt[c]
	if g[1] <= g[0] {
		t.Fatalf("global reduction of cycle %d takes no time: %v", c, g)
	}
	// The cycle opens with the load exchange — and, under AllowRejoin, the
	// ping round before it — within its first millisecond.
	open := ends[c-1].Add(vclock.Millisecond)
	times := slices.Concat(spread(ends[c-1], ends[c]), spread(ends[c-1], open), spread(g[0], g[1]),
		spread(ends[cycles-1], ref[0].final))

	for i, at := range times {
		label := fmt.Sprintf("root crash at t=%v", at)
		run := func() map[int]*miniResult {
			spec := scenario()
			spec.Faults = []fault.Fault{fault.CrashAt(0, at)}
			results, err, ok := runMiniWatched(t, spec, cfg, n, cycles, true)
			if !ok {
				t.Fatalf("%s: world hung (watchdog)", label)
			}
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			return results
		}
		a := run()
		if a[1] == nil || !a[1].removed {
			t.Fatalf("%s: rank 1 did not finish removed", label)
		}
		owned := 0
		for r, res := range a {
			owned += res.ownedCnt
			if fmt.Sprint(res.globals) != fmt.Sprint(a[1].globals) {
				t.Errorf("%s: rank %d saw globals %v, removed rank 1 %v", label, r, res.globals, a[1].globals)
			}
		}
		if recovers := i < 3*matrixPoints; recovers && owned != n {
			t.Errorf("%s: the survivors own %d of %d rows", label, owned, n)
		}
		sameRecords(t, a, run())
	}
}

// TestRemovedRanksFailWhenEveryActiveRankDies: with ranks 1 and 2 removed,
// both active ranks die at the top of one cycle. No rank is left to send the
// removed ones their next result, so the world fails with an explicit error
// instead of leaving them parked.
func TestRemovedRanksFailWhenEveryActiveRankDies(t *testing.T) {
	const n, cycles = 64, 20
	cfg := DefaultConfig()
	cfg.Drop = DropAlways
	scenario := func() cluster.Spec {
		return cpAtCycle(cpAtCycle(cluster.Uniform(4), 1, 3), 2, 3)
	}
	ref, err, ok := runMiniWatched(t, scenario(), cfg, n, cycles, true)
	if !ok || err != nil {
		t.Fatalf("fault-free run: finished %v, err %v", ok, err)
	}
	c := max(removedAt(ref[1]), removedAt(ref[2])) + 2
	if c < 2 || c >= cycles || removedAt(ref[1]) < 0 || removedAt(ref[2]) < 0 {
		t.Fatalf("ranks 1 and 2 removed at cycles %d and %d; the test needs both removed early",
			removedAt(ref[1]), removedAt(ref[2]))
	}
	spec := scenario()
	spec.Faults = []fault.Fault{fault.CrashAtCycle(0, c), fault.CrashAtCycle(3, c)}
	_, err, ok = runMiniWatched(t, spec, cfg, n, cycles, true)
	if !ok {
		t.Fatal("removed ranks parked for ever (watchdog)")
	}
	if err == nil || !strings.Contains(err.Error(), "no active rank is left") {
		t.Fatalf("want the no-active-rank error, got %v", err)
	}
}

// TestRejoinSurvivesTimedRootCrash: rank 1 is removed at cycle 3 and rejoins
// once its competing process leaves at cycle 12; the send-out root dies at
// evenly spaced instants across the rejoin cycle and densely across its
// opening, where the root sends the rejoin packet. A rejoiner the packet
// never reached becomes the lowest active rank, so the survivor that kept
// the packet re-sends it. Every run must finish with rank 1 rejoined, the
// ranks must agree on every global, own every row once, and replay exactly.
func TestRejoinSurvivesTimedRootCrash(t *testing.T) {
	const n, cycles = 64, 24
	cfg := DefaultConfig()
	cfg.Drop = DropAlways
	cfg.AllowRejoin = true
	scenario := func() cluster.Spec { return rejoinSpec(4, 1, 3, 12) }
	ref, err, ok := runMiniWatched(t, scenario(), cfg, n, cycles, true)
	if !ok || err != nil {
		t.Fatalf("fault-free run: finished %v, err %v", ok, err)
	}
	c := -1
	for _, m := range only[telemetry.MembershipRecord](ref[1].recs) {
		if m.Change == "rejoined" {
			c = m.Cycle
		}
	}
	if c < 1 || c+1 >= cycles {
		t.Fatalf("rank 1 rejoined at cycle %d", c)
	}
	var ends []vclock.Time
	for _, it := range only[telemetry.IterationRecord](ref[0].recs) {
		ends = append(ends, vclock.Time(vclock.FromSeconds(it.Time)))
	}
	times := slices.Concat(spread(ends[c-1], ends[c]), spread(ends[c-1], ends[c-1].Add(vclock.Millisecond)),
		spread(ends[c-1], ends[c-1].Add(50*vclock.Microsecond)))
	for _, at := range times {
		label := fmt.Sprintf("root crash at t=%v", at)
		run := func() map[int]*miniResult {
			spec := scenario()
			spec.Faults = []fault.Fault{fault.CrashAt(0, at)}
			results, err, ok := runMiniWatched(t, spec, cfg, n, cycles, true)
			if !ok || err != nil {
				t.Fatalf("%s: finished %v, err %v", label, ok, err)
			}
			return results
		}
		a := run()
		if got := changesOf(a[1]); !strings.HasPrefix(got, "removed rejoined") {
			t.Errorf("%s: rank 1's membership changes %q, want removed then rejoined", label, got)
		}
		owned := 0
		for r, res := range a {
			owned += res.ownedCnt
			if fmt.Sprint(res.globals) != fmt.Sprint(a[1].globals) {
				t.Errorf("%s: rank %d saw globals %v, rank 1 %v", label, r, res.globals, a[1].globals)
			}
		}
		if owned != n {
			t.Errorf("%s: the survivors own %d of %d rows", label, owned, n)
		}
		sameRecords(t, a, run())
	}
}

// TestGrowSurvivesTimedRootCrash: two nodes arrive at cycle 10, and one rank
// dies at evenly spaced instants across that cycle and densely across its
// opening, where the members spawn the joiners and the root sends them their
// packet. Every member spawns, and the others keep the packet, so a root that
// dies before sending it has a survivor re-send it; a death that voids the
// cycle's adaptation step defers the grow to the next cycle. Every run must
// finish with both joiners, the ranks must agree on every global of the
// cycles they share, the survivors must own every row once, and the run must
// replay exactly — with and without replication, one-sided, and with a
// removed rank that may or may not rejoin.
func TestGrowSurvivesTimedRootCrash(t *testing.T) {
	const n, cycles, arrival = 64, 24, 10
	cells := []struct {
		name string
		cp   bool // a competing process on node 1 from cycle 1
		set  func(*Config)
	}{
		{"dropnever", false, func(*Config) {}},
		{"replicate", false, func(c *Config) { c.Replicate = true }},
		{"rma", false, func(c *Config) { c.Replicate, c.ReplicaRMA = true, true }},
		{"removed", true, func(c *Config) { c.Drop = DropAlways }},
		{"removed/rejoin", true, func(c *Config) { c.Drop, c.AllowRejoin = DropAlways, true }},
	}
	for _, cl := range cells {
		t.Run(cl.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Drop = DropNever
			cl.set(&cfg)
			scenario := func() cluster.Spec {
				spec := cluster.Uniform(4).WithArrival(1.0, arrival).WithArrival(1.0, arrival)
				if cl.cp {
					spec = cpAtCycle(spec, 1, 1)
				}
				return spec
			}
			ref, err, ok := runMiniWatched(t, scenario(), cfg, n, cycles, true)
			if !ok || err != nil {
				t.Fatalf("fault-free run: finished %v, err %v", ok, err)
			}
			if got := changesOf(ref[4]); got != "resize-join" {
				t.Fatalf("joiner 4's membership changes %q, want it to join", got)
			}
			if cl.cp && (removedAt(ref[1]) < 0 || removedAt(ref[1]) >= arrival) {
				t.Fatalf("rank 1 removed at cycle %d; the test needs it removed before the arrival", removedAt(ref[1]))
			}
			var ends []vclock.Time // rank 0's clock at the end of each cycle
			for _, it := range only[telemetry.IterationRecord](ref[0].recs) {
				ends = append(ends, vclock.Time(vclock.FromSeconds(it.Time)))
			}
			open := ends[arrival-1]
			var times []vclock.Time
			for _, d := range []vclock.Duration{ends[arrival].Sub(open), 5 * vclock.Millisecond, vclock.Millisecond, 50 * vclock.Microsecond} {
				times = append(times, spread(open, open.Add(d))...)
			}
			victims := []int{0, 1, 3}
			if testing.Short() {
				victims = victims[:1] // the root: the one victim a root-only grow hung on
			}
			for _, victim := range victims {
				for _, at := range times {
					label := fmt.Sprintf("rank %d crash at t=%v", victim, at)
					run := func() map[int]*miniResult {
						spec := scenario()
						spec.Faults = []fault.Fault{fault.CrashAt(victim, at)}
						results, err, ok := runMiniWatched(t, spec, cfg, n, cycles, true)
						if !ok || err != nil {
							t.Fatalf("%s: finished %v, err %v", label, ok, err)
						}
						return results
					}
					a := run()
					if a[4] == nil || a[5] == nil {
						t.Fatalf("%s: a joiner did not finish", label)
					}
					want := a[2].globals // rank 2 is never a victim and reduces every cycle
					owned := 0
					for r, res := range a {
						owned += res.ownedCnt
						if tail := want[max(0, len(want)-len(res.globals)):]; !slices.Equal(res.globals, tail) {
							t.Errorf("%s: rank %d saw globals %v, rank 2 %v", label, r, res.globals, want)
						}
					}
					if owned != n {
						t.Errorf("%s: the survivors own %d of %d rows", label, owned, n)
					}
					sameRecords(t, a, run())
				}
			}
		})
	}
}
