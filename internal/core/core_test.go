package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/drsd"
	"repro/internal/fault"
	"repro/internal/matrix"
	"repro/internal/mpi"
	"repro/internal/telemetry"
	"repro/internal/vclock"
)

// iterCost is sized so that phase cycles are long enough for the load
// monitor's 1-second sampling delay to detect mid-run CP changes within a
// modest number of cycles.
const iterCost = 10 * vclock.Millisecond

// traceInto returns the ring cfg already emits into, or attaches a fresh one:
// the telemetry stream is the runtime's only trace, so every suite that reads
// what a run did reads it from a per-world ring.
func traceInto(cfg *Config) *telemetry.Ring {
	if ring, ok := cfg.Telemetry.(*telemetry.Ring); ok {
		return ring
	}
	ring := telemetry.NewRing(1 << 16)
	cfg.Telemetry = ring
	return ring
}

// byNode splits the records ring holds per emitting node, each node's in
// emission order. An overflowed ring fails the test: a truncated trace would
// pass for a run that did less.
func byNode(t testing.TB, ring *telemetry.Ring) map[int][]telemetry.Record {
	t.Helper()
	if d := ring.Dropped(); d != 0 {
		t.Fatalf("telemetry ring overflowed (%d dropped)", d)
	}
	out := map[int][]telemetry.Record{}
	for _, rec := range ring.Records() {
		out[rec.Meta().Node] = append(out[rec.Meta().Node], rec)
	}
	return out
}

// only returns the records of type T in recs, in order.
func only[T telemetry.Record](recs []telemetry.Record) []T {
	var out []T
	for _, rec := range recs {
		if v, ok := rec.(T); ok {
			out = append(out, v)
		}
	}
	return out
}

// miniResult captures one rank's final state for cross-rank assertions.
type miniResult struct {
	rank     int
	redists  int
	removed  bool
	counts   []int
	recs     []telemetry.Record // this rank's trace, in emission order
	ownedOK  bool
	ownedCnt int
	final    vclock.Time
	relRank  int
	globals  []float64
	// globalAt is this rank's clock entering and leaving each global
	// reduction.
	globalAt [][2]vclock.Time
	lost     int // rows declared lost (runElastic only)
}

// runMini executes a synthetic workload: one dense array of N rows; every
// cycle each owned row is incremented (real data) and, when withGlobal is
// set, a global sum is reduced. Returns per-rank results.
func runMini(t *testing.T, spec cluster.Spec, cfg Config, n, cycles int, withGlobal bool) map[int]*miniResult {
	t.Helper()
	results, err := runMiniErr(t, spec, cfg, n, cycles, withGlobal)
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// runMiniErr is runMini for a world that may fail: it returns the world's
// error instead of failing the test.
func runMiniErr(t *testing.T, spec cluster.Spec, cfg Config, n, cycles int, withGlobal bool) (map[int]*miniResult, error) {
	t.Helper()
	ring := traceInto(&cfg)
	results, err := miniWorld(spec, cfg, n, cycles, withGlobal)
	if err != nil {
		return nil, err
	}
	withRecords(t, results, ring)
	return results, nil
}

// miniWorld runs runMini's world; the results carry no records yet.
func miniWorld(spec cluster.Spec, cfg Config, n, cycles int, withGlobal bool) (map[int]*miniResult, error) {
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
			if withGlobal {
				lo, hi := 0, 0
				if rt.Participating() {
					lo, hi = ph.Bounds()
				}
				local := 0.0
				for g := lo; g < hi; g++ {
					local += x.Row(g)[0]
				}
				t0 := c.Now()
				res.globals = append(res.globals, rt.AllreduceSum(local))
				res.globalAt = append(res.globalAt, [2]vclock.Time{t0, c.Now()})
			}
			rt.EndCycle()
		}
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
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// withRecords hands each reporting rank its records from ring.
func withRecords(t *testing.T, results map[int]*miniResult, ring *telemetry.Ring) {
	t.Helper()
	recs := byNode(t, ring)
	for r, res := range results {
		res.recs = recs[r]
	}
}

func cpAtCycle(spec cluster.Spec, node, cycle int) cluster.Spec {
	return spec.With(cluster.CycleEvent(node, cycle, +1))
}

func checkValuesAndCoverage(t *testing.T, results map[int]*miniResult, n int) {
	t.Helper()
	total := 0
	for r, res := range results {
		if res.removed {
			continue
		}
		if !res.ownedOK {
			t.Errorf("rank %d: owned rows corrupted after redistribution", r)
		}
		total += res.ownedCnt
	}
	if total != n {
		t.Errorf("owned rows cover %d of %d", total, n)
	}
}

func TestNoLoadNoRedistribution(t *testing.T) {
	cfg := DefaultConfig()
	results := runMini(t, cluster.Uniform(4), cfg, 64, 12, false)
	for r, res := range results {
		if res.redists != 0 {
			t.Errorf("rank %d: %d redistributions without load change", r, res.redists)
		}
		if res.ownedCnt != 16 {
			t.Errorf("rank %d owns %d rows, want 16", r, res.ownedCnt)
		}
	}
	checkValuesAndCoverage(t, results, 64)
}

func TestAdaptFalseIsInert(t *testing.T) {
	cfg := Config{Adapt: false, Alloc: matrix.Projection}
	spec := cpAtCycle(cluster.Uniform(4), 1, 3)
	results := runMini(t, spec, cfg, 64, 15, false)
	for r, res := range results {
		if res.redists != 0 || len(only[telemetry.DecisionRecord](res.recs)) != 0 ||
			len(only[telemetry.RedistRecord](res.recs)) != 0 || len(only[telemetry.MembershipRecord](res.recs)) != 0 {
			t.Errorf("rank %d: non-adaptive runtime adapted", r)
		}
	}
	checkValuesAndCoverage(t, results, 64)
}

func TestRedistributionShiftsWorkOffLoadedNode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Drop = DropNever
	spec := cpAtCycle(cluster.Uniform(4), 1, 3)
	results := runMini(t, spec, cfg, 64, 25, false)
	checkValuesAndCoverage(t, results, 64)
	res0 := results[0]
	if res0.redists != 1 {
		t.Fatalf("redists = %d, want 1", res0.redists)
	}
	counts := res0.counts
	if counts[1] >= counts[0] {
		t.Errorf("loaded node kept %d rows vs unloaded %d", counts[1], counts[0])
	}
	// Every rank must agree on the distribution.
	for r, res := range results {
		for i := range counts {
			if res.counts[i] != counts[i] {
				t.Fatalf("rank %d disagrees on distribution: %v vs %v", r, res.counts, counts)
			}
		}
	}
}

func TestRedistributionBeatsNoAdaptation(t *testing.T) {
	// The whole point of the paper: adapting must be faster than not.
	spec := cpAtCycle(cluster.Uniform(4), 1, 3)
	adaptCfg := DefaultConfig()
	adaptCfg.Drop = DropNever
	noCfg := Config{Adapt: false, Alloc: matrix.Projection}
	const n, cycles = 64, 60
	adapt := runMini(t, spec, adaptCfg, n, cycles, false)
	noAdapt := runMini(t, spec, noCfg, n, cycles, false)
	var tA, tN vclock.Time
	for _, res := range adapt {
		if res.final > tA {
			tA = res.final
		}
	}
	for _, res := range noAdapt {
		if res.final > tN {
			tN = res.final
		}
	}
	if tA >= tN {
		t.Errorf("Dyn-MPI run (%v) not faster than no-adaptation (%v)", tA, tN)
	}
}

func TestDropAlwaysRemovesLoadedNode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Drop = DropAlways
	spec := cpAtCycle(cluster.Uniform(4), 2, 3)
	results := runMini(t, spec, cfg, 64, 30, false)
	checkValuesAndCoverage(t, results, 64)
	if !results[2].removed {
		t.Fatal("loaded node was not removed")
	}
	if results[2].relRank != -1 {
		t.Fatal("removed node still has a relative rank")
	}
	if ms := only[telemetry.MembershipRecord](results[2].recs); len(ms) != 1 || ms[0].Change != "removed" {
		t.Fatalf("removed node reported %+v, want one removed membership record", ms)
	}
	// Survivors re-ranked densely.
	for _, r := range []int{0, 1, 3} {
		if results[r].removed {
			t.Fatalf("unloaded node %d removed", r)
		}
	}
	if results[3].relRank != 2 {
		t.Fatalf("rank 3 relative rank = %d, want 2 after removal of rank 2", results[3].relRank)
	}
}

func TestRemovedNodeReceivesGlobals(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Drop = DropAlways
	spec := cpAtCycle(cluster.Uniform(3), 0, 2)
	results := runMini(t, spec, cfg, 30, 20, true)
	checkValuesAndCoverage(t, results, 30)
	if !results[0].removed {
		t.Fatal("rank 0 was not removed")
	}
	g0, g1 := results[0].globals, results[1].globals
	if len(g0) != len(g1) {
		t.Fatalf("global op counts differ: %d vs %d", len(g0), len(g1))
	}
	for i := range g0 {
		if g0[i] != g1[i] {
			t.Fatalf("cycle %d: removed node saw %v, active saw %v", i, g0[i], g1[i])
		}
	}
}

func TestMaxRedistsCapsAdaptation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Drop = DropNever
	cfg.MaxRedists = 1
	// CP appears at cycle 3 and disappears at cycle 20: with the cap only
	// the first change triggers redistribution.
	spec := cluster.Uniform(4).
		With(cluster.CycleEvent(1, 3, +1)).
		With(cluster.CycleEvent(1, 20, -1))
	results := runMini(t, spec, cfg, 64, 40, false)
	checkValuesAndCoverage(t, results, 64)
	if results[0].redists != 1 {
		t.Fatalf("redists = %d, want exactly 1 with MaxRedists=1", results[0].redists)
	}
}

func TestSecondRedistributionOnLoadRemoval(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Drop = DropNever
	spec := cluster.Uniform(4).
		With(cluster.CycleEvent(1, 3, +1)).
		With(cluster.CycleEvent(1, 15, -1))
	results := runMini(t, spec, cfg, 40, 40, false)
	checkValuesAndCoverage(t, results, 40)
	if results[0].redists != 2 {
		t.Fatalf("redists = %d, want 2 (adapt to CP, adapt back)", results[0].redists)
	}
	// After the CP vanishes the distribution should be near-equal again.
	counts := results[0].counts
	for i, c := range counts {
		if c < 8 || c > 12 {
			t.Errorf("post-recovery counts %v not near-equal (node %d)", counts, i)
		}
	}
}

func TestLogicalDropKeepsNodeWithMinimumWork(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Drop = DropLogical
	spec := cpAtCycle(cluster.Uniform(4), 1, 3)
	results := runMini(t, spec, cfg, 64, 25, false)
	checkValuesAndCoverage(t, results, 64)
	if results[1].removed {
		t.Fatal("logical drop must not remove the node")
	}
	if got := results[1].counts[1]; got != 1 {
		t.Fatalf("logically dropped node owns %d rows, want 1", got)
	}
}

func TestSparseRedistributionPreservesValues(t *testing.T) {
	const n = 48
	cfg := DefaultConfig()
	cfg.Drop = DropNever
	spec := cpAtCycle(cluster.Uniform(3), 0, 3)
	err := mpi.Run(cluster.New(spec), func(c *mpi.Comm) error {
		rt := New(c, cfg)
		s := rt.RegisterSparse("S", n)
		ph := rt.InitPhase(n)
		ph.AddAccess("S", drsd.ReadWrite, 1, 0)
		rt.Commit()
		lo, hi := ph.Bounds()
		for g := lo; g < hi; g++ {
			for k := 0; k <= g%3; k++ {
				s.Append(g, int32(k), float64(g*100+k))
			}
		}
		for tstep := 0; tstep < 20; tstep++ {
			if rt.BeginCycle() {
				lo, hi = ph.Bounds()
				for g := lo; g < hi; g++ {
					for e := s.RowHead(g); e != nil; e = e.Next() {
						e.Val++
					}
					rt.ComputeIter(g, iterCost)
				}
			}
			rt.EndCycle()
		}
		rt.Finalize()
		if rt.Redistributions() == 0 {
			return fmt.Errorf("no redistribution happened")
		}
		lo, hi = ph.Bounds()
		for g := lo; g < hi; g++ {
			if s.RowLen(g) != g%3+1 {
				return fmt.Errorf("row %d has %d elements, want %d", g, s.RowLen(g), g%3+1)
			}
			k := 0
			for e := s.RowHead(g); e != nil; e = e.Next() {
				want := float64(g*100+k) + 20
				if e.Col != int32(k) || e.Val != want {
					return fmt.Errorf("row %d elem %d = (%d,%v), want (%d,%v)", g, k, e.Col, e.Val, k, want)
				}
				k++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGhostRowsFollowRedistribution(t *testing.T) {
	// A stencil app with ±1 accesses: after redistribution each rank's
	// window must include valid neighbour rows.
	const n = 40
	cfg := DefaultConfig()
	cfg.Drop = DropNever
	spec := cpAtCycle(cluster.Uniform(4), 3, 3)
	err := mpi.Run(cluster.New(spec), func(c *mpi.Comm) error {
		rt := New(c, cfg)
		x := rt.RegisterDense("X", n, 2)
		ph := rt.InitPhase(n)
		ph.AddAccess("X", drsd.Write, 1, 0)
		ph.AddAccess("X", drsd.Read, 1, -1)
		ph.AddAccess("X", drsd.Read, 1, +1)
		rt.Commit()
		x.Fill(func(g, j int) float64 { return float64(g) })
		for tstep := 0; tstep < 20; tstep++ {
			if rt.BeginCycle() {
				lo, hi := ph.Bounds()
				// Verify the window covers the stencil and ghosts hold the
				// right values (they are never written in this test).
				for g := lo; g < hi; g++ {
					for _, nb := range []int{g - 1, g + 1} {
						if nb < 0 || nb >= n {
							continue
						}
						if !x.Resident(nb) {
							return fmt.Errorf("cycle %d: row %d missing neighbour %d", tstep, g, nb)
						}
						if x.Row(nb)[0] != float64(nb) {
							return fmt.Errorf("cycle %d: ghost row %d = %v", tstep, nb, x.Row(nb)[0])
						}
					}
					rt.ComputeIter(g, iterCost)
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
}

func TestRegistrationValidation(t *testing.T) {
	err := mpi.Run(cluster.New(cluster.Uniform(1)), func(c *mpi.Comm) error {
		rt := New(c, DefaultConfig())
		rt.RegisterDense("A", 10, 2)
		func() {
			defer expectPanic(t, "duplicate registration")
			rt.RegisterDense("A", 10, 2)
		}()
		func() {
			defer expectPanic(t, "mismatched rows")
			rt.RegisterDense("B", 11, 2)
		}()
		ph := rt.InitPhase(10)
		func() {
			defer expectPanic(t, "unregistered array access")
			ph.AddAccess("Z", drsd.Read, 1, 0)
		}()
		ph.AddAccess("A", drsd.ReadWrite, 1, 0)
		rt.Commit()
		func() {
			defer expectPanic(t, "registration after commit")
			rt.RegisterDense("C", 10, 2)
		}()
		func() {
			defer expectPanic(t, "user tag in runtime space")
			rt.SendRel(0, tagBase+5, nil, 0)
		}()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func expectPanic(t *testing.T, what string) {
	t.Helper()
	if recover() == nil {
		t.Errorf("%s did not panic", what)
	}
}

func TestRelativeRankMessaging(t *testing.T) {
	err := mpi.Run(cluster.New(cluster.Uniform(3)), func(c *mpi.Comm) error {
		rt := New(c, DefaultConfig())
		rt.RegisterDense("A", 9, 1)
		ph := rt.InitPhase(9)
		ph.AddAccess("A", drsd.ReadWrite, 1, 0)
		rt.Commit()
		rr := rt.RelRank()
		if rr != c.Rank() {
			return fmt.Errorf("initial rel rank %d != world rank %d", rr, c.Rank())
		}
		if rr > 0 {
			rt.SendRel(rr-1, 1, []float64{float64(rr)}, 8)
		}
		if rr < rt.NumActive()-1 {
			v, _ := rt.RecvRelF64s(rr+1, 1)
			if v[0] != float64(rr+1) {
				return fmt.Errorf("got %v from right neighbour", v)
			}
		}
		if rt.WorldRankOf(rr) != c.Rank() {
			return fmt.Errorf("WorldRankOf broken")
		}
		rt.Barrier()
		rt.Finalize()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNonuniformIterationCostsShapeDistribution(t *testing.T) {
	// Iterations in the top half are 4x heavier; after adaptation to a CP,
	// the node holding heavy rows must own fewer of them.
	const n = 64
	cfg := DefaultConfig()
	cfg.Drop = DropNever
	spec := cpAtCycle(cluster.Uniform(4), 0, 3)
	var mu sync.Mutex
	var counts []int
	err := mpi.Run(cluster.New(spec), func(c *mpi.Comm) error {
		rt := New(c, cfg)
		x := rt.RegisterDense("X", n, 1)
		ph := rt.InitPhase(n)
		ph.AddAccess("X", drsd.ReadWrite, 1, 0)
		rt.Commit()
		x.Fill(func(g, j int) float64 { return 0 })
		cost := func(g int) vclock.Duration {
			if g < n/2 {
				return 16 * vclock.Millisecond
			}
			return 4 * vclock.Millisecond
		}
		for tstep := 0; tstep < 30; tstep++ {
			if rt.BeginCycle() {
				lo, hi := ph.Bounds()
				for g := lo; g < hi; g++ {
					rt.ComputeIter(g, cost(g))
				}
			}
			rt.EndCycle()
		}
		rt.Finalize()
		mu.Lock()
		if counts == nil && rt.Participating() {
			counts = rt.Dist().Counts()
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Node 0 (loaded, heavy half) must hold far fewer iterations than the
	// node holding cheap rows; unloaded heavy-row node 1 holds fewer rows
	// than cheap-row nodes despite equal fractions.
	if counts[0] >= counts[3] {
		t.Fatalf("counts %v: loaded heavy node not relieved", counts)
	}
	if counts[1] >= counts[3] {
		t.Fatalf("counts %v: weighting ignored per-iteration costs", counts)
	}
}

// TestRecordTraceShape pins what each adaptation action reports, once, on
// every rank. A load-driven run: one decision whose grace period began after
// the run did and before the decision, and one redistribution record that
// starts no later than it ends, moved bytes and stalled no negative time. A
// crash under replication: the dead rank is named on the recovery's
// redistribution records and nowhere else, and the failure-drop membership
// record says who left.
func TestRecordTraceShape(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Drop = DropNever
	results := runMini(t, cpAtCycle(cluster.Uniform(2), 1, 4), cfg, 32, 20, false)
	for r, res := range results {
		decs := only[telemetry.DecisionRecord](res.recs)
		if len(decs) != 1 || decs[0].Method != "successive-balancing" || fmt.Sprint(decs[0].Loads) != "[0 1]" {
			t.Fatalf("rank %d decisions %+v, want one successive-balancing decision on loads [0 1]", r, decs)
		}
		if d := decs[0]; !(0 < d.GraceVT && d.GraceVT < d.Time) {
			t.Errorf("rank %d: grace began at %v, decision at %v", r, d.GraceVT, d.Time)
		}
		reds := only[telemetry.RedistRecord](res.recs)
		if len(reds) != 1 {
			t.Fatalf("rank %d: %d redistribution records, want 1", r, len(reds))
		}
		if red := reds[0]; red.StartVT > red.Time || red.StallS < 0 || red.BytesMoved == 0 || red.Dead != nil {
			t.Errorf("rank %d: redistribution %+v: want start_vt <= vt, stall_s >= 0, bytes moved, no dead", r, red)
		}
		if ms := only[telemetry.MembershipRecord](res.recs); len(ms) != 0 {
			t.Errorf("rank %d: membership records %+v without a membership change", r, ms)
		}
	}

	cfg.Replicate, cfg.ReplicaEvery = true, 1
	spec := cpAtCycle(cluster.Uniform(4), 1, 3)
	spec.Faults = []fault.Fault{fault.CrashAtCycle(2, 18)}
	results = runMini(t, spec, cfg, 64, 25, false)
	for r, res := range results {
		var dead []string
		for _, red := range only[telemetry.RedistRecord](res.recs) {
			dead = append(dead, fmt.Sprint(red.Dead))
		}
		// A load-driven redistribution, the recovery, and the re-balance
		// around the loaded node on the survivors.
		if got := strings.Join(dead, " "); got != "[] [2] []" {
			t.Fatalf("rank %d: redistributions name dead ranks %s, want [] [2] []", r, got)
		}
		ms := only[telemetry.MembershipRecord](res.recs)
		if len(ms) != 1 || ms[0].Change != "failure-drop" || fmt.Sprint(ms[0].Left) != "[2]" || ms[0].Joined != nil {
			t.Errorf("rank %d: membership records %+v, want one failure-drop that left [2]", r, ms)
		}
	}
}
