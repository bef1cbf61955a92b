package core

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/drsd"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/telemetry"
	"repro/internal/vclock"
)

// rmaResult captures one rank's final state for the one-sided suites.
type rmaResult struct {
	rank      int
	redists   int
	removed   bool
	counts    []int
	recs      []telemetry.Record // this rank's trace, in emission order
	ownedOK   bool
	ownedCnt  int
	final     vclock.Time
	stall     vclock.Duration
	lost      int
	recovered int
}

// runRMAMini is runMini with the hooks the one-sided suites need: it
// surfaces the World (for LeakedOps) and records each rank's cumulative
// refresh stall. Each rank ends with Finalize alone, which must settle the
// final replica epoch. rowLen is a
// parameter so the stall suites can make the replica slabs large enough
// for wire time to matter.
func runRMAMini(t *testing.T, spec cluster.Spec, cfg Config, n, rowLen, cycles int) (map[int]*rmaResult, int) {
	t.Helper()
	ring := traceInto(&cfg)
	var mu sync.Mutex
	results := map[int]*rmaResult{}
	w := mpi.NewWorld(cluster.New(spec))
	err := w.Run(func(c *mpi.Comm) error {
		rt := New(c, cfg)
		x := rt.RegisterDense("X", n, rowLen)
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
		res := &rmaResult{
			rank:      c.Rank(),
			redists:   rt.Redistributions(),
			removed:   !rt.Participating(),
			final:     c.Now(),
			stall:     rt.ReplicaStall(),
			recovered: rt.RecoveredRows(),
		}
		for _, lr := range rt.LostRows() {
			res.lost += lr.Hi - lr.Lo
		}
		if rt.Participating() {
			res.counts = rt.Dist().Counts()
			lo, hi := ph.Bounds()
			res.ownedOK = true
			res.ownedCnt = hi - lo
			for g := lo; g < hi; g++ {
				for j := 0; j < rowLen; j++ {
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
		t.Fatal(err)
	}
	recs := byNode(t, ring)
	for r, res := range results {
		res.recs = recs[r]
	}
	return results, w.LeakedOps()
}

// checkRMAValues asserts the surviving ranks jointly cover all n rows with
// the exact fault-free values (every row ends at g*10+cycles bit-for-bit).
func checkRMAValues(t *testing.T, results map[int]*rmaResult, n int) {
	t.Helper()
	total := 0
	for r, res := range results {
		if res.removed {
			continue
		}
		if !res.ownedOK {
			t.Errorf("rank %d holds wrong values", r)
		}
		total += res.ownedCnt
	}
	if total != n {
		t.Errorf("owned rows cover %d of %d", total, n)
	}
}

// replicaRMACfg is the standard per-cycle one-sided replication config.
func replicaRMACfg() Config {
	cfg := DefaultConfig()
	cfg.Drop = DropNever
	cfg.Replicate = true
	cfg.ReplicaEvery = 1
	cfg.ReplicaRMA = true
	return cfg
}

// TestReplicaRMACrashRecoveryBitExact is the acceptance contract: with
// ReplicaEvery=1 the one-sided refresh must reconstruct a crashed rank's
// rows bit-exactly — every surviving row finishes at the value an
// uninterrupted run produces. The deferred epoch makes the adoption path
// load-bearing here: at the crash the *committed* replica is one refresh
// stale, and only adopting the dead predecessor's still-pending deposit
// (proved complete by PendingPSCW) restores the same end-of-previous-cycle
// snapshot the paired path ships eagerly.
func TestReplicaRMACrashRecoveryBitExact(t *testing.T) {
	spec := cluster.Uniform(3)
	spec.Faults = []fault.Fault{fault.CrashAtCycle(2, 5)}
	results, leaked := runRMAMini(t, spec, replicaRMACfg(), 48, 4, 20)
	if len(results) != 2 {
		t.Fatalf("%d ranks reported, want the 2 survivors", len(results))
	}
	checkRMAValues(t, results, 48)
	recovered := 0
	for r, res := range results {
		if res.lost != 0 {
			t.Errorf("rank %d lost %d rows despite one-sided replication", r, res.lost)
		}
		recovered += res.recovered
	}
	if recovered == 0 {
		t.Fatal("no rows recovered from replica windows")
	}
	if leaked != 0 {
		t.Fatalf("%d window deposits leaked on teardown", leaked)
	}
}

// TestReplicaRMACrashMatrix sweeps victims and crash cycles through the
// one-sided refresh: every combination must recover without losing rows,
// finish with exact values, and settle or discard every deposit (zero
// leaks at teardown). Run under -race this doubles as the concurrency
// suite for the epoch/adoption protocol.
func TestReplicaRMACrashMatrix(t *testing.T) {
	for _, victim := range []int{1, 2} {
		for _, cycle := range []int{1, 6, 13} {
			spec := cluster.Uniform(3)
			spec.Faults = []fault.Fault{fault.CrashAtCycle(victim, cycle)}
			results, leaked := runRMAMini(t, spec, replicaRMACfg(), 48, 4, 20)
			if len(results) != 2 {
				t.Fatalf("victim %d cycle %d: %d ranks reported", victim, cycle, len(results))
			}
			checkRMAValues(t, results, 48)
			for r, res := range results {
				if res.lost != 0 {
					t.Errorf("victim %d cycle %d: rank %d lost %d rows", victim, cycle, r, res.lost)
				}
			}
			if leaked != 0 {
				t.Errorf("victim %d cycle %d: %d deposits leaked", victim, cycle, leaked)
			}
		}
	}
}

// TestReplicaRMAFaultFreeLeakFree: Commit, per-cycle one-sided refreshes
// and Finalize — the whole lifecycle a program writes — must leave no
// deposit pending at world teardown: Finalize settles the epoch the last
// refresh opened. The window-layer analogue of the engine's leaked-ops
// contract.
func TestReplicaRMAFaultFreeLeakFree(t *testing.T) {
	results, leaked := runRMAMini(t, cluster.Uniform(4), replicaRMACfg(), 64, 4, 12)
	checkRMAValues(t, results, 64)
	if leaked != 0 {
		t.Fatalf("%d deposits leaked after a fault-free run", leaked)
	}
}

// TestReplicaRMACrashDeterminism: the failed-wait adoption protocol must
// make recovery independent of physical scheduling — two runs of the same
// crash scenario produce identical finish times and record streams.
func TestReplicaRMACrashDeterminism(t *testing.T) {
	run := func() map[int]*rmaResult {
		spec := cluster.Uniform(3)
		spec.Faults = []fault.Fault{fault.CrashAtCycle(1, 5)}
		results, _ := runRMAMini(t, spec, replicaRMACfg(), 48, 4, 15)
		return results
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("survivor sets differ: %d vs %d", len(a), len(b))
	}
	for r, ra := range a {
		rb := b[r]
		if rb == nil || ra.final != rb.final {
			t.Errorf("rank %d finish differs across runs: %v vs %v", r, ra.final, rb)
			continue
		}
		if !reflect.DeepEqual(ra.recs, rb.recs) {
			t.Errorf("rank %d records differ across runs", r)
		}
	}
}

// TestReplicaRefreshRMAStallReduction pins the perf claim at the runtime
// level: on a per-cycle refresh with slabs large enough for wire time to
// matter, deferring the settlement a full compute cycle must cut the
// holder-side stall by well over the 30%% the benchmark gate requires.
func TestReplicaRefreshRMAStallReduction(t *testing.T) {
	const n, rowLen, cycles = 64, 2048, 12
	p2p := replicaRMACfg()
	p2p.ReplicaRMA = false
	p2pRes, _ := runRMAMini(t, cluster.Uniform(4), p2p, n, rowLen, cycles)
	rmaRes, leaked := runRMAMini(t, cluster.Uniform(4), replicaRMACfg(), n, rowLen, cycles)
	checkRMAValues(t, p2pRes, n)
	checkRMAValues(t, rmaRes, n)
	if leaked != 0 {
		t.Fatalf("%d deposits leaked", leaked)
	}
	var sp, sr vclock.Duration
	for r := range p2pRes {
		sp += p2pRes[r].stall
		sr += rmaRes[r].stall
	}
	if sp == 0 {
		t.Fatal("paired refresh shows zero stall; scenario is vacuous")
	}
	if sr > sp*7/10 {
		t.Fatalf("one-sided refresh stall %v not ≤ 70%% of paired %v", sr, sp)
	}
}

// recordsOf collects each rank's records for sumRedistBytes.
func recordsOf(results map[int]*miniResult) map[int][]telemetry.Record {
	recs := map[int][]telemetry.Record{}
	for r, res := range results {
		recs[r] = res.recs
	}
	return recs
}

// TestRefreshStallCountsTrailingRefresh: the paired refresh that trails an
// ordinary redistribution is a refresh like any other, so its receive-side
// stall counts in ReplicaStall. With ReplicaEvery 0 and paired transport
// the only refreshes are Commit's and the one after the Resize, so a
// survivor's stall must grow past what it read right after Commit.
func TestRefreshStallCountsTrailingRefresh(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Drop = DropNever
	cfg.Replicate = true
	var mu sync.Mutex
	grew := map[int]bool{}
	err := mpi.Run(cluster.New(cluster.Uniform(4)), func(c *mpi.Comm) error {
		rt := New(c, cfg)
		x := rt.RegisterDense("X", 48, 64)
		ph := rt.InitPhase(48)
		ph.AddAccess("X", drsd.ReadWrite, 1, 0)
		rt.Commit()
		x.Fill(func(g, j int) float64 { return float64(g) })
		committed := rt.ReplicaStall()
		for tstep := 0; tstep < 6; tstep++ {
			if tstep == 2 && rt.Participating() {
				rt.Resize(3)
			}
			if rt.BeginCycle() {
				lo, hi := ph.Bounds()
				rt.ComputeIters(lo, hi, iterCost)
			}
			rt.EndCycle()
		}
		rt.Finalize()
		if rt.Participating() {
			if rt.Redistributions() == 0 {
				t.Errorf("rank %d: the Resize redistributed nothing", c.Rank())
			}
			mu.Lock()
			grew[c.Rank()] = rt.ReplicaStall() > committed
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(grew) != 3 {
		t.Fatalf("%d survivors, want 3", len(grew))
	}
	for r, ok := range grew {
		if !ok {
			t.Errorf("rank %d: the refresh after the redistribution added no stall", r)
		}
	}
}
