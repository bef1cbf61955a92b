package core

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/telemetry"
)

// Pairwise-epoch suites: the deferred-Put replica refresh against the
// paired one, and the byte accounting of redistribution. The crash matrix,
// leak checks and determinism suites of the refresh live in rma_test.go.

// TestReplicaSyncModesSameValues: paired and deferred-Put refresh are
// transport-only choices — each must end with identical bit-exact array
// contents on every rank.
func TestReplicaSyncModesSameValues(t *testing.T) {
	const n, rowLen, cycles = 48, 4, 15
	paired := replicaRMACfg()
	paired.ReplicaRMA = false
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"paired", paired},
		{"pscw", replicaRMACfg()},
	} {
		results, leaked := runRMAMini(t, cluster.Uniform(4), tc.cfg, n, rowLen, cycles)
		checkRMAValues(t, results, n)
		if leaked != 0 {
			t.Errorf("%s: %d deposits leaked", tc.name, leaked)
		}
	}
}

// TestReplicaSyncPSCWCrashDeterminism: the pairwise adoption protocol must
// make recovery independent of physical scheduling, on a 4-rank ring where
// the victim's two neighbours are distinct ranks.
func TestReplicaSyncPSCWCrashDeterminism(t *testing.T) {
	run := func() map[int]*rmaResult {
		spec := cluster.Uniform(4)
		spec.Faults = []fault.Fault{fault.CrashAtCycle(2, 7)}
		results, _ := runRMAMini(t, spec, replicaRMACfg(), 64, 4, 15)
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
		}
	}
}

// sumRedistBytes totals the directional redistribution byte counters over
// every rank's redistribution records.
func sumRedistBytes(recs map[int][]telemetry.Record) (sent, recv, moved int64) {
	for _, rs := range recs {
		for _, r := range only[telemetry.RedistRecord](rs) {
			sent += r.BytesSent
			recv += r.BytesRecv
			moved += r.BytesMoved
		}
	}
	return
}

// TestRedistBytesConservation pins the accounting bugfix: on fault-free
// runs every redistributed payload is exactly one rank's send and another
// rank's receive, so the directional sums must match globally — and the
// per-rank BytesMoved must be their sum (the double-counting a single
// counter hides when summed across ranks).
func TestRedistBytesConservation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Drop = DropNever
	results, _ := runRMAMini(t, cpAtCycle(cluster.Uniform(4), 1, 3), cfg, 64, 4, 25)
	recs := map[int][]telemetry.Record{}
	redists := 0
	for r, res := range results {
		recs[r] = res.recs
		redists = res.redists
	}
	if redists == 0 {
		t.Fatal("no redistribution; suite is vacuous")
	}
	sent, recv, moved := sumRedistBytes(recs)
	if sent == 0 {
		t.Fatal("zero bytes sent")
	}
	if sent != recv {
		t.Errorf("Σ sent %d != Σ recv %d", sent, recv)
	}
	if moved != sent+recv {
		t.Errorf("Σ bytes moved %d != sent+recv %d", moved, sent+recv)
	}
}

// TestRedistBytesConservationOnGrow extends the conservation invariant
// through a grow: rows sent to a joiner must be accounted as receives that
// exactly match the sources' packed sends.
func TestRedistBytesConservationOnGrow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Drop = DropNever
	spec := cluster.Uniform(4).WithArrival(1.0, 10).WithArrival(1.0, 10)
	results := runElastic(t, spec, cfg, 64, 30, 0, 0)
	checkValuesAndCoverage(t, results, 64)
	if len(results) != 6 {
		t.Fatalf("%d ranks reported, want 6", len(results))
	}
	sent, recv, _ := sumRedistBytes(recordsOf(results))
	if sent == 0 {
		t.Fatal("zero bytes sent")
	}
	if sent != recv {
		t.Errorf("Σ sent %d != Σ recv %d across the grow", sent, recv)
	}
}

// TestReplicaSyncPSCWLargeRing runs the pairwise refresh on a wider ring
// (12 ranks) with a crash, making sure the pairwise failure observation —
// only the dead rank's ring neighbours see an error mid-refresh — still
// converges to a global recovery with exact values.
func TestReplicaSyncPSCWLargeRing(t *testing.T) {
	spec := cluster.Uniform(12)
	spec.Faults = []fault.Fault{fault.CrashAtCycle(7, 5)}
	results, leaked := runRMAMini(t, spec, replicaRMACfg(), 144, 4, 16)
	if len(results) != 11 {
		t.Fatalf("%d ranks reported, want the 11 survivors", len(results))
	}
	checkRMAValues(t, results, 144)
	for r, res := range results {
		if res.lost != 0 {
			t.Errorf("rank %d lost %d rows", r, res.lost)
		}
	}
	if leaked != 0 {
		t.Fatalf("%d deposits leaked", leaked)
	}
}
