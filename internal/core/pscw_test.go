package core

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
)

// Replica-sync mode suites: the deferred-Put refresh (default) and the
// adaptive per-pair mode. The default-mode crash matrix, leak checks and
// determinism suites live in rma_test.go; this file pins what is specific
// to the mode split.

// replicaAdaptiveCfg is replicaRMACfg with the per-pair adaptive verdict.
func replicaAdaptiveCfg() Config {
	cfg := replicaRMACfg()
	cfg.ReplicaSync = SyncAdaptive
	return cfg
}

// TestReplicaSyncModesSameValues: paired, deferred-Put and adaptive refresh
// are transport-only choices — each must end with identical bit-exact array
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
		{"adaptive", replicaAdaptiveCfg()},
	} {
		results, leaked := runRMAMini(t, cluster.Uniform(4), tc.cfg, n, rowLen, cycles)
		checkRMAValues(t, results, n)
		if leaked != 0 {
			t.Errorf("%s: %d deposits leaked", tc.name, leaked)
		}
	}
}

// TestReplicaSyncAdaptivePicksPut: with the default fast cycles (compute
// dwarfs the slab wire time) every adaptive verdict after the first mark
// must stay with the deferred Put — the cheap steady-state choice.
func TestReplicaSyncAdaptivePicksPut(t *testing.T) {
	results, leaked := runRMAMini(t, cluster.Uniform(4), replicaAdaptiveCfg(), 64, 4, 12)
	checkRMAValues(t, results, 64)
	if leaked != 0 {
		t.Fatalf("%d deposits leaked", leaked)
	}
	for r, res := range results {
		if res.adaptPut == 0 {
			t.Errorf("rank %d made no put-mode refreshes", r)
		}
		if res.adaptSend != 0 {
			t.Errorf("rank %d chose %d paired refreshes despite wire ≪ cycle span", r, res.adaptSend)
		}
	}
}

// TestReplicaSyncAdaptivePicksSend: with slabs so large the wire time
// exceeds the cycle span, the verdict must flip to immediate paired sends
// — a deferred Put could never hide behind one cycle of computation.
func TestReplicaSyncAdaptivePicksSend(t *testing.T) {
	// 16 rows/rank × 32768 × 8 B ≈ 4.2 MB/slab ≈ 0.34 s on the default
	// 12.5 MB/s wire, against a 16-iteration × 10 ms ≈ 0.16 s cycle.
	results, leaked := runRMAMini(t, cluster.Uniform(4), replicaAdaptiveCfg(), 64, 32768, 6)
	checkRMAValues(t, results, 64)
	if leaked != 0 {
		t.Fatalf("%d deposits leaked", leaked)
	}
	for r, res := range results {
		if res.adaptSend == 0 {
			t.Errorf("rank %d never flipped to paired sends despite wire > cycle span (put=%d)", r, res.adaptPut)
		}
	}
}

// TestReplicaSyncAdaptiveCrash drives the adaptive mode through the crash
// matrix: whatever the per-epoch transport, recovery must stay exact and
// leak-free (the adoption guard skips epochs whose slabs arrived paired).
func TestReplicaSyncAdaptiveCrash(t *testing.T) {
	for _, cycle := range []int{1, 6, 13} {
		spec := cluster.Uniform(3)
		spec.Faults = []fault.Fault{fault.CrashAtCycle(1, cycle)}
		results, leaked := runRMAMini(t, spec, replicaAdaptiveCfg(), 48, 4, 20)
		if len(results) != 2 {
			t.Fatalf("cycle %d: %d ranks reported", cycle, len(results))
		}
		checkRMAValues(t, results, 48)
		for r, res := range results {
			if res.lost != 0 {
				t.Errorf("cycle %d: rank %d lost %d rows", cycle, r, res.lost)
			}
		}
		if leaked != 0 {
			t.Errorf("cycle %d: %d deposits leaked", cycle, leaked)
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
// every rank's redist-end events.
func sumRedistBytes(events map[int][]Event) (sent, recv, legacy int64) {
	for _, evs := range events {
		for _, ev := range evs {
			if ev.Kind != EvRedistEnd {
				continue
			}
			sent += ev.BytesSent
			recv += ev.BytesRecv
			legacy += ev.Bytes
		}
	}
	return
}

// TestRedistBytesConservation pins the accounting bugfix: on fault-free
// runs every redistributed payload is exactly one rank's send and another
// rank's receive, so the directional sums must match globally — and the
// legacy Bytes field must be their sum (the double-counting the old single
// counter hid when summed across ranks).
func TestRedistBytesConservation(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  func() Config
	}{
		{"pipelined", func() Config {
			cfg := DefaultConfig()
			cfg.Drop = DropNever
			return cfg
		}},
		{"rma", func() Config {
			cfg := DefaultConfig()
			cfg.Drop = DropNever
			cfg.RedistMode = RedistRMA
			return cfg
		}},
	} {
		spec := cpAtCycle(cluster.Uniform(4), 1, 3)
		results, _ := runRMAMini(t, spec, tc.cfg(), 64, 4, 25)
		events := map[int][]Event{}
		redists := 0
		for r, res := range results {
			events[r] = res.events
			redists = res.redists
		}
		if redists == 0 {
			t.Fatalf("%s: no redistribution; suite is vacuous", tc.name)
		}
		sent, recv, legacy := sumRedistBytes(events)
		if sent == 0 {
			t.Fatalf("%s: zero bytes sent", tc.name)
		}
		if sent != recv {
			t.Errorf("%s: Σ sent %d != Σ recv %d", tc.name, sent, recv)
		}
		if legacy != sent+recv {
			t.Errorf("%s: legacy Bytes sum %d != sent+recv %d", tc.name, legacy, sent+recv)
		}
	}
}

// TestRedistBytesConservationOnGrow extends the conservation invariant
// through a grow: the joiner-fetch path (Get under PSCW) must account its
// pulls as receives that exactly match the sources' packed sends.
func TestRedistBytesConservationOnGrow(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode RedistMode
	}{
		{"pipelined", RedistPipelined},
		{"rma", RedistRMA},
	} {
		cfg := DefaultConfig()
		cfg.Drop = DropNever
		cfg.RedistMode = tc.mode
		spec := cluster.Uniform(4).WithArrival(1.0, 10).WithArrival(1.0, 10)
		results := runElastic(t, spec, cfg, 64, 30, 0, 0)
		checkValuesAndCoverage(t, results, 64)
		if len(results) != 6 {
			t.Fatalf("%s: %d ranks reported, want 6", tc.name, len(results))
		}
		events := map[int][]Event{}
		for r, res := range results {
			events[r] = res.events
		}
		sent, recv, _ := sumRedistBytes(events)
		if sent == 0 {
			t.Fatalf("%s: zero bytes sent", tc.name)
		}
		if sent != recv {
			t.Errorf("%s: Σ sent %d != Σ recv %d across the grow", tc.name, sent, recv)
		}
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
