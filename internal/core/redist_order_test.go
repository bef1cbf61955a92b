package core

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/telemetry"
)

// runMiniTraced is runMini that also returns the deterministically sorted
// JSONL encoding of the whole world's trace, crashed ranks' records included.
func runMiniTraced(t *testing.T, spec cluster.Spec, cfg Config, n, cycles int) (map[int]*miniResult, []byte) {
	t.Helper()
	ring := traceInto(&cfg)
	results := runMini(t, spec, cfg, n, cycles, false)
	recs := ring.Records()
	telemetry.Sort(recs)
	var buf bytes.Buffer
	if err := telemetry.WriteJSONL(&buf, recs); err != nil {
		t.Fatal(err)
	}
	return results, buf.Bytes()
}

// sameOutcome asserts two runs are observably identical: final virtual
// times, distributions, record streams (including redistribution stall), and
// data values per rank.
func sameOutcome(t *testing.T, label string, a, b map[int]*miniResult) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: rank count %d vs %d", label, len(a), len(b))
	}
	for r, ra := range a {
		rb := b[r]
		if ra.final != rb.final {
			t.Errorf("%s: rank %d finish %v vs %v", label, r, ra.final, rb.final)
		}
		if ra.redists != rb.redists || !ra.ownedOK || !rb.ownedOK {
			t.Errorf("%s: rank %d redists/values diverged", label, r)
		}
		if !reflect.DeepEqual(ra.recs, rb.recs) {
			t.Errorf("%s: rank %d record streams differ", label, r)
		}
	}
}

// TestRedistScheduleOrderReplay: the message-passing Phase 3 waits on and
// commits its receives in schedule order, so its telemetry trace and outcome
// cannot depend on the physical order in which slabs arrive. Each scenario
// runs on one OS thread, where ranks interleave only at blocking points, and
// on eight, where senders run in parallel and arrival order varies; the two
// runs must match byte for byte. The crash row drives a failure recovery
// through the same drain: owner slabs and a holder's replica service arrive
// side by side.
func TestRedistScheduleOrderReplay(t *testing.T) {
	crash := cluster.Uniform(3)
	crash.Faults = []fault.Fault{fault.CrashAtCycle(2, 5)}
	replicated := DefaultConfig()
	replicated.Drop = DropNever
	replicated.Replicate = true
	replicated.ReplicaEvery = 1
	plain := DefaultConfig()
	plain.Drop = DropNever
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, sc := range []struct {
		name      string
		spec      cluster.Spec
		cfg       Config
		n, cycles int
	}{
		{"load", cpAtCycle(cluster.Uniform(4), 1, 3), plain, 64, 25},
		{"crash+replicate", crash, replicated, 48, 20},
	} {
		runtime.GOMAXPROCS(1)
		refRes, refTrace := runMiniTraced(t, sc.spec, sc.cfg, sc.n, sc.cycles)
		if refRes[0].redists == 0 {
			t.Fatalf("%s: scenario produced no redistribution; test is vacuous", sc.name)
		}
		runtime.GOMAXPROCS(8)
		res, trace := runMiniTraced(t, sc.spec, sc.cfg, sc.n, sc.cycles)
		sameOutcome(t, sc.name+" GOMAXPROCS 1 vs 8", refRes, res)
		if !bytes.Equal(refTrace, trace) {
			t.Fatalf("%s: trace at GOMAXPROCS 8 differs from GOMAXPROCS 1", sc.name)
		}
	}
}
