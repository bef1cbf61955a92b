package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/mpi"
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

// TestRedistPipelinedOrderEquivalence is the randomized-completion-order
// suite: the pipelined Phase 3 must produce byte-identical telemetry traces
// and identical outcomes no matter in which physical order the incoming
// slabs are harvested. Seeded shuffles force adversarial claim orders
// through the redistHarvestShuffle hook; the replay-priced commit must
// erase them all. The reference is the unshuffled run, whose absolute
// timeline the exp goldens and sweep checksums pin. The crash row drives a
// failure recovery through the same drain: owner slabs and a holder's
// replica service are harvested side by side.
func TestRedistPipelinedOrderEquivalence(t *testing.T) {
	crash := cluster.Uniform(3)
	crash.Faults = []fault.Fault{fault.CrashAtCycle(2, 5)}
	replicated := DefaultConfig()
	replicated.Drop = DropNever
	replicated.Replicate = true
	replicated.ReplicaEvery = 1
	plain := DefaultConfig()
	plain.Drop = DropNever
	defer func() { redistHarvestShuffle = nil }()
	for _, sc := range []struct {
		name      string
		spec      cluster.Spec
		cfg       Config
		n, cycles int
	}{
		{"load", cpAtCycle(cluster.Uniform(4), 1, 3), plain, 64, 25},
		{"crash+replicate", crash, replicated, 48, 20},
	} {
		redistHarvestShuffle = nil
		refRes, refTrace := runMiniTraced(t, sc.spec, sc.cfg, sc.n, sc.cycles)
		if refRes[0].redists == 0 {
			t.Fatalf("%s: scenario produced no redistribution; suite is vacuous", sc.name)
		}
		for seed := int64(1); seed <= 4; seed++ {
			redistHarvestShuffle = func(c *mpi.Comm, reqs []*mpi.Request) {
				// Claim completions in a seeded random order, spinning
				// physically (never touching virtual clocks) until each chosen
				// request lands.
				rng := rand.New(rand.NewSource(seed*1009 + int64(c.Rank())))
				for _, i := range rng.Perm(len(reqs)) {
					for !c.Test(reqs[i]) {
						runtime.Gosched()
					}
				}
			}
			res, trace := runMiniTraced(t, sc.spec, sc.cfg, sc.n, sc.cycles)
			sameOutcome(t, sc.name+" shuffled", refRes, res)
			if !bytes.Equal(refTrace, trace) {
				t.Fatalf("%s seed %d: shuffled harvest trace differs from the unshuffled trace", sc.name, seed)
			}
		}
	}
}
