package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/telemetry"
)

// runMiniTraced is runMini with a telemetry ring attached; it returns the
// per-rank results plus the deterministically sorted JSONL encoding of the
// full trace.
func runMiniTraced(t *testing.T, spec cluster.Spec, cfg Config, n, cycles int) (map[int]*miniResult, []byte) {
	t.Helper()
	ring := telemetry.NewRing(1 << 16)
	cfg.Telemetry = ring
	results := runMini(t, spec, cfg, n, cycles, false)
	if ring.Dropped() != 0 {
		t.Fatalf("telemetry ring overflowed (%d dropped)", ring.Dropped())
	}
	recs := ring.Records()
	telemetry.Sort(recs)
	var buf bytes.Buffer
	if err := telemetry.WriteJSONL(&buf, recs); err != nil {
		t.Fatal(err)
	}
	return results, buf.Bytes()
}

// sameOutcome asserts two runs are observably identical: final virtual
// times, distributions, event traces (including redistribution stall), and
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
		if len(ra.events) != len(rb.events) {
			t.Fatalf("%s: rank %d event count %d vs %d", label, r, len(ra.events), len(rb.events))
		}
		for i := range ra.events {
			ea, eb := fmt.Sprintf("%+v", ra.events[i]), fmt.Sprintf("%+v", rb.events[i])
			if ea != eb {
				t.Errorf("%s: rank %d event %d: %s vs %s", label, r, i, ea, eb)
			}
		}
	}
}

// TestRedistPipelinedOrderEquivalence is the randomized-completion-order
// suite: the pipelined Phase 3 must produce byte-identical telemetry traces
// and identical outcomes no matter in which physical order the incoming
// slabs are harvested. Seeded shuffles force adversarial claim orders
// through the redistHarvestShuffle hook; the replay-priced commit must
// erase them all. The reference is the unshuffled run, whose absolute
// timeline the exp goldens and sweep checksums pin.
func TestRedistPipelinedOrderEquivalence(t *testing.T) {
	const n, cycles = 64, 25
	scenario := func() cluster.Spec { return cpAtCycle(cluster.Uniform(4), 1, 3) }
	cfg := DefaultConfig()
	cfg.Drop = DropNever

	refRes, refTrace := runMiniTraced(t, scenario(), cfg, n, cycles)
	if refRes[0].redists == 0 {
		t.Fatal("scenario produced no redistribution; suite is vacuous")
	}

	defer func() { redistHarvestShuffle = nil }()
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
		res, trace := runMiniTraced(t, scenario(), cfg, n, cycles)
		sameOutcome(t, "shuffled", refRes, res)
		if !bytes.Equal(refTrace, trace) {
			t.Fatalf("seed %d: shuffled harvest trace differs from the unshuffled trace", seed)
		}
	}
}

// TestRedistOverlapReducesStall pins the opt-in arrival-order mode: on a
// scenario with real slab traffic it must not corrupt data, must still
// redistribute identically much work, and must not stall longer than the
// schedule-order drain. (The ≥20% stall-reduction claim on a skewed
// redistribution lives in the exp harness, where the network is slow enough
// to matter; here we assert the invariants.)
func TestRedistOverlapReducesStall(t *testing.T) {
	const n, cycles = 64, 25
	stallOf := func(res map[int]*miniResult) (total int64) {
		for _, r := range res {
			for _, ev := range r.events {
				if ev.Kind == EvRedistEnd {
					total += int64(ev.Stall)
				}
			}
		}
		return
	}
	cfg := DefaultConfig()
	cfg.Drop = DropNever
	cfg.RedistMode = RedistPipelined
	pip := runMini(t, cpAtCycle(cluster.Uniform(4), 1, 3), cfg, n, cycles, false)
	cfg.RedistMode = RedistOverlap
	ovl := runMini(t, cpAtCycle(cluster.Uniform(4), 1, 3), cfg, n, cycles, false)
	checkValuesAndCoverage(t, ovl, n)
	if pip[0].redists != ovl[0].redists {
		t.Fatalf("redist counts differ: %d vs %d", pip[0].redists, ovl[0].redists)
	}
	if s, p := stallOf(ovl), stallOf(pip); s > p {
		t.Fatalf("arrival-order commit stalled longer (%d) than schedule order (%d)", s, p)
	}
}
