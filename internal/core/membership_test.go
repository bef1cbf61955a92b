package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/telemetry"
)

// carried walks a packet by reflection and returns how many numbers and how
// many name bytes it holds. Every field must be populated, so a field added to
// the membership or the packet fails here until the test fills it in — and
// then fails the price check below unless wireBytes charges for it.
func carried(t *testing.T, v reflect.Value) (nums, names int) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), v.Type().Field(i).Name
		switch {
		case f.Kind() == reflect.Struct:
			n, b := carried(t, f)
			nums, names = nums+n, names+b
		case f.Kind() == reflect.Int && f.Int() != 0:
			nums++
		case f.Kind() == reflect.Slice && f.Len() > 0 && f.Type().Elem().Kind() == reflect.String:
			for j := 0; j < f.Len(); j++ {
				names += f.Index(j).Len()
			}
		case f.Kind() == reflect.Slice && f.Len() > 0 &&
			(f.Type().Elem().Kind() == reflect.Int || f.Type().Elem().Kind() == reflect.Float64):
			nums += f.Len()
		default:
			t.Fatalf("packet field %s (%v) is empty or of a kind this test cannot count: populate it, and price it in wireBytes", name, f.Type())
		}
	}
	return nums, names
}

// TestPacketPricesEverythingItCarries: 8 bytes per int and per float, the
// array-name bytes and the cycle/space header only to a spawned rank, and
// nothing for a field that is empty. No field may ride for free.
func TestPacketPricesEverythingItCarries(t *testing.T) {
	full := packet{
		membership: membership{
			active: make([]int, 1), removed: make([]int, 2), heldOut: make([]int, 3), claimed: make([]int, 4),
			baseLoads: make([]int, 5), iterCosts: make([]float64, 6), redists: 7,
		},
		oldRanks: make([]int, 8), oldCounts: make([]int, 9), newCounts: make([]int, 10),
		cycle: 11, space: 12, arrays: []string{"ab", "cde"},
	}
	nums, names := carried(t, reflect.ValueOf(full))
	if got, want := full.wireBytes(), 8*nums+names; got != want {
		t.Errorf("spawned rank's packet priced at %d bytes, carries %d numbers and %d name bytes = %d", got, nums, names, want)
	}
	verdict := full
	verdict.cycle, verdict.space, verdict.arrays = 0, 0, nil
	if got, want := verdict.wireBytes(), 8*(nums-2); got != want {
		t.Errorf("rejoin verdict priced at %d bytes, carries %d numbers = %d", got, nums-2, want)
	}
	unmeasured := verdict
	unmeasured.iterCosts, unmeasured.heldOut = nil, nil
	if got, want := unmeasured.wireBytes(), 8*(nums-2-6-3); got != want {
		t.Errorf("empty fields are not free: %d bytes, want %d", got, want)
	}
	if got := (&packet{}).wireBytes(); got != 8 {
		t.Errorf("the empty verdict costs %d bytes, want one word", got)
	}
}

// TestReshapeReportsEachSide runs every live cause through one world — rank 3
// dropped, reserve 4 spawned, rank 3 readmitted, reserve 5 spawned and shrunk
// out again — and pins what each side reports: the MembershipRecord change and
// the Event of the ranks that stay, and of the rank that enters or leaves.
func TestReshapeReportsEachSide(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Drop = DropAlways
	cfg.AllowRejoin = true
	ring := telemetry.NewRing(1 << 16)
	cfg.Telemetry = ring
	spec := cluster.Uniform(4).WithArrival(1.0, -1).WithArrival(1.0, -1).
		With(cluster.CycleEvent(3, 2, +1)).With(cluster.CycleEvent(3, 18, -1))
	results := runReshape(t, spec, cfg, 64, 44, map[int]int{12: 4, 30: 6, 38: 5}, uniformCost)
	checkValuesAndCoverage(t, results, 64)

	changes := map[int][]string{}
	recs := ring.Records()
	telemetry.Sort(recs)
	for _, rec := range recs {
		if m, ok := rec.(telemetry.MembershipRecord); ok {
			changes[m.Node] = append(changes[m.Node], m.Change)
		}
	}
	events := map[int][]string{}
	for r, res := range results {
		for _, ev := range res.events {
			switch ev.Kind {
			case EvDrop, EvRemoved, EvRejoin, EvResize:
				events[r] = append(events[r], strings.TrimSpace(ev.Kind.String()+" "+ev.Info))
			}
		}
	}
	for r, want := range map[int]struct{ changes, events string }{
		0: {"drop resize-grow rejoin resize-grow resize-shrink",
			"drop active=[0 1 2] removed=[3]; resize grow joiners=[4]; rejoin; resize grow joiners=[5]; resize shrink active=[0 1 2 3 4] removed=[5]"},
		3: {"removed rejoined resize-grow resize-shrink",
			"removed; rejoin rejoined; resize grow joiners=[5]; resize shrink active=[0 1 2 3 4] removed=[5]"},
		4: {"resize-join rejoin resize-grow resize-shrink",
			"resize joined; rejoin; resize grow joiners=[5]; resize shrink active=[0 1 2 3 4] removed=[5]"},
		5: {"resize-join resize-removed", "resize joined; removed resize"},
	} {
		if got := strings.Join(changes[r], " "); got != want.changes {
			t.Errorf("rank %d membership records %q, want %q", r, got, want.changes)
		}
		if got := strings.Join(events[r], "; "); got != want.events {
			t.Errorf("rank %d events %q, want %q", r, got, want.events)
		}
	}
}
