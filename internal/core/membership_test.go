package core

import (
	"fmt"
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
// out again — and pins what each side reports: the MembershipRecord change of
// the ranks that stay and of the rank that enters or leaves, and on both sides
// the ranks the change took out (-) and in (+).
func TestReshapeReportsEachSide(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Drop = DropAlways
	cfg.AllowRejoin = true
	spec := cluster.Uniform(4).WithArrival(1.0, -1).WithArrival(1.0, -1).
		With(cluster.CycleEvent(3, 2, +1)).With(cluster.CycleEvent(3, 18, -1))
	results := runReshape(t, spec, cfg, 64, 44, map[int]int{12: 4, 30: 6, 38: 5}, uniformCost)
	checkValuesAndCoverage(t, results, 64)

	for r, want := range map[int]string{
		0: "drop -[3]; resize-grow +[4]; rejoin +[3]; resize-grow +[5]; resize-shrink -[5]",
		3: "removed -[3]; rejoined +[3]; resize-grow +[5]; resize-shrink -[5]",
		4: "resize-join +[4]; rejoin +[3]; resize-grow +[5]; resize-shrink -[5]",
		5: "resize-join +[5]; resize-removed -[5]",
	} {
		var got []string
		for _, m := range only[telemetry.MembershipRecord](results[r].recs) {
			line := m.Change
			if m.Left != nil {
				line += fmt.Sprintf(" -%v", m.Left)
			}
			if m.Joined != nil {
				line += fmt.Sprintf(" +%v", m.Joined)
			}
			got = append(got, line)
		}
		if got := strings.Join(got, "; "); got != want {
			t.Errorf("rank %d membership records %q, want %q", r, got, want)
		}
	}
}
