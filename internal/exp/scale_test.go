package exp

import (
	"strings"
	"testing"
)

// TestScaleSoakDeterministic runs the soak twice at a CI-friendly size and
// requires the rendered reports — checksums, finish times, collective
// counters — to be byte-identical. This is the determinism contract of the
// sharded engine at scale: the last arriver folds the reduction in slot
// order, so physical goroutine arrival order must not leak into a single
// output byte (TestAllreduceFoldsInSlotOrder in internal/mpi pins the
// association itself).
func TestScaleSoakDeterministic(t *testing.T) {
	o := ScaleOptions{Sizes: []int{64}, Cycles: 8, VecLen: 64}
	if testing.Short() {
		o.Sizes = []int{32}
	}
	render := func() string {
		r, err := RunScale(o)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		r.Table().Render(&b)
		return b.String()
	}
	a, c := render(), render()
	if a != c {
		t.Fatalf("soak reports differ across identical runs:\n--- first ---\n%s--- second ---\n%s", a, c)
	}
	if !strings.Contains(a, "recursive-doubling") || !strings.Contains(a, "TOTAL") {
		t.Fatalf("report missing expected rows:\n%s", a)
	}
}

// TestScaleRecordsCoverEveryShape checks the telemetry side: one collective
// record per exercised shape per size, all carrying the group geometry.
func TestScaleRecordsCoverEveryShape(t *testing.T) {
	r, err := RunScale(ScaleOptions{Sizes: []int{16}, Cycles: 2, VecLen: 64})
	if err != nil {
		t.Fatal(err)
	}
	// The mix exercises barrier, bcast, allreduce, allgather-f64 and gather.
	if len(r.Records) != 5 {
		t.Fatalf("got %d collective records, want 5", len(r.Records))
	}
	for _, rec := range r.Records {
		if rec.Kind() != "collective" {
			t.Errorf("record kind %q, want collective", rec.Kind())
		}
	}
}
