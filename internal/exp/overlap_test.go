package exp

import "testing"

// TestOverlapShape runs the halo overlap study on a reduced ladder and
// checks the structural claims: overlap never slows an app down, checksums
// are unchanged (enforced inside RunOverlap), hidden wire is recorded
// everywhere, and the small-world halo apps get a real makespan win.
func TestOverlapShape(t *testing.T) {
	if testing.Short() {
		t.Skip("overlap study is slow")
	}
	res, err := RunOverlap([]int{4, 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 { // 3 apps x 2 sizes
		t.Fatalf("expected 6 rows, got %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.OverlapS > row.SerialS {
			t.Errorf("%s/%d: overlap %.3fs slower than serial %.3fs", row.App, row.Nodes, row.OverlapS, row.SerialS)
		}
		if row.HiddenS <= 0 {
			t.Errorf("%s/%d: no hidden wire recorded", row.App, row.Nodes)
		}
		if row.HiddenFrac < 0 || row.HiddenFrac > 1 {
			t.Errorf("%s/%d: hidden fraction %.2f out of range", row.App, row.Nodes, row.HiddenFrac)
		}
		if row.App != "particles" && row.Nodes == 4 && row.Delta() <= 0 {
			t.Errorf("%s/%d: no makespan win from overlap (%.3fs vs %.3fs)", row.App, row.Nodes, row.SerialS, row.OverlapS)
		}
	}
	if tb := res.Table(); len(tb.Rows) != len(res.Rows) {
		t.Fatalf("table rows: %d", len(tb.Rows))
	}
}
