package exp

import "testing"

// TestOverlapRedistWindowReduction pins the redistribution row: on the
// skewed-load scenario, one-sided commits cut the slowest rank's
// redistribution window by at least 10% against schedule-order drain
// commits (16.5% measured).
func TestOverlapRedistWindowReduction(t *testing.T) {
	pip, rma, err := runOverlapRedist(0)
	if err != nil {
		t.Fatal(err)
	}
	if pip <= 0 || rma <= 0 {
		t.Fatalf("degenerate windows: pipelined=%.4fs rma=%.4fs", pip, rma)
	}
	res := &OverlapResult{RedistWindowPipelinedS: pip, RedistWindowRMAS: rma}
	if r := res.WindowReduction(); r < 0.10 {
		t.Fatalf("window reduction %.1f%% below the 10%% bar (pipelined %.4fs, rma %.4fs)",
			r*100, pip, rma)
	}
}

// TestOverlapShape runs the halo overlap study on a reduced ladder and
// checks the structural claims: overlap never slows an app down, checksums
// are unchanged (enforced inside RunOverlap), hidden wire is recorded
// everywhere, and the small-world halo apps get a real makespan win.
func TestOverlapShape(t *testing.T) {
	if testing.Short() {
		t.Skip("overlap study is slow")
	}
	o := DefaultOverlapOptions()
	o.Nodes = []int{4, 64}
	res, err := RunOverlap(o)
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
	if res.WindowReduction() < 0.10 {
		t.Errorf("redist window reduction %.1f%% below the 10%% bar", res.WindowReduction()*100)
	}
	tb := res.Table()
	if len(tb.Rows) != len(res.Rows)+1 { // data rows + redist summary row
		t.Fatalf("table rows: %d", len(tb.Rows))
	}
}
