package exp

import "testing"

// TestRMAStallReduction pins the PR's headline refresh claim: at the
// acceptance world sizes the deferred-epoch one-sided refresh cuts the
// holder-side replica stall by at least 30% versus the paired send/recv
// refresh. RunRMA itself enforces checksum equality between the modes.
func TestRMAStallReduction(t *testing.T) {
	nodes := rmaNodes
	if testing.Short() {
		nodes = []int{64}
	}
	res, err := RunRMA(nodes)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(nodes) {
		t.Fatalf("expected %d rows, got %d", len(nodes), len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.PairedStallS <= 0 {
			t.Fatalf("nodes=%d: paired refresh shows no stall; study is vacuous", row.Nodes)
		}
	}
	if r := res.MinReduction(); r < 0.30 {
		t.Fatalf("stall reduction %.1f%% below the 30%% bar", r*100)
	}
	if !res.MakespanOK() {
		t.Fatalf("one-sided makespan exceeds paired somewhere: %+v", res.Rows)
	}
	if tbl := res.Table(); len(tbl.Rows) != len(res.Rows) {
		t.Fatalf("table rows %d != result rows %d", len(tbl.Rows), len(res.Rows))
	}
}
