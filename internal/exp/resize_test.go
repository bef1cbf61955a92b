package exp

import (
	"strings"
	"testing"
)

// TestResizeBeatsRestart drives the resize-vs-restart study and pins the acceptance criterion: the elastic resize must be
// strictly cheaper than drop-all+restart on both scenarios, with data
// integrity verified against an undisturbed dedicated run inside RunResize.
func TestResizeBeatsRestart(t *testing.T) {
	res, err := RunResize()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("%d scenarios, want 2", len(res.Rows))
	}
	if got := res.CheaperCount(); got != 2 {
		var b strings.Builder
		res.Table().Render(&b)
		t.Fatalf("resize cheaper than restart on %d of 2 scenarios:\n%s", got, b.String())
	}
	for _, row := range res.Rows {
		if row.MovedMB <= 0 {
			t.Fatalf("scenario %s moved no bytes — the membership change never redistributed", row.Scenario)
		}
		if row.MovedMB >= row.TotalMB {
			t.Fatalf("scenario %s moved %.2f MB, not less than the %.2f MB a restart reloads — the diff schedule is not shipping only the delta",
				row.Scenario, row.MovedMB, row.TotalMB)
		}
	}
}
