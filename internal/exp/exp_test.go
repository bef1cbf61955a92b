package exp

import (
	"strings"
	"testing"
)

// The experiment tests assert the paper's *shapes* (who wins, direction of
// crossovers), not absolute numbers. They run the scaled default
// configurations end to end, so they double as whole-stack integration
// tests; the slowest are skipped under -short.

func TestTableRender(t *testing.T) {
	tb := &Table{
		Caption: "cap",
		Header:  []string{"a", "bb"},
		Rows:    [][]string{{"xxx", "y"}},
	}
	var sb strings.Builder
	tb.Render(&sb)
	out := sb.String()
	for _, want := range []string{"cap", "a", "bb", "xxx", "---"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFig4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full Figure 4 matrix is slow")
	}
	res, err := RunFig4(nil, Scaled)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 12 {
		t.Fatalf("expected 12 rows, got %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.NoAdapt <= 1.0 {
			t.Errorf("%s/%d: no-adapt %.2f should exceed dedicated", row.App, row.Nodes, row.NoAdapt)
		}
		if row.DynMPI >= row.NoAdapt {
			t.Errorf("%s/%d: dyn-mpi %.2f not better than no-adapt %.2f", row.App, row.Nodes, row.DynMPI, row.NoAdapt)
		}
		if row.Redists == 0 {
			t.Errorf("%s/%d: no redistribution", row.App, row.Nodes)
		}
	}
	if imp := res.Improvement(); imp < 0.25 {
		t.Errorf("mean improvement %.0f%% too small (paper: 72%%)", imp*100)
	}
	if sd := res.Slowdown(); sd > 0.6 {
		t.Errorf("mean slowdown vs dedicated %.0f%% too large (paper: 29%%)", sd*100)
	}
}

func TestFig4SingleCell(t *testing.T) {
	res, err := RunFig4([]int{4}, Scaled)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 || res.Rows[0].App != "jacobi" || res.Rows[3].Nodes != 4 {
		t.Fatalf("rows: %+v", res.Rows)
	}
	tb := res.Table()
	if len(tb.Rows) != 5 { // one row per app + mean row
		t.Fatalf("table rows: %d", len(tb.Rows))
	}
}

func TestCGTableShape(t *testing.T) {
	res, err := RunCGTable(Scaled)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.Dedicated < res.DynMPI && res.DynMPI < res.NoAdapt) {
		t.Fatalf("ordering broken: dedicated %.2f, dyn %.2f, no-adapt %.2f", res.Dedicated, res.DynMPI, res.NoAdapt)
	}
	if len(res.Counts) != 4 {
		t.Fatalf("counts: %v", res.Counts)
	}
	// The loaded node (rank 1) receives the smallest share, near the
	// paper's 1/7 relative-power fraction or below.
	total := 0
	for _, c := range res.Counts {
		total += c
	}
	loadedShare := float64(res.Counts[1]) / float64(total)
	if loadedShare >= 0.25 {
		t.Errorf("loaded node share %.3f not reduced", loadedShare)
	}
	if loadedShare > res.IdealFraction*1.35 {
		t.Errorf("loaded share %.3f far above relative-power ideal %.3f", loadedShare, res.IdealFraction)
	}
	if res.RedistSeconds <= 0 || res.RedistSeconds > res.DynMPI*0.2 {
		t.Errorf("redistribution overhead %.3fs implausible (total %.2fs)", res.RedistSeconds, res.DynMPI)
	}
	res.Table().Render(&strings.Builder{})
}

func TestFig5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("Figure 5 long executions are slow")
	}
	res, err := RunFig5(Scaled)
	if err != nil {
		t.Fatal(err)
	}
	for _, group := range [][]Fig5Run{res.Short, res.Long} {
		no, once := Find(group, "no-redist"), Find(group, "redist-once")
		if once.Total >= no.Total {
			t.Errorf("period %d: redist-once %.2fs not faster than no-redist %.2fs", once.Period, once.Total, no.Total)
		}
		if once.Redists != 1 {
			t.Errorf("period %d: redist-once performed %d redists", once.Period, once.Redists)
		}
	}
	// Short: the second redistribution does not pay (within 2%).
	sOnce, sTwice := Find(res.Short, "redist-once"), Find(res.Short, "redist-twice")
	if sTwice.Total < sOnce.Total*0.98 {
		t.Errorf("short: second redistribution paid off (%.2fs vs %.2fs); paper says it should not", sTwice.Total, sOnce.Total)
	}
	// Long: it does.
	lOnce, lTwice := Find(res.Long, "redist-once"), Find(res.Long, "redist-twice")
	if lTwice.Total >= lOnce.Total {
		t.Errorf("long: second redistribution did not pay (%.2fs vs %.2fs)", lTwice.Total, lOnce.Total)
	}
	if lTwice.Redists != 2 {
		t.Errorf("redist-twice performed %d redists", lTwice.Redists)
	}
	res.Table().Render(&strings.Builder{})
}

func TestFig6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("Figure 6 grid is slow")
	}
	res, err := RunFig6(nil, Scaled)
	if err != nil {
		t.Fatal(err)
	}
	// Dropping must lose (or be ~neutral) on 8 nodes at low load and win
	// clearly on 32 nodes; the benefit must grow with the node count.
	b8, _ := res.Benefit(8, 1)
	b32, _ := res.Benefit(32, 1)
	if b8 > 0.05 {
		t.Errorf("8 nodes / 1 CP: drop benefit %.0f%% — paper says dropping loses on 8 nodes", b8*100)
	}
	if b32 < 0.03 {
		t.Errorf("32 nodes / 1 CP: drop benefit %.0f%% too small", b32*100)
	}
	if b32 <= b8 {
		t.Errorf("drop benefit did not grow with node count: %.2f vs %.2f", b8, b32)
	}
	// More competing processes make dropping more attractive at scale.
	b32k3, _ := res.Benefit(32, 3)
	if b32k3 <= b32 {
		t.Errorf("32 nodes: benefit with 3 CPs (%.2f) not above 1 CP (%.2f)", b32k3, b32)
	}
	res.Table().Render(&strings.Builder{})
}

func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("Figure 7 runs are slow")
	}
	res, err := RunFig7(Scaled)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		// The benefit magnitude varies with where the GP=1 phantom spikes
		// land (one draw per run); it must always be clearly positive.
		if row.Benefit < 0.02 {
			t.Errorf("Part=%d: GP=5 benefit %.0f%% too small (paper: 13-16%%)", row.Part, row.Benefit*100)
		}
		if row.Benefit > 0.5 {
			t.Errorf("Part=%d: GP=5 benefit %.0f%% implausibly large", row.Part, row.Benefit*100)
		}
	}
	res.Table().Render(&strings.Builder{})
}

func TestVirtShape(t *testing.T) {
	res, err := RunVirt()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(virtFactors) {
		t.Fatalf("rows: %d", len(res.Rows))
	}
	// Message counts grow with the virtualization factor and the
	// coarse-grain configuration is fastest.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Messages <= res.Rows[i-1].Messages {
			t.Errorf("V=%d messages %d not above V=%d's %d",
				res.Rows[i].Factor, res.Rows[i].Messages, res.Rows[i-1].Factor, res.Rows[i-1].Messages)
		}
	}
	if res.Rows[0].Elapsed >= res.Rows[len(res.Rows)-1].Elapsed {
		t.Errorf("coarse grain (%.3fs) not faster than V=16 (%.3fs)",
			res.Rows[0].Elapsed, res.Rows[len(res.Rows)-1].Elapsed)
	}
	res.Table().Render(&strings.Builder{})
}

func TestAllocShape(t *testing.T) {
	res, err := RunAlloc()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.ContiguousSec <= row.ProjectionSec {
			t.Errorf("grow +%d: contiguous %.6fs not more expensive than projection %.6fs",
				row.ShiftRows, row.ContiguousSec, row.ProjectionSec)
		}
	}
	// Small shifts show the biggest ratio (projection only touches the new rows).
	r0 := res.Rows[0].ContiguousSec / res.Rows[0].ProjectionSec
	if r0 < 10 {
		t.Errorf("single-row grow ratio %.1f too small", r0)
	}
	if res.ContiguousRedist <= res.ProjectionRedist {
		t.Errorf("end-to-end redistribution: contiguous %.3fs not slower than projection %.3fs",
			res.ContiguousRedist, res.ProjectionRedist)
	}
	res.Table().Render(&strings.Builder{})
}

func TestMicrobenchShape(t *testing.T) {
	if testing.Short() {
		t.Skip("micro-benchmark sweep is slow")
	}
	res, err := RunMicrobench()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range res.CPs {
		ms := res.Measured[k]
		// Fractions grow with the comp/comm ratio and approach naive from below.
		for i := 1; i < len(ms); i++ {
			if ms[i] < ms[i-1]-0.02 {
				t.Errorf("k=%d: measured fractions not increasing: %v", k, ms)
			}
		}
		if ms[len(ms)-1] > res.Naive[k]*1.25 {
			t.Errorf("k=%d: compute-bound fraction %.3f far above naive %.3f", k, ms[len(ms)-1], res.Naive[k])
		}
		if ms[0] >= res.Naive[k] {
			t.Errorf("k=%d: comm-bound fraction %.3f not below naive %.3f", k, ms[0], res.Naive[k])
		}
	}
	// End to end, successive balancing's steady-state distribution must be
	// at least as good as relative power's, and the total must not lose.
	if res.SBCycle > res.RPCycle*1.02 {
		t.Errorf("successive balancing steady state %.4fs/cycle worse than relative power %.4fs/cycle", res.SBCycle, res.RPCycle)
	}
	if res.SBTime > res.RPTime*1.02 {
		t.Errorf("successive balancing %.2fs slower than relative power %.2fs", res.SBTime, res.RPTime)
	}
	res.Table().Render(&strings.Builder{})
}
