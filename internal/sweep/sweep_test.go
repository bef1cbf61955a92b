package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/apps/jacobi"
	"repro/internal/cluster"
)

// sweepReport runs grid g at the given pool width and returns the
// deterministic report (wall-time lines stripped) and the worlds it ran.
func sweepReport(t *testing.T, g Grid, jobs int) (string, int) {
	t.Helper()
	r, err := Run(Options{Grid: g, Jobs: jobs})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	return reportText(r), r.Steps
}

// reportText is r's text report without its wall-time lines.
func reportText(r *Result) string {
	var buf bytes.Buffer
	r.WriteText(&buf)
	var kept []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "# wall-time:") {
			continue
		}
		kept = append(kept, line)
	}
	return strings.Join(kept, "\n")
}

// TestSweepDeterministicAcrossJobs is the engine's determinism contract:
// the smoke report is byte-identical between a serial pool, narrow and wide
// pools under a different GOMAXPROCS, and a pool wider than the grid. Every
// width runs each of the 96 worlds once, and the pool's workers are gone
// when Run returns. The root-crash cell, whose removed rank receives from
// whichever rank holds the send-out role, is one more input, and its crash
// fault kills exactly one rank. Run with -race in CI.
func TestSweepDeterministicAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("full smoke grid; skipped in -short")
	}
	baseline := runtime.NumGoroutine()
	serial, steps := sweepReport(t, Smoke(), 1)
	if steps != 96 {
		t.Errorf("-jobs 1 ran %d worlds, want 96", steps)
	}

	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	for _, jobs := range []int{2, 8, 200} {
		wide, steps := sweepReport(t, Smoke(), jobs)
		if serial != wide {
			t.Errorf("report differs between -jobs 1 and -jobs %d/GOMAXPROCS=4", jobs)
		}
		if steps != 96 {
			t.Errorf("-jobs %d ran %d worlds, want 96", jobs, steps)
		}
	}
	crash := gridOf(t, rootCrashSpec)
	var reports [2]string
	for i, jobs := range []int{1, 8} {
		var r *Result
		var err error
		watched(t, fmt.Sprintf("%s at -jobs %d", rootCrashSpec, jobs), func() { r, err = Run(Options{Grid: crash, Jobs: jobs}) })
		if err != nil {
			t.Fatalf("root-crash sweep at -jobs %d: %v", jobs, err)
		}
		if n := r.Cells[0].Stats.Crashed; n != 1 {
			t.Errorf("root-crash cell at -jobs %d: %d crashed ranks, want exactly 1", jobs, n)
		}
		reports[i] = reportText(r)
	}
	one, eight := reports[0], reports[1]
	if !strings.Contains(one, "failed=0") {
		t.Errorf("root-crash sweep reported failures:\n%s", one)
	} else if eight != one {
		t.Errorf("root-crash report differs between -jobs 1 and -jobs 8:\n%s\n%s", one, eight)
	}
	// A finished world's application goroutine may still be returning.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the sweeps, %d before: the pool or a world leaked", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}

	cells := strings.Count(serial, "\ncell ")
	if cells < 48 {
		t.Errorf("smoke grid has %d cells, want >= 48", cells)
	}
	if !strings.Contains(serial, "failed=0") {
		t.Errorf("smoke sweep reported failures:\n%s", serial)
	}
}

// TestRingOverflowFailsTheCell: a world that emitted more records than its
// ring holds reports the overflow instead of percentiles of the truncated
// stream; at the default capacity the same cell has statistics.
func TestRingOverflowFailsTheCell(t *testing.T) {
	g := Smoke()
	if err := g.ParseSpec("scen=jacobi;ranks=4;overlap=0;fault=none;rep=0;rma=0;resize=none"); err != nil {
		t.Fatalf("parse: %v", err)
	}
	full, err := Run(Options{Grid: g})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	g.RingCap = 16
	tiny, err := Run(Options{Grid: g})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	for i, c := range tiny.Cells {
		if full.Cells[i].Err != "" || full.Cells[i].Stats.Cycles <= 16 {
			t.Fatalf("cell %s at the default RingCap: %+v", c.Key, full.Cells[i])
		}
		if !strings.Contains(c.Err, "telemetry ring overflow") || !strings.Contains(c.Err, "raise RingCap") {
			t.Errorf("cell %s at RingCap 16: Err = %q, want a ring-overflow error", c.Key, c.Err)
		}
		if c.Stats != (CellStats{}) {
			t.Errorf("cell %s overflowed but carries statistics %+v", c.Key, c.Stats)
		}
	}
}

// TestSmokeGridCoversAxes pins the smoke grid shape: every axis value
// appears, and the enumeration covers the full cross product.
func TestSmokeGridCoversAxes(t *testing.T) {
	g := Smoke()
	if err := g.Validate(); err != nil {
		t.Fatalf("smoke grid invalid: %v", err)
	}
	cells := g.Cells()
	want := len(g.Scenarios) * len(g.Ranks) * len(g.GPs) * len(g.Overlaps) * len(g.Faults) * len(g.Reps) * len(g.RMAs) * len(g.Resizes)
	if len(cells) != want {
		t.Fatalf("got %d cells, want %d", len(cells), want)
	}
	if len(cells) < 48 {
		t.Fatalf("smoke grid has %d cells, want >= 48", len(cells))
	}
	keys := map[string]bool{}
	for i, c := range cells {
		if c.Index != i {
			t.Fatalf("cell %d carries Index %d", i, c.Index)
		}
		if keys[c.Key()] {
			t.Fatalf("duplicate cell key %s", c.Key())
		}
		keys[c.Key()] = true
	}
}

// TestStreamedCellsMatchReport pins the -stream contract: rows delivered
// through OnCell, re-sorted into enumeration order, encode byte-identically
// to the batch WriteJSONL report, and every cell is delivered exactly once.
func TestStreamedCellsMatchReport(t *testing.T) {
	g := Smoke()
	if err := g.ParseSpec("scen=jacobi;ranks=4;overlap=0;iters=16;resizecycle=8"); err != nil {
		t.Fatalf("parse: %v", err)
	}
	var streamed []CellResult
	r, err := Run(Options{Grid: g, Jobs: 4, OnCell: func(cr CellResult) {
		streamed = append(streamed, cr)
	}})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if len(streamed) != len(r.Cells) {
		t.Fatalf("OnCell delivered %d cells, want %d", len(streamed), len(r.Cells))
	}
	sort.Slice(streamed, func(i, j int) bool { return streamed[i].Cell.Index < streamed[j].Cell.Index })
	var live bytes.Buffer
	enc := json.NewEncoder(&live)
	for i := range streamed {
		if err := enc.Encode(&streamed[i]); err != nil {
			t.Fatalf("encode streamed cell: %v", err)
		}
	}
	var batch bytes.Buffer
	if err := r.WriteJSONL(&batch); err != nil {
		t.Fatalf("batch report: %v", err)
	}
	if !bytes.Equal(live.Bytes(), batch.Bytes()) {
		t.Error("re-sorted streamed rows differ from the batch JSONL report")
	}
}

func TestParseSpec(t *testing.T) {
	g := Smoke()
	err := g.ParseSpec("scen=jacobi;ranks=4;gp=7;overlap=1;fault=none;rep=0;rma=1;resize=grow;rows=64;cols=48;iters=20;cost=500;resizecycle=12;resizeadd=2")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(g.Cells()) != 1 {
		t.Fatalf("want 1 cell, got %d", len(g.Cells()))
	}
	c := g.Cells()[0]
	if c.Scenario != "jacobi" || c.Ranks != 4 || c.GP != 7 || !c.Overlap || c.Fault != "none" || c.Replicate || !c.RMA || c.Resize != "grow" {
		t.Errorf("unexpected cell %+v", c)
	}
	if g.Rows != 64 || g.Cols != 48 || g.Iters != 20 || g.CostPerElem != 500 || g.ResizeCycle != 12 || g.ResizeAdd != 2 {
		t.Errorf("workload knobs not applied: %+v", g)
	}
	for _, bad := range []string{"bogus=1", "ranks=x", "overlap=maybe", "scen"} {
		g := Smoke()
		if err := g.ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
	for _, invalid := range []string{"scen=quux", "ranks=1", "fault=flood", "iters=0", "resize=shuffle", "resize=grow;resizeadd=0", "resize=grow;resizecycle=99",
		"cpnode=-1", "cpcycle=-3", "crashnode=-1", "crashcycle=-2", "fault=none;crashnode=-1",
		"cost=-1", "cost=0", "cost=NaN", "cost=+Inf", "scen=cg;resize=grow"} {
		g := Smoke()
		if err := g.ParseSpec(invalid); err != nil {
			t.Fatalf("parse %q: %v", invalid, err)
		}
		if err := g.Validate(); err == nil {
			t.Errorf("Validate accepted %q", invalid)
		} else if !strings.HasPrefix(err.Error(), "sweep: ") {
			t.Errorf("Validate(%q) = %q, want a sweep: error", invalid, err)
		}
	}
	// A cell without a telemetry ring is refused by name, not by a panic in
	// a pool worker.
	for _, rc := range []int{0, -1} {
		g := Smoke()
		g.RingCap = rc
		if _, err := Run(Options{Grid: g}); err == nil || !strings.Contains(err.Error(), "RingCap") {
			t.Errorf("RingCap %d: Run = %v, want an error naming RingCap", rc, err)
		}
	}
	// Growth into a scenario without joiner support names both.
	g = Smoke()
	if err := g.ParseSpec("scen=jacobi,particles;resize=none,growskew"); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "particles") || !strings.Contains(err.Error(), "growskew") {
		t.Errorf("Validate = %v, want an error naming particles and growskew", err)
	}
}

// countingWriter tallies every byte delivered through Write, so a test can
// assert each byte was written exactly once (linear write amplification).
type countingWriter struct {
	buf     bytes.Buffer
	written int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.written += len(p)
	return c.buf.Write(p)
}

// TestStreamWriterByteIdentical feeds the in-order flush frontier a sweep's
// cells in several adversarial completion orders: the output must be
// byte-identical to the batch WriteJSONL report every time, with nothing
// pending at the end and every byte written exactly once.
func TestStreamWriterByteIdentical(t *testing.T) {
	g := Smoke()
	if err := g.ParseSpec("scen=jacobi;ranks=4;overlap=0;iters=16;resizecycle=8"); err != nil {
		t.Fatalf("parse: %v", err)
	}
	r, err := Run(Options{Grid: g, Jobs: 4})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	var batch bytes.Buffer
	if err := r.WriteJSONL(&batch); err != nil {
		t.Fatalf("batch report: %v", err)
	}
	n := len(r.Cells)
	orders := map[string][]int{
		"forward":    make([]int, n),
		"reverse":    make([]int, n),
		"evens-odds": nil,
	}
	for i := 0; i < n; i++ {
		orders["forward"][i] = i
		orders["reverse"][i] = n - 1 - i
	}
	for i := 0; i < n; i += 2 {
		orders["evens-odds"] = append(orders["evens-odds"], i)
	}
	for i := 1; i < n; i += 2 {
		orders["evens-odds"] = append(orders["evens-odds"], i)
	}
	for name, order := range orders {
		cw := &countingWriter{}
		sw := NewStreamWriter(cw)
		for _, idx := range order {
			sw.Add(r.Cells[idx])
		}
		if err := sw.Err(); err != nil {
			t.Fatalf("%s: stream error: %v", name, err)
		}
		if p := sw.Pending(); p != 0 {
			t.Fatalf("%s: %d rows still pending after the last add", name, p)
		}
		if !bytes.Equal(cw.buf.Bytes(), batch.Bytes()) {
			t.Errorf("%s: streamed file differs from the batch JSONL report", name)
		}
		if cw.written != batch.Len() {
			t.Errorf("%s: wrote %d bytes for a %d-byte file — write amplification is not linear",
				name, cw.written, batch.Len())
		}
	}
}

// TestStreamWriterLiveFromScheduler wires the frontier directly into a
// concurrent sweep as OnCell — the production -stream path — and checks the
// file equals the batch report without any re-sort step.
func TestStreamWriterLiveFromScheduler(t *testing.T) {
	g := Smoke()
	if err := g.ParseSpec("scen=jacobi;ranks=4;overlap=0;iters=16;resizecycle=8"); err != nil {
		t.Fatalf("parse: %v", err)
	}
	cw := &countingWriter{}
	sw := NewStreamWriter(cw)
	r, err := Run(Options{Grid: g, Jobs: 4, OnCell: sw.Add})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if err := sw.Err(); err != nil {
		t.Fatalf("stream error: %v", err)
	}
	if p := sw.Pending(); p != 0 {
		t.Fatalf("%d rows never flushed", p)
	}
	var batch bytes.Buffer
	if err := r.WriteJSONL(&batch); err != nil {
		t.Fatalf("batch report: %v", err)
	}
	if !bytes.Equal(cw.buf.Bytes(), batch.Bytes()) {
		t.Error("live-streamed file differs from the batch JSONL report")
	}
}

// TestGrowSkewChecksums pins the skewed-resize cells: the smoke grid's
// growskew axis must actually resize (a redistribution at the arrivals) and
// must not corrupt data — on fault-free cells the checksum is invariant
// across the whole resize axis (none/grow/growskew), since membership and
// skew change only where rows live, never their values.
func TestGrowSkewChecksums(t *testing.T) {
	g := Smoke()
	if err := g.ParseSpec("scen=jacobi;ranks=4;rep=0;fault=none"); err != nil {
		t.Fatalf("parse: %v", err)
	}
	r, err := Run(Options{Grid: g, Jobs: 4})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	// Group by everything but the resize axis.
	groups := map[string]map[string]CellStats{}
	for _, c := range r.Cells {
		if c.Err != "" {
			t.Fatalf("cell %s failed: %s", c.Key, c.Err)
		}
		base := strings.TrimSuffix(c.Key, "/rz"+c.Cell.Resize)
		if groups[base] == nil {
			groups[base] = map[string]CellStats{}
		}
		groups[base][c.Cell.Resize] = c.Stats
	}
	for base, byRz := range groups {
		skew, ok := byRz["growskew"]
		if !ok {
			t.Fatalf("%s: no growskew cell", base)
		}
		if skew.Redists < 1 {
			t.Errorf("%s/rzgrowskew never redistributed — the resize did not happen", base)
		}
		for rz, st := range byRz {
			if st.Checksum != skew.Checksum || st.CheckInt != skew.CheckInt {
				t.Errorf("%s: checksum differs between rz%s (%v) and rzgrowskew (%v)",
					base, rz, st.Checksum, skew.Checksum)
			}
		}
	}
}

// TestGrowPastRowCountReplicated grows an 8-row world of 8 ranks, so a rank
// owns no rows after the grow and its paired replica refresh packs an empty
// range. Every replicated cell must finish with the dedicated run's checksum.
func TestGrowPastRowCountReplicated(t *testing.T) {
	g := Smoke()
	if err := g.ParseSpec("scen=jacobi;rows=8;cols=8;ranks=8;fault=none;rep=1;resize=grow,growskew"); err != nil {
		t.Fatalf("parse: %v", err)
	}
	r, err := Run(Options{Grid: g, Jobs: 2})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	cfg := jacobi.DefaultConfig()
	cfg.Rows, cfg.Cols, cfg.Iters, cfg.CostPerElem = g.Rows, g.Cols, g.Iters, g.CostPerElem
	cfg.Core.Adapt = false
	ded, err := jacobi.Run(cluster.New(cluster.Uniform(8)), cfg)
	if err != nil {
		t.Fatalf("dedicated run: %v", err)
	}
	for _, c := range r.Cells {
		if c.Err != "" {
			t.Errorf("cell %s failed: %s", c.Key, c.Err)
		} else if c.Stats.Checksum != ded.Checksum {
			t.Errorf("cell %s: checksum %v, dedicated %v", c.Key, c.Stats.Checksum, ded.Checksum)
		}
	}
}

// rootCrashSpec is a one-cell grid in which the send-out root dies while a
// rank is removed: the competing process on node 1 at cycle 8 removes rank
// 1, and node 0 — the rank that forwards it every global result — crashes at
// cycle 20.
const rootCrashSpec = "scen=jacobi;ranks=4;fault=crash;rep=1;rma=0;cpnode=1;cpcycle=8;crashnode=0;crashcycle=20;resize=none"

// gridOf is the smoke grid narrowed by spec.
func gridOf(t *testing.T, spec string) Grid {
	t.Helper()
	g := Smoke()
	if err := g.ParseSpec(spec); err != nil {
		t.Fatalf("parse %s: %v", spec, err)
	}
	return g
}

// watched runs f under a watchdog, failing the test with the name of what
// ran if f has not returned after 30 s: a world that hangs names its cell.
func watched(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("%s: the world hung", what)
	}
}

// oneCell runs the one-cell grid spec under the watchdog and returns its
// cell, failing the test if the world hangs or the cell fails.
func oneCell(t *testing.T, spec string) CellResult {
	t.Helper()
	g := gridOf(t, spec)
	var r *Result
	var err error
	watched(t, spec, func() { r, err = Run(Options{Grid: g, Jobs: 1}) })
	if err != nil || len(r.Cells) != 1 || r.Cells[0].Err != "" {
		t.Fatalf("%s: err %v, cells %+v", spec, err, r)
	}
	return r.Cells[0]
}

// TestSecondDropCellFinishes: the competing process on node 1 at cycle 8
// removes rank 1, and the skew process that precedes the grow loads node 0,
// the send-out root. After the grow a second drop removes rank 0 too, and
// the send-out role moves on to rank 2 (core/colls.go): the cell makes three
// redistributions (drop, grow, drop), finishes under a watchdog, and —
// fault-free — has the checksum of the same cell without any resize.
func TestSecondDropCellFinishes(t *testing.T) {
	const spec = "scen=jacobi;ranks=4;fault=none;rep=0;rma=0;cpnode=1;cpcycle=8;resize="
	skew, plain := oneCell(t, spec+"growskew").Stats, oneCell(t, spec+"none").Stats
	if skew.Checksum != plain.Checksum {
		t.Errorf("checksum %v with the skewed grow, %v without a resize", skew.Checksum, plain.Checksum)
	}
	if skew.Redists != 3 {
		t.Errorf("skewed grow made %d redistributions, want 3: the loaded root was not dropped", skew.Redists)
	}
}
