package exp

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite golden trace files")

// sequenceLines renders the adaptation skeleton of a trace — every
// decision, redist and membership record in deterministic order — as one
// line each, with only stable fields (no floats).
func sequenceLines(recs []telemetry.Record) []string {
	var out []string
	for _, rec := range recs {
		switch v := rec.(type) {
		case telemetry.DecisionRecord:
			out = append(out, fmt.Sprintf("decision   cycle=%d node=%d method=%s chosen=%s loads=%v counts=%v",
				v.Cycle, v.Node, v.Method, v.Chosen, v.Loads, v.Counts))
		case telemetry.RedistRecord:
			out = append(out, fmt.Sprintf("redist     cycle=%d node=%d rows=%d counts=%v",
				v.Cycle, v.Node, v.RowsSent, v.Counts))
		case telemetry.MembershipRecord:
			out = append(out, fmt.Sprintf("membership cycle=%d node=%d change=%s active=%v removed=%v remap=%v",
				v.Cycle, v.Node, v.Change, v.Active, v.Removed, v.Remap))
		}
	}
	return out
}

func TestTraceContainsAllRecordKinds(t *testing.T) {
	r, err := RunTrace(TraceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, rec := range r.Records {
		counts[rec.Kind()]++
	}
	for _, kind := range []string{
		telemetry.KindIteration, telemetry.KindDecision,
		telemetry.KindRedist, telemetry.KindMembership,
	} {
		if counts[kind] == 0 {
			t.Errorf("trace has no %s records (have %v)", kind, counts)
		}
	}
	if r.Res.Redists == 0 {
		t.Fatal("trace scenario did not adapt")
	}
}

// TestTraceGoldenSequence pins the adapt -> redist -> membership event
// sequence of the canonical loaded-4-node scenario. Regenerate with
// `go test ./internal/exp -run Golden -update` after an intentional
// behaviour change.
func TestTraceGoldenSequence(t *testing.T) {
	r, err := RunTrace(TraceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(sequenceLines(r.Records), "\n") + "\n"
	golden := filepath.Join("testdata", "trace.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("trace sequence drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestTraceOrderPerRank asserts the causal order the paper's machinery
// implies on every rank: the decision record precedes the redistribution
// it triggers, which precedes the membership change it causes.
func TestTraceOrderPerRank(t *testing.T) {
	r, err := RunTrace(TraceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for node := 0; node < traceNodes; node++ {
		pos := map[string]int{}
		for i, rec := range r.Records {
			m := rec.Meta()
			if m.Node != node {
				continue
			}
			if _, seen := pos[m.K]; !seen {
				pos[m.K] = i
			}
		}
		dec, okD := pos[telemetry.KindDecision]
		red, okR := pos[telemetry.KindRedist]
		mem, okM := pos[telemetry.KindMembership]
		if !okD || !okR || !okM {
			t.Fatalf("node %d missing record kinds: %v", node, pos)
		}
		if !(dec < red && red < mem) {
			t.Errorf("node %d order wrong: decision@%d redist@%d membership@%d", node, dec, red, mem)
		}
	}
}

// TestDecisionMatchesInstalledDistribution is the tentpole invariant: the
// counts a DecisionRecord reports as chosen are exactly the counts of the
// distribution the runtime then installs (its RedistRecord).
func TestDecisionMatchesInstalledDistribution(t *testing.T) {
	w := traceWorld(TraceOptions{})
	w.Core.Drop = core.DropNever // exercise the successive-balancing path
	r, err := runTrace(w)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for node := 0; node < traceNodes; node++ {
		var lastDecision []int
		for _, rec := range r.Records {
			m := rec.Meta()
			if m.Node != node {
				continue
			}
			switch v := rec.(type) {
			case telemetry.DecisionRecord:
				if v.Counts != nil {
					lastDecision = v.Counts
					// The chosen candidate's counts must equal the decision's.
					for _, c := range v.Candidates {
						if c.Label == v.Chosen && !reflect.DeepEqual(c.Counts, v.Counts) {
							t.Errorf("node %d: chosen candidate %v != decision counts %v", node, c.Counts, v.Counts)
						}
					}
				}
			case telemetry.RedistRecord:
				if lastDecision == nil {
					t.Errorf("node %d: redist at cycle %d with no preceding decision", node, m.Cycle)
					continue
				}
				if !reflect.DeepEqual(v.Counts, lastDecision) {
					t.Errorf("node %d: installed counts %v != decided counts %v", node, v.Counts, lastDecision)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no decision/redist pairs verified")
	}
}

// TestTraceJSONLGolden pins the full JSONL encoding of the canonical
// loaded-4 trace byte-for-byte — every field of every record, not just the
// adaptation skeleton. This is the performance work's equivalence oracle:
// hot-path rewrites (slab-batched redistribution, indexed matching, pooled
// collectives) must not move a single virtual-time stamp or byte count.
// Regenerate with `go test ./internal/exp -run JSONLGolden -update` after an
// intentional behaviour change.
func TestTraceJSONLGolden(t *testing.T) {
	r, err := RunTrace(TraceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := telemetry.WriteJSONL(&buf, r.Records); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "trace.jsonl.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		got := buf.Bytes()
		line, col := 1, 1
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i] != want[i] {
				break
			}
			if got[i] == '\n' {
				line, col = line+1, 1
			} else {
				col++
			}
		}
		t.Errorf("trace JSONL drifted from golden (%d vs %d bytes, first difference near line %d col %d)",
			len(got), len(want), line, col)
	}
}

// TestTraceSummaryCountsRedistributionsOnce: every participant emits one
// RedistRecord per redistribution, so the dynexp trace summary must count the
// redistributions the run made — Res.Redists — not the rank records, on the
// default trace (one) and on a crash-and-drop run (two).
func TestTraceSummaryCountsRedistributionsOnce(t *testing.T) {
	crash := TraceOptions{Faults: []fault.Fault{fault.CrashAtCycle(2, 12)}, Replicate: true, ReplicaEvery: 1}
	for name, tc := range map[string]struct {
		o       TraceOptions
		redists int
	}{
		"default": {TraceOptions{}, 1},
		"crash":   {crash, 2},
	} {
		r, err := RunTrace(tc.o)
		if err != nil {
			t.Fatal(err)
		}
		s := telemetry.Summarize(r.Records)
		if r.Res.Redists != tc.redists || s.Redists != r.Res.Redists || s.RedistRecords <= s.Redists {
			t.Errorf("%s: summary counts %d redistributions in %d rank records, the run made %d (want %d)",
				name, s.Redists, s.RedistRecords, r.Res.Redists, tc.redists)
		}
		var buf bytes.Buffer
		s.WriteTable(&buf)
		if want := fmt.Sprintf("redistributions: %d (%d rank records,", s.Redists, s.RedistRecords); !strings.Contains(buf.String(), want) {
			t.Errorf("%s: summary table lacks %q:\n%s", name, want, buf.String())
		}
	}
}

// TestSinkLeavesResultUnchanged: the telemetry ring the experiment runners
// attach is their only trace, so attaching it must not move anything a run
// computes. Each scenario runs with a nil sink and with a ring, and the two
// apps.Results must be deeply equal.
func TestSinkLeavesResultUnchanged(t *testing.T) {
	small := func(spec cluster.Spec) sweep.World {
		return sweep.World{App: "jacobi", Spec: spec, Rows: 128, Cols: 128, Iters: 40, Cost: 10e3, Core: core.DefaultConfig()}
	}
	loaded := cluster.Uniform(4).With(cluster.CycleEvent(1, 10, +1))
	onOff := small(cluster.Uniform(4).With(cluster.CycleEvent(1, 15, +1), cluster.CycleEvent(1, 35, -1)))
	onOff.Iters = 60
	onOff.Core.Drop = core.DropNever
	dropAuto := small(loaded)

	skewedSpec := cluster.Uniform(8)
	skewedSpec.Net.CPUPerByte, skewedSpec.Net.BytesPerSec = 800, 100e6
	for node, k := range []int{3, 2, 1} {
		for i := 0; i < k; i++ {
			skewedSpec = skewedSpec.With(cluster.CycleEvent(node, 10, +1))
		}
	}
	skewed := sweep.World{App: "jacobi", Spec: skewedSpec, Rows: 256, Cols: 1024, Iters: 40, Cost: 600, Core: core.DefaultConfig()}
	skewed.Core.Drop = core.DropNever
	skewed.Core.Replicate, skewed.Core.ReplicaRMA, skewed.Core.ReplicaEvery = true, true, 1

	crash := small(loaded)
	crash.Spec.Faults = []fault.Fault{fault.CrashAtCycle(2, 12)}
	crash.Core.Replicate = true
	grow := small(cluster.Uniform(4).WithArrival(1.0, -1).WithArrival(1.0, -1))
	grow.Core.Drop = core.DropNever
	grow.ResizeAt, grow.ResizeTo = 10, 6
	// A sink once added the successive-balancing computation to a
	// relative-power run; a logical drop's record carries its counts.
	relPower := small(loaded)
	relPower.Core.Drop, relPower.Core.Method = core.DropNever, core.RelativePower
	logical := small(loaded)
	logical.Core.Drop = core.DropLogical

	names := []string{"load on/off", "drop-auto", "skewed RMA", "crash+replicate", "grow", "relative-power", "drop-logical"}
	// Each scenario twice: with a nil sink, then with a ring.
	var worlds []sweep.World
	for _, w := range []sweep.World{onOff, dropAuto, skewed, crash, grow, relPower, logical} {
		worlds = append(worlds, w)
		w.Trace = true
		worlds = append(worlds, w)
	}
	held := make([]int, len(worlds))
	out, err := runWorlds(worlds, func(i int, o sweep.Outcome) error {
		if o.Ring != nil {
			held[i] = o.Ring.Len()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for k, name := range names {
		bare, withRing := out[2*k], out[2*k+1]
		if bare.Redists == 0 || held[2*k+1] == 0 {
			t.Fatalf("%s: %d redistributions, %d records held: scenario is vacuous", name, bare.Redists, held[2*k+1])
		}
		if !reflect.DeepEqual(bare, withRing) {
			t.Errorf("%s: attaching a telemetry ring changed the result:\n nil sink %+v\n ring     %+v", name, bare, withRing)
		}
	}
}

// TestTraceDeterministic asserts byte-identical JSONL across runs.
func TestTraceDeterministic(t *testing.T) {
	encode := func() []byte {
		r, err := RunTrace(TraceOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := telemetry.WriteJSONL(&buf, r.Records); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := encode(), encode()
	if !bytes.Equal(a, b) {
		t.Fatal("two identical trace runs produced different JSONL")
	}
	// And the JSONL round-trips through the decoder.
	recs, err := telemetry.DecodeJSONL(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("decoded no records")
	}
}
