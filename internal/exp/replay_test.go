package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/distribution"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// inputOf rebuilds a decision's input from its record: the node powers and
// loads, the communication and iteration costs, and a policy that takes the
// rule the record names. A node's Rank is its relative rank; no decision
// reads it.
func inputOf(t *testing.T, d telemetry.DecisionRecord) distribution.Input {
	t.Helper()
	if len(d.Powers) != len(d.Loads) {
		t.Fatalf("node %d cycle %d: decision record has %d powers for %d loads", d.Node, d.Cycle, len(d.Powers), len(d.Loads))
	}
	in := distribution.Input{Nodes: make([]distribution.Node, len(d.Loads)),
		CommCPU: d.CommCPUS, CommWire: d.CommWireS, Drop: core.DropNever}
	for i := range in.Nodes {
		in.Nodes[i] = distribution.Node{Rank: i, Power: d.Powers[i], Load: d.Loads[i]}
	}
	for _, r := range d.IterCosts {
		for range r.N {
			in.IterCosts = append(in.IterCosts, r.Cost)
		}
	}
	switch d.Method {
	case "successive-balancing":
	case "relative-power":
		in.Method = core.RelativePower
	case "drop-always":
		in.Drop = core.DropAlways
	case "drop-logical":
		in.Drop = core.DropLogical
	case "drop-auto":
		in.Drop, in.DropCheck, in.MeasuredS = core.DropAuto, true, d.MeasuredS
	default:
		t.Fatalf("node %d cycle %d: decision record method %q", d.Node, d.Cycle, d.Method)
	}
	return in
}

// replayed checks every decision of recs against its replay: the records go
// through JSONL and back, inputOf rebuilds each decision's input and
// distribution.Decide decides again, which must reproduce the recorded
// method, choice, counts, prediction and every candidate bit for bit. It
// returns the decisions it replayed.
func replayed(t *testing.T, source string, recs []telemetry.Record) []telemetry.DecisionRecord {
	t.Helper()
	var buf bytes.Buffer
	if err := telemetry.WriteJSONL(&buf, recs); err != nil {
		t.Fatalf("%s: encode: %v", source, err)
	}
	decoded, err := telemetry.DecodeJSONL(&buf)
	if err != nil {
		t.Fatalf("%s: decode: %v", source, err)
	}
	var out []telemetry.DecisionRecord
	for _, rec := range decoded {
		d, ok := rec.(telemetry.DecisionRecord)
		if !ok {
			continue
		}
		v := distribution.Decide(inputOf(t, d))
		var cands []telemetry.Candidate
		for _, c := range v.Candidates {
			cands = append(cands, telemetry.Candidate(c))
		}
		got, _ := json.Marshal(telemetry.DecisionRecord{Method: v.Method, Chosen: v.Chosen, Counts: v.Counts,
			PredictedS: v.PredictedS, Candidates: cands})
		want, _ := json.Marshal(telemetry.DecisionRecord{Method: d.Method, Chosen: d.Chosen, Counts: d.Counts,
			PredictedS: d.PredictedS, Candidates: d.Candidates})
		if !bytes.Equal(got, want) {
			t.Errorf("%s: node %d cycle %d replays differently:\n got %s\nwant %s", source, d.Node, d.Cycle, got, want)
		}
		out = append(out, d)
	}
	return out
}

// sortedRecords returns a finished world's records in deterministic order.
func sortedRecords(ring *telemetry.Ring) []telemetry.Record {
	recs := ring.Records()
	telemetry.Sort(recs)
	return recs
}

// TestDecisionsReplayFromRecords: a decision record carries its inputs, so
// anyone holding a trace can re-run the decision and check why a
// distribution was chosen. Replayed here: the golden trace, the scaled
// Figure 4 runs, the §4.3 method comparison, a drop-logical run, the
// drop-auto run of TestDropAutoKeepWithoutLoadEncodes and, unless -short,
// every cell of the smoke sweep. Together they reach every rule, both
// drop-auto verdicts and nonuniform iteration costs.
func TestDecisionsReplayFromRecords(t *testing.T) {
	var all []telemetry.DecisionRecord
	golden, err := os.ReadFile(filepath.Join("testdata", "trace.jsonl.golden"))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := telemetry.DecodeJSONL(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	all = append(all, replayed(t, "trace.jsonl.golden", recs)...)

	// Each Figure 4 row's Dyn-MPI world (its third), the two method
	// comparison worlds and the drop-auto world, traced.
	var worlds []sweep.World
	for i, w := range fig4Worlds(nil, Scaled) {
		if i%3 == 2 {
			w.Trace = true
			worlds = append(worlds, w)
		}
	}
	worlds = append(worlds, methodComparison(core.SuccessiveBalancing), methodComparison(core.RelativePower), dropAutoWithoutLoad())
	if _, err := runWorlds(worlds, func(i int, o sweep.Outcome) error {
		source := fmt.Sprintf("%s/%d (world %d)", worlds[i].App, len(worlds[i].Spec.Nodes), i)
		all = append(all, replayed(t, source, sortedRecords(o.Ring))...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	logical := traceWorld(TraceOptions{})
	logical.Core.Drop = core.DropLogical
	r, err := runTrace(logical)
	if err != nil {
		t.Fatal(err)
	}
	all = append(all, replayed(t, "drop-logical", r.Records)...)
	if !testing.Short() {
		g := sweep.Smoke()
		for _, c := range g.Cells() {
			recs, err := g.Trace(c)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, replayed(t, "sweep "+c.Key(), recs)...)
		}
	}

	seen := map[string]int{}
	nonuniform := 0
	for _, d := range all {
		seen[d.Method]++
		if d.Method == "drop-auto" {
			seen["drop-auto "+d.Chosen]++
		}
		if len(d.IterCosts) > 1 && d.Candidates != nil {
			nonuniform++
		}
	}
	for _, want := range []string{"successive-balancing", "relative-power", "drop-always", "drop-logical",
		"drop-auto", "drop-auto keep", "drop-auto drop"} {
		if seen[want] == 0 {
			t.Errorf("no %s decision replayed (saw %v)", want, seen)
		}
	}
	if nonuniform == 0 {
		t.Error("no balancing decision over nonuniform iteration costs replayed")
	}
	t.Logf("replayed %d decisions: %v, %d over nonuniform costs", len(all), seen, nonuniform)
}

// dropAutoWithoutLoad is a drop-auto world whose verdict finds no loaded
// node: the competing process leaves during the post-redistribution grace,
// and MaxRedists keeps that change from restarting the measurement.
func dropAutoWithoutLoad() sweep.World {
	w := sweep.World{App: "jacobi", Rows: 128, Cols: 128, Iters: 80, Cost: 60e3, Core: core.DefaultConfig(), Trace: true}
	w.Core.Drop, w.Core.MaxRedists = core.DropAuto, 1
	w.Spec = cluster.Uniform(4).With(cluster.CycleEvent(1, 10, +1), cluster.CycleEvent(1, 16, -1))
	return w
}

// TestDropAutoKeepWithoutLoadEncodes: a drop-auto verdict over loads with no
// loaded node once predicted +Inf, which JSON cannot encode — the trace was
// truncated there. Such a verdict is a bare keep, and the trace round-trips.
func TestDropAutoKeepWithoutLoadEncodes(t *testing.T) {
	w := dropAutoWithoutLoad()
	o := w.Run()
	if o.Err != nil {
		t.Fatal(o.Err)
	}
	recs := sortedRecords(o.Ring)
	var buf bytes.Buffer
	if err := telemetry.WriteJSONL(&buf, recs); err != nil {
		t.Fatalf("encode: %v", err)
	}
	decoded, err := telemetry.DecodeJSONL(&buf)
	if err != nil || len(decoded) != len(recs) {
		t.Fatalf("decoded %d of %d records: %v", len(decoded), len(recs), err)
	}
	bare := 0
	for _, rec := range decoded {
		if d, ok := rec.(telemetry.DecisionRecord); ok && d.Method == "drop-auto" {
			for _, l := range d.Loads {
				if l != 0 {
					t.Fatalf("cycle %d: drop-auto verdict over loads %v, want the unloaded case", d.Cycle, d.Loads)
				}
			}
			if d.Chosen != "keep" || d.Candidates != nil || d.PredictedS != 0 || d.MeasuredS <= 0 {
				t.Errorf("cycle %d: verdict %s, candidates %v, predicted %v, measured %v; want a bare keep",
					d.Cycle, d.Chosen, d.Candidates, d.PredictedS, d.MeasuredS)
			}
			bare++
		}
	}
	if bare == 0 {
		t.Fatal("no drop-auto verdict: the scenario is vacuous")
	}
}
