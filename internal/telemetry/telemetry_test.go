package telemetry

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestStamperSequencesPerNode(t *testing.T) {
	s := NewStamper(3)
	b0 := s.Stamp(KindIteration, 0, 0.5)
	b1 := s.Stamp(KindDecision, 1, 0.75)
	if b0.Node != 3 || b1.Node != 3 {
		t.Fatalf("node not stamped: %+v %+v", b0, b1)
	}
	if b0.Seq != 0 || b1.Seq != 1 {
		t.Fatalf("sequence not monotone: %d %d", b0.Seq, b1.Seq)
	}
	if b0.Kind() != KindIteration || b1.Kind() != KindDecision {
		t.Fatalf("kinds wrong: %q %q", b0.Kind(), b1.Kind())
	}
}

// The ring keeps the newest min(emitted, capacity) records in arrival order
// whether or not it had to grow on the way: below, at and past one chunk of
// its index, and at a capacity that is not a multiple of a chunk.
func TestRingKeepsMostRecent(t *testing.T) {
	for _, tc := range []struct{ capacity, emit int }{
		{3, 5},
		{1024, 1024 + 7},
		{1000, 300},
		{1000, 1000},
		{1000, 2500},
	} {
		r := NewRing(tc.capacity)
		s := NewStamper(0)
		for i := 0; i < tc.emit; i++ {
			r.Emit(IterationRecord{Base: s.Stamp(KindIteration, i, float64(i))})
		}
		held := min(tc.emit, tc.capacity)
		if r.Dropped() != tc.emit-held || r.Len() != held {
			t.Fatalf("cap %d emit %d: dropped %d len %d, want %d and %d",
				tc.capacity, tc.emit, r.Dropped(), r.Len(), tc.emit-held, held)
		}
		recs := r.Records()
		if len(recs) != held {
			t.Fatalf("cap %d emit %d: %d records, want %d", tc.capacity, tc.emit, len(recs), held)
		}
		for i, rec := range recs {
			if got, want := rec.Meta().Cycle, tc.emit-held+i; got != want {
				t.Fatalf("cap %d emit %d: record %d has cycle %d, want %d (oldest evicted first)",
					tc.capacity, tc.emit, i, got, want)
			}
		}
	}
}

func TestRingConcurrentEmit(t *testing.T) {
	r := NewRing(1024)
	var wg sync.WaitGroup
	for n := 0; n < 8; n++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			s := NewStamper(node)
			for i := 0; i < 100; i++ {
				r.Emit(IterationRecord{Base: s.Stamp(KindIteration, i, float64(i))})
			}
		}(n)
	}
	wg.Wait()
	if r.Len() != 800 {
		t.Fatalf("len = %d, want 800", r.Len())
	}
}

// mixedEmit sends n records through every door of the ring in rotation:
// the two by-value methods, Emit with a by-value kind, Emit with another.
// Record i carries cycle i.
func mixedEmit(r *Ring, n int) {
	s := NewStamper(0)
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0:
			r.EmitIteration(IterationRecord{Base: s.Stamp(KindIteration, i, float64(i))})
		case 1:
			r.EmitLoadSample(LoadSampleRecord{Base: s.Stamp(KindLoadSample, i, float64(i)), Reading: i})
		case 2:
			r.Emit(IterationRecord{Base: s.Stamp(KindIteration, i, float64(i))})
		default:
			r.Emit(LoadEventRecord{Base: s.Stamp(KindLoadEvent, i, float64(i))})
		}
	}
}

// Arrival order and oldest-first eviction span the ring's typed stores:
// whichever door a record came through, Records and Walk return the newest
// min(emitted, capacity) of them in the order they arrived, as the record
// types they were emitted as.
func TestRingOrderSpansTypedStores(t *testing.T) {
	for _, tc := range []struct{ capacity, emit int }{{1000, 300}, {100, 100}, {100, 1037}, {7, 500}} {
		r := NewRing(tc.capacity)
		mixedEmit(r, tc.emit)
		held := min(tc.emit, tc.capacity)
		if r.Len() != held || r.Dropped() != tc.emit-held {
			t.Fatalf("cap %d emit %d: len %d dropped %d", tc.capacity, tc.emit, r.Len(), r.Dropped())
		}
		var walked []int
		r.Walk(Visitor{
			Iteration:  func(v *IterationRecord) { walked = append(walked, v.Cycle) },
			LoadSample: func(v *LoadSampleRecord) { walked = append(walked, v.Cycle) },
			Other:      func(rec Record) { walked = append(walked, rec.Meta().Cycle) },
		})
		recs := r.Records()
		if len(recs) != held || len(walked) != held {
			t.Fatalf("cap %d emit %d: %d records, %d walked, want %d", tc.capacity, tc.emit, len(recs), len(walked), held)
		}
		wantIters := 0
		for i, rec := range recs {
			cycle := tc.emit - held + i
			if cycle%2 == 0 {
				wantIters++
			}
			if rec.Meta().Cycle != cycle || walked[i] != cycle {
				t.Fatalf("cap %d emit %d: position %d holds cycle %d (walk: %d), want %d",
					tc.capacity, tc.emit, i, rec.Meta().Cycle, walked[i], cycle)
			}
			var ok bool
			switch cycle % 4 {
			case 0, 2:
				_, ok = rec.(IterationRecord)
			case 1:
				var v LoadSampleRecord
				v, ok = rec.(LoadSampleRecord)
				ok = ok && v.Reading == cycle
			default:
				_, ok = rec.(LoadEventRecord)
			}
			if !ok {
				t.Fatalf("cap %d emit %d: cycle %d came back as %T", tc.capacity, tc.emit, cycle, rec)
			}
		}
		// A nil visitor function skips its store and leaves the rest in order.
		iters := 0
		r.Walk(Visitor{Iteration: func(*IterationRecord) { iters++ }})
		if iters != wantIters {
			t.Fatalf("cap %d emit %d: walked %d iteration records, want %d", tc.capacity, tc.emit, iters, wantIters)
		}
	}
}

func TestSortIsDeterministicOrder(t *testing.T) {
	recs := []Record{
		IterationRecord{Base: Base{K: KindIteration, Node: 1, Time: 2.0, Seq: 0}},
		IterationRecord{Base: Base{K: KindIteration, Node: 0, Time: 2.0, Seq: 1}},
		IterationRecord{Base: Base{K: KindIteration, Node: 0, Time: 2.0, Seq: 0}},
		IterationRecord{Base: Base{K: KindIteration, Node: 2, Time: 1.0, Seq: 5}},
	}
	Sort(recs)
	want := []struct {
		node, seq int
		time      float64
	}{{2, 5, 1.0}, {0, 0, 2.0}, {0, 1, 2.0}, {1, 0, 2.0}}
	for i, w := range want {
		m := recs[i].Meta()
		if m.Node != w.node || m.Seq != w.seq || m.Time != w.time {
			t.Fatalf("position %d: got node=%d seq=%d t=%v, want %+v", i, m.Node, m.Seq, m.Time, w)
		}
	}
}

// kindConstants parses telemetry.go for the Kind* constants, so the
// round-trip table below cannot fall behind the package: a kind added
// without a sample there — or without a decoder — fails the test.
func kindConstants(t *testing.T) map[string]string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "telemetry.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]string{}
	ast.Inspect(f, func(n ast.Node) bool {
		spec, ok := n.(*ast.ValueSpec)
		if !ok || len(spec.Values) != len(spec.Names) {
			return true
		}
		for i, name := range spec.Names {
			lit, ok := spec.Values[i].(*ast.BasicLit)
			if !ok || !strings.HasPrefix(name.Name, "Kind") {
				continue
			}
			v, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Fatalf("%s: %v", name.Name, err)
			}
			kinds[name.Name] = v
		}
		return true
	})
	return kinds
}

func TestJSONLRoundTrip(t *testing.T) {
	samples := map[string]Record{
		KindIteration: IterationRecord{Base: Base{K: KindIteration, Node: 0, Cycle: 3, Time: 0.25, Seq: 0},
			ComputeS: 0.2, CommS: 0.01, WaitS: 0.04, Share: 32, Load: 1},
		KindDecision: DecisionRecord{Base: Base{K: KindDecision, Node: 0, Cycle: 5, Time: 0.5, Seq: 1},
			Method: "successive-balancing", Loads: []int{0, 1, 0, 0}, Powers: []float64{1, 1, 1.5, 1},
			CommCPUS: 0.001, CommWireS: 0.0005, IterCosts: []CostRun{{Lo: 0, N: 100, Cost: 0.001}, {Lo: 100, N: 28, Cost: 0.002}},
			Candidates: []Candidate{
				{Label: "relative-power", Counts: []int{37, 18, 37, 36}, PredictedS: 0.02},
				{Label: "successive-balancing", Counts: []int{40, 9, 40, 39}, PredictedS: 0.015},
			},
			Chosen: "successive-balancing", Counts: []int{40, 9, 40, 39}, PredictedS: 0.015, GraceVT: 0.375},
		KindRedist: RedistRecord{Base: Base{K: KindRedist, Node: 2, Cycle: 5, Time: 0.51, Seq: 0},
			Arrays:   []ArrayMove{{Name: "A", Rows: 7, Bytes: 7168}},
			RowsSent: 7, BytesSent: 7168, BytesRecv: 7168, BytesMoved: 14336, Counts: []int{40, 9, 40, 39},
			LostRows: 3, StartVT: 0.5, StallS: 0.002, Dead: []int{1}},
		KindMembership: MembershipRecord{Base: Base{K: KindMembership, Node: 1, Cycle: 20, Time: 1.5, Seq: 2},
			Change: "rejoin", Active: []int{0, 2, 3}, Removed: []int{1}, Remap: []int{0, 2, 3},
			Left: []int{4}, Joined: []int{3}},
		KindLoadSample: LoadSampleRecord{Base: Base{K: KindLoadSample, Node: 3, Cycle: 8, Time: 0.8, Seq: 4}, Reading: 2},
		KindLoadEvent:  LoadEventRecord{Base: Base{K: KindLoadEvent, Node: 1, Cycle: 10, Time: 1.0, Seq: 9}, Delta: 1, Count: 1},
		KindFailure: FailureRecord{Base: Base{K: KindFailure, Node: 2, Cycle: 11, Time: 1.1, Seq: 3},
			Fault: "delay", Target: 1, DelayS: 0.05},
		KindCollective: CollectiveRecord{Base: Base{K: KindCollective, Node: 0, Cycle: -1, Time: 2.5, Seq: 12},
			Op: "allreduce", Algorithm: "recursive-doubling", Ranks: 256, Steps: 8, Count: 40, Bytes: 81920},
		KindRMA: RMARecord{Base: Base{K: KindRMA, Node: 3, Cycle: 6, Time: 0.6, Seq: 7},
			Op: "pscw", Window: 1, Deposits: 2, Bytes: 16384, StallS: 0.001, HiddenS: 0.004},
	}
	for name, kind := range kindConstants(t) {
		t.Run(name, func(t *testing.T) {
			rec, ok := samples[kind]
			if !ok {
				t.Fatalf("no sample record of kind %q: add one, and its decoder", kind)
			}
			if rec.Kind() != kind {
				t.Fatalf("the sample for %q is of kind %q", kind, rec.Kind())
			}
			var buf bytes.Buffer
			if err := WriteJSONL(&buf, []Record{rec}); err != nil {
				t.Fatal(err)
			}
			back, err := DecodeJSONL(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if len(back) != 1 || !reflect.DeepEqual(rec, back[0]) {
				t.Fatalf("round trip mismatch:\n got %#v\nwant %#v", back, rec)
			}
		})
	}
	if n := len(kindConstants(t)); n != len(samples) || n != len(decoders) {
		t.Fatalf("%d Kind constants, %d samples, %d decoders", n, len(samples), len(decoders))
	}
}

func TestDecodeJSONLRejectsUnknownKind(t *testing.T) {
	_, err := DecodeJSONL(strings.NewReader(`{"kind":"mystery","node":0}` + "\n"))
	if err == nil || !strings.Contains(err.Error(), "unknown kind") {
		t.Fatalf("err = %v, want unknown-kind error", err)
	}
}

// TestSummarize: the two nodes' records of one redistribution at cycle 1 are
// one redistribution, reported beside the two rank records it took.
func TestSummarize(t *testing.T) {
	recs := []Record{
		IterationRecord{Base: Base{K: KindIteration, Node: 0, Cycle: 0}, ComputeS: 1, CommS: 0.1, WaitS: 0.2, Share: 50},
		IterationRecord{Base: Base{K: KindIteration, Node: 0, Cycle: 1}, ComputeS: 1, CommS: 0.1, WaitS: 0.2, Share: 60},
		IterationRecord{Base: Base{K: KindIteration, Node: 1, Cycle: 0}, ComputeS: 2, CommS: 0.2, WaitS: 0.1, Share: 40},
		DecisionRecord{Base: Base{K: KindDecision, Node: 0, Cycle: 1}},
		RedistRecord{Base: Base{K: KindRedist, Node: 0, Cycle: 1}, RowsSent: 10, BytesSent: 1000},
		RedistRecord{Base: Base{K: KindRedist, Node: 1, Cycle: 1}, RowsSent: 5, BytesSent: 500},
		MembershipRecord{Base: Base{K: KindMembership, Node: 0, Cycle: 2}, Change: "drop"},
		RMARecord{Base: Base{K: KindRMA, Node: 0, Cycle: 2}, Op: "pscw", Deposits: 1, Bytes: 64},
		RMARecord{Base: Base{K: KindRMA, Node: 1, Cycle: 2}, Op: "pscw", Deposits: 2, Bytes: 128},
	}
	s := Summarize(recs)
	if s.ByKind[KindIteration] != 3 || s.Decisions != 1 || s.Redists != 1 || s.RedistRecords != 2 {
		t.Fatalf("counts wrong: %+v", s)
	}
	if s.RowsSent != 15 || s.BytesSent != 1500 {
		t.Fatalf("redist totals wrong: rows=%d bytes=%d", s.RowsSent, s.BytesSent)
	}
	if len(s.Nodes) != 2 || s.Nodes[0].Cycles != 2 || s.Nodes[0].LastShare != 60 || s.Nodes[1].ComputeS != 2 {
		t.Fatalf("node summaries wrong: %+v", s.Nodes)
	}
	var buf bytes.Buffer
	s.WriteTable(&buf)
	out := buf.String()
	// The runtime's one-sided epochs are PSCW: the table counts epochs, not fences.
	if s.RMAEpochs != 2 || s.RMADeposits != 3 || s.RMABytes != 192 {
		t.Fatalf("rma totals wrong: epochs=%d deposits=%d bytes=%d", s.RMAEpochs, s.RMADeposits, s.RMABytes)
	}
	for _, want := range []string{"iteration", "redistributions: 1 (2 rank records, rows sent 15", "membership: cycle 2 node 0 drop", "rma: 2 epochs settled 3 deposits (192 bytes)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}
