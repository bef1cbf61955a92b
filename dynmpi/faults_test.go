package dynmpi_test

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/dynmpi"
)

// TestFaultHelpersAndTelemetryWriters drives the facade's scenario and
// telemetry helpers end to end. A competing process starts on node 1 and
// stops again, and two message faults are built both ways: with
// DropMessages/DelayMessages and by ParseFaults of the same spec. The two
// fault lists must be equal, and so must the two runs: the first run's
// records, collected in a ring and written by WriteTelemetryJSONL, hold the
// same lines as the second run's, streamed through a NewTelemetryJSONL sink,
// and a run without the faults differs.
func TestFaultHelpersAndTelemetryWriters(t *testing.T) {
	built := []dynmpi.Fault{
		dynmpi.DropMessages(0, 1, 2, 3),
		dynmpi.DelayMessages(2, 1, 0, 4, 10*dynmpi.Millisecond),
	}
	parsed, err := dynmpi.ParseFaults("drop:node=0,to=1,after=2,count=3;delay:node=2,to=1,count=4,dur=10ms")
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != len(built) {
		t.Fatalf("ParseFaults gave %d faults, want %d", len(parsed), len(built))
	}
	if !reflect.DeepEqual(built, parsed) {
		t.Fatalf("ParseFaults gave %+v, the helpers %+v", parsed, built)
	}

	const n, iters = 48, 30
	spec := dynmpi.Uniform(3).With(
		dynmpi.CompetingProcessAt(1, 0),
		dynmpi.CompetingProcessStop(1, dynmpi.Time(2*dynmpi.Second)),
	)
	run := func(faults []dynmpi.Fault, sink dynmpi.TelemetrySink) {
		t.Helper()
		cfg := dynmpi.DefaultConfig()
		cfg.Drop = dynmpi.DropNever
		err := dynmpi.Launch(dynmpi.WithFaults(spec, faults...), dynmpi.WithTelemetry(cfg, sink), func(rt *dynmpi.Runtime) error {
			a := rt.RegisterDense("A", n, 8)
			ph := rt.InitPhase(n)
			ph.AddAccess("A", dynmpi.ReadWrite, 1, 0)
			ph.AddAccess("A", dynmpi.Read, 1, -1)
			ph.AddAccess("A", dynmpi.Read, 1, +1)
			rt.Commit()
			a.Fill(func(g, j int) float64 { return float64(g) })
			for c := 0; c < iters; c++ {
				if rt.BeginCycle() {
					lo, hi := ph.Bounds()
					rt.ComputeIters(lo, hi, 5*dynmpi.Millisecond)
					dynmpi.HaloExchange(rt, 1, n,
						func(g int) []float64 { return a.Row(g) },
						func(g int, row []float64) { copy(a.Row(g), row) })
				}
				rt.EndCycle()
			}
			rt.Finalize()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	ring := dynmpi.NewTelemetryRing(1 << 16)
	run(built, ring)
	recs := ring.Records()
	dynmpi.SortTelemetry(recs)
	var written bytes.Buffer
	if err := dynmpi.WriteTelemetryJSONL(&written, recs); err != nil {
		t.Fatal(err)
	}
	redists := 0
	for _, r := range recs {
		if _, ok := r.(dynmpi.RedistRecord); ok {
			redists++
		}
	}
	if redists < 2 {
		t.Fatalf("%d redistributions: the competing process's start and stop should each move rows", redists)
	}

	var streamed bytes.Buffer
	jsonl := dynmpi.NewTelemetryJSONL(&streamed)
	run(parsed, jsonl)
	if err := jsonl.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := func(b *bytes.Buffer) []string {
		l := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
		slices.Sort(l)
		return l
	}
	w, s := lines(&written), lines(&streamed)
	if len(w) != len(recs) {
		t.Fatalf("WriteTelemetryJSONL wrote %d lines for %d records", len(w), len(recs))
	}
	if !slices.Equal(w, s) {
		t.Fatalf("the streamed run's %d lines differ from the ring run's %d written ones", len(s), len(w))
	}

	// The faults act: without them the run is another run.
	var clean bytes.Buffer
	plain := dynmpi.NewTelemetryJSONL(&clean)
	run(nil, plain)
	if err := plain.Flush(); err != nil {
		t.Fatal(err)
	}
	if slices.Equal(w, lines(&clean)) {
		t.Fatal("the message faults changed nothing in the run")
	}
}
