package exp

import (
	"bytes"
	"testing"

	"repro/internal/fault"
	"repro/internal/telemetry"
	"repro/internal/vclock"
)

// crashTraceOptions is the acceptance scenario: the canonical loaded-4
// trace with rank 2 crashing at the start of cycle 12.
func crashTraceOptions() TraceOptions {
	return TraceOptions{Faults: []fault.Fault{fault.CrashAtCycle(2, 12)}}
}

func encodeTrace(t *testing.T, o TraceOptions) (*TraceResult, []byte) {
	t.Helper()
	r, err := RunTrace(o)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := telemetry.WriteJSONL(&buf, r.Records); err != nil {
		t.Fatal(err)
	}
	return r, buf.Bytes()
}

// TestTraceWithCrashDeterministic is the tentpole acceptance test: the
// crash-one-rank-mid-cycle scenario completes, produces exactly one failure
// record plus a failure-drop membership transition on every survivor, and
// repeated runs are byte-identical.
func TestTraceWithCrashDeterministic(t *testing.T) {
	r, a := encodeTrace(t, crashTraceOptions())
	_, b := encodeTrace(t, crashTraceOptions())
	if !bytes.Equal(a, b) {
		t.Fatal("two identical crash runs produced different JSONL")
	}

	failures, failureDrops := 0, 0
	for _, rec := range r.Records {
		switch v := rec.(type) {
		case telemetry.FailureRecord:
			failures++
			if v.Fault != "crash" || v.Node != 2 || v.Cycle != 12 {
				t.Errorf("unexpected failure record %+v", v)
			}
		case telemetry.MembershipRecord:
			if v.Change == "failure-drop" {
				failureDrops++
				for _, act := range v.Active {
					if act == 2 {
						t.Errorf("failure-drop still lists the dead rank: %+v", v)
					}
				}
			}
		}
	}
	if failures != 1 {
		t.Fatalf("trace has %d failure records, want exactly 1", failures)
	}
	if failureDrops != 3 {
		t.Fatalf("saw %d failure-drop membership records, want one per survivor (3)", failureDrops)
	}
	if !r.Res.Stats[2].Crashed {
		t.Fatal("rank 2 not marked crashed in the result")
	}
	if r.Res.Stats[0].Crashed || r.Res.Stats[1].Crashed || r.Res.Stats[3].Crashed {
		t.Fatal("a survivor was marked crashed")
	}
	if s := telemetry.Summarize(r.Records); len(s.Failures) != 1 {
		t.Fatalf("summary counts %d failures, want 1", len(s.Failures))
	}
}

// TestCrashWithoutReplicationReportsLostRows: without buddy replication the
// dead rank's rows cannot be reconstructed, and the recovery redistribution
// must say so explicitly rather than silently zero-fill.
func TestCrashWithoutReplicationReportsLostRows(t *testing.T) {
	r, _ := encodeTrace(t, crashTraceOptions())
	lost := 0
	for _, rec := range r.Records {
		if v, ok := rec.(telemetry.RedistRecord); ok {
			lost += v.LostRows
		}
	}
	if lost == 0 {
		t.Fatal("crash without replication declared no rows lost")
	}
}

// TestCrashWithReplicationMatchesFaultFreeChecksum: with per-cycle buddy
// replication the replica captured at the end of the previous cycle is
// exactly the dead rank's state at the crash boundary, so the recovered run
// reproduces the fault-free checksum bit-for-bit.
func TestCrashWithReplicationMatchesFaultFreeChecksum(t *testing.T) {
	clean, err := RunTrace(TraceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	o := crashTraceOptions()
	o.Replicate = true
	o.ReplicaEvery = 1
	faulty, err := RunTrace(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range faulty.Records {
		if v, ok := rec.(telemetry.RedistRecord); ok && v.LostRows != 0 {
			t.Fatalf("replicated run still lost %d rows (cycle %d node %d)", v.LostRows, v.Cycle, v.Node)
		}
	}
	if faulty.Res.Checksum != clean.Res.Checksum {
		t.Fatalf("recovered checksum %v != fault-free checksum %v", faulty.Res.Checksum, clean.Res.Checksum)
	}
}

// TestCrashDuringRedistributionRecovers probes the hardest window: a timed
// crash placed halfway through the victim's own redistribution (located by
// a fault-free probe run), so some of its row transfers complete and some
// never arrive. The run must still complete deterministically.
func TestCrashDuringRedistributionRecovers(t *testing.T) {
	probe, err := RunTrace(TraceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const victim = 2
	var recs []telemetry.RedistRecord
	for _, rec := range probe.Records {
		if r, ok := rec.(telemetry.RedistRecord); ok && r.Node == victim {
			recs = append(recs, r)
		}
	}
	if len(recs) == 0 {
		t.Fatalf("probe found no redistribution on rank %d", victim)
	}
	start, end := vclock.Time(vclock.FromSeconds(recs[0].StartVT)), vclock.Time(vclock.FromSeconds(recs[0].Time))
	if end <= start {
		t.Fatalf("probe found no redistribution window on rank %d (start %v end %v)", victim, start, end)
	}
	o := TraceOptions{Faults: []fault.Fault{fault.CrashAt(victim, start.Add(vclock.Duration(end-start)/2))}}
	r, a := encodeTrace(t, o)
	_, b := encodeTrace(t, o)
	if !bytes.Equal(a, b) {
		t.Fatal("mid-redistribution crash runs diverged")
	}
	if !r.Res.Stats[victim].Crashed {
		t.Fatal("victim not marked crashed")
	}
	drops := 0
	for _, rec := range r.Records {
		if v, ok := rec.(telemetry.MembershipRecord); ok && v.Change == "failure-drop" {
			drops++
		}
	}
	if drops == 0 {
		t.Fatal("survivors never performed the failure drop")
	}
}

// TestNoFaultTraceUnchanged guards the zero-overhead claim at the trace
// level: constructing fault options but injecting nothing must reproduce
// the canonical golden trace byte-for-byte (the JSONL golden test pins the
// same bytes; this asserts the fault-free path through the new option
// plumbing).
func TestNoFaultTraceUnchanged(t *testing.T) {
	_, a := encodeTrace(t, TraceOptions{Faults: []fault.Fault{}})
	_, b := encodeTrace(t, TraceOptions{})
	if !bytes.Equal(a, b) {
		t.Fatal("explicit empty fault set changed the trace")
	}
	for _, line := range bytes.Split(a, []byte("\n")) {
		if bytes.Contains(line, []byte(`"kind":"failure"`)) {
			t.Fatal("fault-free trace contains a failure record")
		}
	}
}
