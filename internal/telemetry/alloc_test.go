package telemetry

import "testing"

// The stamper sits on the runtime's per-cycle hot path: it runs even for
// records that are ultimately cheap to build, so it must not allocate.
func TestStamperStampAllocFree(t *testing.T) {
	s := NewStamper(3)
	var sink Base
	n := testing.AllocsPerRun(1000, func() {
		sink = s.Stamp(KindIteration, 7, 1.5)
	})
	if n != 0 {
		t.Fatalf("Stamper.Stamp allocated %v times per call, want 0", n)
	}
	if sink.Node != 3 || sink.K != KindIteration {
		t.Fatalf("unexpected base %+v", sink)
	}
}

// Ring.Emit must not allocate once the record is boxed and the ring has
// reached its capacity: records are stored by value.
func TestRingEmitAllocFree(t *testing.T) {
	r := NewRing(64)
	var rec Record = Base{K: KindIteration, Node: 1}
	n := testing.AllocsPerRun(1000, func() {
		r.Emit(rec)
	})
	if n != 0 {
		t.Fatalf("Ring.Emit allocated %v times per call, want 0", n)
	}
	if r.Len() != 64 || r.Dropped() == 0 {
		t.Fatalf("ring did not wrap: len=%d dropped=%d", r.Len(), r.Dropped())
	}
}
