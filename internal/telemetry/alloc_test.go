package telemetry

import (
	"testing"

	"repro/internal/alloctest"
)

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
// reached its capacity: an evicted record's chunk is reused.
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

// The two per-cycle kinds reach a sink by value: through the Sink interface
// nothing is boxed, neither into a Ring nor through Multi and Nop. A ring at
// capacity allocates nothing at all; one still growing allocates its chunks,
// one per 64 records of a kind.
func TestByValueEmitAllocFree(t *testing.T) {
	const pairs = 6400
	s := NewStamper(0)
	emit := func(sink Sink) {
		sink.EmitIteration(IterationRecord{Base: s.Stamp(KindIteration, 1, 1), ComputeS: 1})
		sink.EmitLoadSample(LoadSampleRecord{Base: s.Stamp(KindLoadSample, 1, 1), Reading: 2})
	}
	full := NewRing(128)
	for name, sink := range map[string]Sink{"full ring": full, "multi": Multi(Nop(), full)} {
		if n := testing.AllocsPerRun(pairs, func() { emit(sink) }); n != 0 {
			t.Errorf("%s: %v allocations per iteration + load-sample pair, want 0", name, n)
		}
	}
	if full.Len() != 128 || full.Dropped() == 0 {
		t.Fatalf("full ring holds %d records, dropped %d", full.Len(), full.Dropped())
	}

	var growing Sink = NewRing(1 << 20)
	got := alloctest.Mallocs(func() {
		for i := 0; i < pairs; i++ {
			emit(growing)
		}
	})
	const chunks = 2*pairs/64 + 2*pairs/1024 + 1
	t.Logf("growing ring: %d mallocs for %d chunks", got, chunks)
	if got > chunks+32 { // slack: the chunk lists' own growth
		t.Errorf("growing ring: %d allocations for %d records, want its %d chunks", got, 2*pairs, chunks)
	}
}
