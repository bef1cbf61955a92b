package cluster

import (
	"testing"

	"repro/internal/vclock"
)

// TestChargePathAllocFree holds the charge path allocation-free on a loaded
// node that cannot page — the node of every bench workload: a single
// Compute, the bulk ComputeN, the per-element ChargeTouch and the bulk
// ChargeGrowN each cost 0 allocations per call.
func TestChargePathAllocFree(t *testing.T) {
	n := New(Uniform(1).With(TimeEvent(0, 0, +1))).Node(0)
	for _, c := range []struct {
		name string
		op   func()
	}{
		{"Compute", func() { n.Compute(vclock.Millisecond) }},
		{"ComputeN", func() { n.ComputeN(1600*vclock.Microsecond, 64) }},
		{"ChargeTouch", func() { n.ChargeTouch(32) }},
		{"ChargeGrowN/particle4", func() { n.ChargeGrowN(12, 4) }},
		{"ChargeGrowN/row300", func() { n.ChargeGrowN(12, 300) }},
	} {
		c.op() // the first touch fixes the node's remembered charge
		if allocs := testing.AllocsPerRun(200, c.op); allocs != 0 {
			t.Errorf("%s: %v allocs per call, want 0", c.name, allocs)
		}
	}
}

// BenchmarkNodeComputeN is the bulk form at adapt_dense's shape: 1.6 ms rows
// against 5–15 ms timeslices, charged 64 at a time. One op is one row.
func BenchmarkNodeComputeN(b *testing.B) {
	b.ReportAllocs()
	spec := Uniform(1).With(TimeEvent(0, 0, +1))
	n := New(spec).Node(0)
	b.ResetTimer()
	for i := 0; i < b.N; i += 64 {
		n.ComputeN(1600*vclock.Microsecond, 64)
	}
}

// BenchmarkChargeGrowN is the bulk charge of a run of sparse elements at the
// particle step's two shapes — one particle appended (AppendRun) and one
// row's stayers settled (RowEdit.Settle) — on a loaded node that cannot page.
// One op is one element.
func BenchmarkChargeGrowN(b *testing.B) {
	for _, c := range []struct {
		name string
		k    int
	}{{"particle4", 4}, {"row300", 300}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			spec := Uniform(1).With(TimeEvent(0, 0, +1))
			n := New(spec).Node(0)
			b.ResetTimer()
			for i := 0; i < b.N; i += c.k {
				n.ChargeGrowN(12, c.k)
			}
		})
	}
}
