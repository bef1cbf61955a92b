package matrix

import (
	"slices"
	"testing"
)

// Bulk (slab) pack/unpack paths must move the same data and charge the same
// virtual costs as their per-row counterparts — they are host-side batching
// optimisations, invisible to the simulation model.

func TestDenseCopyRowsToMatchesRows(t *testing.T) {
	for _, scheme := range []Alloc{Projection, Contiguous} {
		d := NewDense("A", 20, 3, scheme, nil)
		d.SetWindow(5, 15)
		d.Fill(fillVal)
		slab := make([]float64, 4*3)
		d.CopyRowsTo(slab, 8, 12)
		for g := 8; g < 12; g++ {
			for j := 0; j < 3; j++ {
				if slab[(g-8)*3+j] != fillVal(g, j) {
					t.Fatalf("%v slab[%d][%d] = %v, want %v", scheme, g, j, slab[(g-8)*3+j], fillVal(g, j))
				}
			}
		}
	}
}

// An empty range copies nothing and does not panic, even against an empty
// window (a rank that owns no rows after a grow packs its replica slab).
func TestDenseCopyRowsToEmptyRange(t *testing.T) {
	for _, scheme := range []Alloc{Projection, Contiguous} {
		d := NewDense("A", 20, 3, scheme, nil)
		d.CopyRowsTo(nil, 4, 4)
		d.SetWindow(5, 15)
		d.CopyRowsTo(nil, 17, 17)
	}
}

func TestDenseCopyRowsToChargesNothing(t *testing.T) {
	sink := &recordSink{}
	d := NewDense("A", 20, 3, Contiguous, sink)
	d.SetWindow(0, 20)
	before := sink.touched
	d.CopyRowsTo(make([]float64, 5*3), 2, 7)
	if sink.touched != before {
		t.Fatalf("CopyRowsTo charged %d bytes, want 0", sink.touched-before)
	}
}

// PutRows copies the slab into the window's own rows and charges what
// installing each row costs under the scheme: nothing under Projection (the
// model adopts the incoming row), one RowBytes touch per row under
// Contiguous, and no resident-set change either way.
func TestDensePutRowsCharges(t *testing.T) {
	for _, scheme := range []Alloc{Projection, Contiguous} {
		var got, want callLog
		d := NewDense("A", 20, 3, scheme, &got)
		d.SetWindow(5, 15)
		got = got[:0]

		slab := make([]float64, 4*3)
		for i := range slab {
			slab[i] = float64(i + 100)
		}
		d.PutRows(8, slab)
		if scheme == Contiguous {
			for g := 8; g < 12; g++ {
				want.ChargeTouch(d.RowBytes())
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%v PutRows cost calls %+v, want %+v", scheme, got, want)
		}
		for g := 8; g < 12; g++ {
			for j := 0; j < 3; j++ {
				if d.Row(g)[j] != slab[(g-8)*3+j] {
					t.Fatalf("%v row %d col %d: %v, want %v", scheme, g, j, d.Row(g)[j], slab[(g-8)*3+j])
				}
			}
		}
		slab[0] = -1
		if d.Row(8)[0] == -1 {
			t.Fatalf("%v: the window aliases the slab", scheme)
		}
	}
}

func TestDensePutRowsValidates(t *testing.T) {
	d := NewDense("A", 20, 3, Projection, nil)
	d.SetWindow(5, 15)
	for _, tc := range []struct {
		name string
		lo   int
		slab []float64
	}{
		{"ragged", 8, make([]float64, 4)},
		{"below", 4, make([]float64, 3)},
		{"above", 14, make([]float64, 6)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", tc.name)
				}
			}()
			d.PutRows(tc.lo, tc.slab)
		}()
	}
}

func buildBulkSparse(sink CostSink) *Sparse {
	s := NewSparse("S", 10, sink)
	s.SetWindow(0, 10)
	for g := 0; g < 10; g++ {
		for k := 0; k <= g%4; k++ {
			s.Append(g, int32(k*2), float64(g*10+k))
		}
	}
	return s
}

func TestSparsePackRowsToMatchesPackRow(t *testing.T) {
	bulkSink, rowSink := &recordSink{}, &recordSink{}
	bulk := buildBulkSparse(bulkSink)
	perRow := buildBulkSparse(rowSink)
	bulkSink.touched, rowSink.touched = 0, 0

	var p PackedRows
	bulk.PackRowsTo(&p, 2, 8)
	wantBytes := 0
	off := 0
	for g := 2; g < 8; g++ {
		pr := perRow.PackRow(g)
		wantBytes += pr.WireBytes()
		if int(p.Starts[g-2]) != off {
			t.Fatalf("row %d start %d, want %d", g, p.Starts[g-2], off)
		}
		for i := range pr.Vals {
			if p.Cols[off+i] != pr.Cols[i] || p.Vals[off+i] != pr.Vals[i] {
				t.Fatalf("row %d elem %d mismatch", g, i)
			}
		}
		off += len(pr.Vals)
	}
	if p.Rows() != 6 || int(p.Starts[6]) != off {
		t.Fatalf("batch shape rows=%d end=%d want 6/%d", p.Rows(), p.Starts[6], off)
	}
	if p.WireBytes() != wantBytes {
		t.Fatalf("WireBytes %d, per-row sum %d", p.WireBytes(), wantBytes)
	}
	if bulkSink.touched != rowSink.touched {
		t.Fatalf("PackRowsTo charged %d, PackRow path charged %d", bulkSink.touched, rowSink.touched)
	}
}

func TestSparseUnpackRowsMatchesUnpackRow(t *testing.T) {
	src := buildBulkSparse(nil)
	var p PackedRows
	src.PackRowsTo(&p, 2, 8)

	bulkSink, rowSink := &recordSink{}, &recordSink{}
	bulk := buildBulkSparse(bulkSink)
	perRow := buildBulkSparse(rowSink)
	bulkSink.touched, bulkSink.resident = 0, 0
	rowSink.touched, rowSink.resident = 0, 0

	bulk.UnpackRows(2, &p)
	for g := 2; g < 8; g++ {
		perRow.UnpackRow(g, src.PackRow(g))
	}
	// Charge both the same (src.PackRow above used a nil sink).
	if bulkSink.touched != rowSink.touched || bulkSink.resident != rowSink.resident {
		t.Fatalf("UnpackRows charged touch=%d resident=%d, per-row path touch=%d resident=%d",
			bulkSink.touched, bulkSink.resident, rowSink.touched, rowSink.resident)
	}
	for g := 2; g < 8; g++ {
		eb, ep := bulk.RowHead(g), perRow.RowHead(g)
		for eb != nil || ep != nil {
			if eb == nil || ep == nil || eb.Col != ep.Col || eb.Val != ep.Val {
				t.Fatalf("row %d content mismatch", g)
			}
			eb, ep = eb.Next(), ep.Next()
		}
	}
}

func TestSparsePackRowsToReset(t *testing.T) {
	s := buildBulkSparse(nil)
	var p PackedRows
	s.PackRowsTo(&p, 0, 5)
	colsCap, valsCap := cap(p.Cols), cap(p.Vals)
	p.Reset()
	if p.Rows() != -1 && len(p.Starts) != 0 {
		t.Fatalf("Reset left %d starts", len(p.Starts))
	}
	s.PackRowsTo(&p, 0, 5)
	if cap(p.Cols) != colsCap || cap(p.Vals) != valsCap {
		t.Fatal("Reset did not retain backing arrays")
	}
	if p.Rows() != 5 {
		t.Fatalf("repacked rows = %d", p.Rows())
	}
}

func TestSparseUnpackRowsRagged(t *testing.T) {
	s := buildBulkSparse(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	s.UnpackRows(0, &PackedRows{Starts: []int32{0, 1}, Cols: []int32{1}, Vals: nil})
}
