package matrix

import (
	"testing"
	"testing/quick"
)

// recordSink records charges for verifying the cost model.
type recordSink struct {
	touched  int64
	resident int64
}

func (r *recordSink) ChargeTouch(b int64)    { r.touched += b }
func (r *recordSink) AdjustResident(d int64) { r.resident += d }
func (r *recordSink) ChargeGrowN(b int64, k int) {
	r.touched, r.resident = r.touched+b*int64(k), r.resident+b*int64(k)
}

func fillVal(g, j int) float64 { return float64(g*1000 + j) }

func TestDenseWindowBasics(t *testing.T) {
	d := NewDense("A", 100, 4, Projection, nil)
	d.SetWindow(10, 20)
	if d.Lo() != 10 || d.Hi() != 20 {
		t.Fatalf("window [%d,%d)", d.Lo(), d.Hi())
	}
	if !d.Resident(10) || !d.Resident(19) || d.Resident(20) || d.Resident(9) {
		t.Fatal("Resident wrong")
	}
	d.Fill(fillVal)
	if d.Row(15)[2] != 15002 {
		t.Fatalf("Row(15)[2] = %v", d.Row(15)[2])
	}
	if d.RowBytes() != 32 {
		t.Fatalf("RowBytes = %d", d.RowBytes())
	}
}

func TestDenseRowOutsideWindowPanics(t *testing.T) {
	d := NewDense("A", 10, 2, Projection, nil)
	d.SetWindow(2, 5)
	// Row inlines with its panic out of line; the message is unchanged.
	for g, want := range map[int]string{
		5: "matrix: A row 5 outside resident window [2,5)",
		1: "matrix: A row 1 outside resident window [2,5)",
	} {
		func() {
			defer func() {
				if got := recover(); got != want {
					t.Errorf("Row(%d) panicked with %v, want %q", g, got, want)
				}
			}()
			d.Row(g)
		}()
	}
}

func testWindowPreservesOverlap(t *testing.T, scheme Alloc) {
	d := NewDense("A", 50, 3, scheme, nil)
	d.SetWindow(10, 30)
	d.Fill(fillVal)
	d.SetWindow(20, 40) // overlap [20,30)
	for g := 20; g < 30; g++ {
		for j := 0; j < 3; j++ {
			if d.Row(g)[j] != fillVal(g, j) {
				t.Fatalf("%v: row %d col %d = %v, want %v", scheme, g, j, d.Row(g)[j], fillVal(g, j))
			}
		}
	}
	for g := 30; g < 40; g++ {
		for j := 0; j < 3; j++ {
			if d.Row(g)[j] != 0 {
				t.Fatalf("%v: new row %d not zeroed", scheme, g)
			}
		}
	}
}

func TestProjectionWindowPreservesOverlap(t *testing.T) { testWindowPreservesOverlap(t, Projection) }
func TestContiguousWindowPreservesOverlap(t *testing.T) { testWindowPreservesOverlap(t, Contiguous) }

func TestSchemesAgreeOnContents(t *testing.T) {
	p := NewDense("P", 40, 5, Projection, nil)
	c := NewDense("C", 40, 5, Contiguous, nil)
	moves := [][2]int{{0, 10}, {5, 25}, {20, 40}, {18, 30}, {0, 40}, {39, 40}}
	p.SetWindow(0, 10)
	c.SetWindow(0, 10)
	p.Fill(fillVal)
	c.Fill(fillVal)
	for _, m := range moves[1:] {
		p.SetWindow(m[0], m[1])
		c.SetWindow(m[0], m[1])
		for g := m[0]; g < m[1]; g++ {
			for j := 0; j < 5; j++ {
				if p.Row(g)[j] != c.Row(g)[j] {
					t.Fatalf("schemes diverged at row %d col %d after move %v", g, j, m)
				}
			}
		}
	}
}

func TestProjectionCheaperThanContiguousOnGrow(t *testing.T) {
	// Growing a window by one row: projection touches ~1 row; contiguous
	// re-touches the whole block.
	const rows, rowLen = 1000, 256
	ps, cs := &recordSink{}, &recordSink{}
	p := NewDense("P", rows, rowLen, Projection, ps)
	c := NewDense("C", rows, rowLen, Contiguous, cs)
	p.SetWindow(0, 500)
	c.SetWindow(0, 500)
	ps.touched, cs.touched = 0, 0
	p.SetWindow(0, 501)
	c.SetWindow(0, 501)
	if ps.touched >= cs.touched/10 {
		t.Fatalf("projection touch %d not ≪ contiguous %d", ps.touched, cs.touched)
	}
}

func TestResidentAccountingBalances(t *testing.T) {
	for _, scheme := range []Alloc{Projection, Contiguous} {
		s := &recordSink{}
		d := NewDense("A", 100, 8, scheme, s)
		d.SetWindow(0, 60)
		d.SetWindow(30, 90)
		d.SetWindow(0, 0)
		if s.resident != 0 {
			t.Errorf("%v: resident accounting leaks %d bytes", scheme, s.resident)
		}
	}
}

func TestBadShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewDense("A", 0, 4, Projection, nil)
}

func TestBadWindowPanics(t *testing.T) {
	d := NewDense("A", 10, 2, Projection, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	d.SetWindow(5, 3)
}

// Property: any sequence of window moves preserves the values of rows that
// remain resident across each single move.
func TestWindowMoveProperty(t *testing.T) {
	f := func(moves []uint16, schemeBit bool) bool {
		scheme := Projection
		if schemeBit {
			scheme = Contiguous
		}
		const rows = 64
		d := NewDense("A", rows, 2, scheme, nil)
		d.SetWindow(0, rows)
		d.Fill(fillVal)
		lo, hi := 0, rows
		written := make(map[int]bool)
		for g := 0; g < rows; g++ {
			written[g] = true
		}
		for _, mv := range moves {
			nlo := int(mv) % rows
			nhi := nlo + int(mv>>8)%(rows-nlo) + 1
			d.SetWindow(nlo, nhi)
			for g := nlo; g < nhi; g++ {
				keep := g >= lo && g < hi && written[g]
				if keep {
					if d.Row(g)[1] != fillVal(g, 1) {
						return false
					}
				} else {
					if d.Row(g)[1] != 0 {
						return false
					}
					written[g] = false
				}
			}
			// Rows outside the previous window lost their values.
			for g := 0; g < rows; g++ {
				if g < nlo || g >= nhi {
					written[g] = false
				}
			}
			lo, hi = nlo, nhi
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestAllocString(t *testing.T) {
	if Projection.String() != "projection" || Contiguous.String() != "contiguous" {
		t.Fatal("String names")
	}
	if Alloc(9).String() != "Alloc(9)" {
		t.Fatal("unknown scheme name")
	}
}
