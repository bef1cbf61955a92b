package matrix

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refDense is the fresh-allocation oracle: a window whose every SetWindow
// allocates a new top-level vector and new rows, charging call for call what
// Dense charged when nothing was recycled. The recycling Dense must be
// indistinguishable from it through the API and the CostSink.
type refDense struct {
	scheme Alloc
	rowLen int
	lo, hi int
	rows   [][]float64
	sink   CostSink
}

func (r *refDense) rowBytes() int64 { return int64(r.rowLen) * 8 }

func (r *refDense) setWindow(lo, hi int) {
	n, oldN := hi-lo, r.hi-r.lo
	rows := make([][]float64, n)
	retained := 0
	for g := lo; g < hi; g++ {
		rows[g-lo] = make([]float64, r.rowLen)
		if g >= r.lo && g < r.hi {
			copy(rows[g-lo], r.rows[g-r.lo])
			retained++
		}
	}
	if r.scheme == Projection {
		newBytes := int64(n-retained) * r.rowBytes()
		r.sink.AdjustResident(newBytes - int64(oldN-retained)*r.rowBytes())
		r.sink.ChargeTouch(int64(n)*8 + newBytes)
	} else {
		r.sink.AdjustResident(int64(n-oldN) * r.rowBytes())
		r.sink.ChargeTouch(int64(n)*r.rowBytes() + int64(retained)*r.rowBytes())
	}
	r.lo, r.hi, r.rows = lo, hi, rows
}

func (r *refDense) fill(f func(g, j int) float64) {
	for g := r.lo; g < r.hi; g++ {
		for j := range r.rows[g-r.lo] {
			r.rows[g-r.lo][j] = f(g, j)
		}
	}
}

func (r *refDense) copyRowsTo(dst []float64, lo, hi int) {
	for g := lo; g < hi; g++ {
		copy(dst[(g-lo)*r.rowLen:], r.rows[g-r.lo])
	}
}

func (r *refDense) putRows(lo int, data []float64) {
	for i := 0; i < len(data)/r.rowLen; i++ {
		copy(r.rows[lo+i-r.lo], data[i*r.rowLen:(i+1)*r.rowLen])
		if r.scheme == Contiguous {
			r.sink.ChargeTouch(r.rowBytes())
		}
	}
}

// checkAgainst compares everything observable, then the storage: every
// resident row is exactly one row long with no spare capacity, and no row's
// storage is reachable twice — from two resident rows, or from a resident
// row and the free list.
func (r *refDense) checkAgainst(d *Dense) error {
	if d.Lo() != r.lo || d.Hi() != r.hi {
		return fmt.Errorf("window [%d,%d), want [%d,%d)", d.Lo(), d.Hi(), r.lo, r.hi)
	}
	owner := map[*float64]int{} // first element -> row, or -1 for the free list
	for g := r.lo; g < r.hi; g++ {
		row := d.Row(g)
		if len(row) != r.rowLen || cap(row) != r.rowLen {
			return fmt.Errorf("row %d: len %d cap %d, want %d", g, len(row), cap(row), r.rowLen)
		}
		if !slices.Equal(row, r.rows[g-r.lo]) {
			return fmt.Errorf("row %d: %v, want %v", g, row, r.rows[g-r.lo])
		}
		if prev, dup := owner[&row[0]]; dup {
			return fmt.Errorf("row %d shares storage with row %d", g, prev)
		}
		owner[&row[0]] = g
	}
	for _, row := range d.free {
		if prev, dup := owner[&row[0]]; dup {
			return fmt.Errorf("free row also reachable from %d (-1: twice on the free list)", prev)
		}
		owner[&row[0]] = -1
	}
	if r.lo == r.hi && d.free != nil {
		return fmt.Errorf("empty window still holds %d recycled rows", len(d.free))
	}
	if d.scheme == Contiguous && d.free != nil {
		return fmt.Errorf("contiguous scheme grew a free list")
	}
	for _, row := range d.spare[:cap(d.spare)] {
		if row != nil {
			return fmt.Errorf("the spare top-level vector still references a row")
		}
	}
	return nil
}

// TestDenseMatchesFreshAllocationOracle drives a seeded random operation
// sequence through the recycling Dense and the oracle in lock step, for both
// allocation schemes.
func TestDenseMatchesFreshAllocationOracle(t *testing.T) {
	const rows, rowLen = 24, 5
	for _, scheme := range []Alloc{Projection, Contiguous} {
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			var got, want callLog
			d := NewDense("A", rows, rowLen, scheme, &got)
			ref := &refDense{scheme: scheme, rowLen: rowLen, sink: &want}
			for step := 0; step < 2000; step++ {
				op := rng.Intn(100)
				if ref.lo == ref.hi {
					op = 99 // only a window change is legal on an empty window
				}
				var desc string
				switch {
				case op < 15:
					salt := rng.Float64()
					f := func(g, j int) float64 { return salt + float64(g*100+j) }
					desc = "Fill"
					d.Fill(f)
					ref.fill(f)
				case op < 40:
					a := ref.lo + rng.Intn(ref.hi-ref.lo)
					b := a + rng.Intn(ref.hi-a+1)
					gs, ws := make([]float64, (b-a)*rowLen), make([]float64, (b-a)*rowLen)
					desc = fmt.Sprintf("CopyRowsTo(%d,%d)", a, b)
					d.CopyRowsTo(gs, a, b)
					ref.copyRowsTo(ws, a, b)
					if !slices.Equal(gs, ws) {
						t.Fatalf("%v seed %d step %d: %s = %v, want %v", scheme, seed, step, desc, gs, ws)
					}
				case op < 65:
					a := ref.lo + rng.Intn(ref.hi-ref.lo)
					slab := make([]float64, rng.Intn(ref.hi-a+1)*rowLen)
					for i := range slab {
						slab[i] = rng.Float64()
					}
					desc = fmt.Sprintf("PutRows(%d, %d rows)", a, len(slab)/rowLen)
					d.PutRows(a, slab)
					ref.putRows(a, slab)
				default:
					lo := rng.Intn(rows + 1)
					hi := lo + rng.Intn(rows-lo+1)
					switch rng.Intn(4) {
					case 0:
						hi = lo // the rank leaves the computation
					case 1:
						// A small shift, the common redistribution.
						lo = min(max(ref.lo+rng.Intn(5)-2, 0), rows)
						hi = min(max(ref.hi+rng.Intn(5)-2, lo), rows)
					}
					desc = fmt.Sprintf("SetWindow(%d,%d)", lo, hi)
					d.SetWindow(lo, hi)
					ref.setWindow(lo, hi)
				}
				if err := ref.checkAgainst(d); err != nil {
					t.Fatalf("%v seed %d step %d after %s: %v", scheme, seed, step, desc, err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%v seed %d step %d after %s: cost calls %+v, want %+v", scheme, seed, step, desc, got, want)
				}
				got, want = got[:0], want[:0]
			}
		}
	}
}

// A projection window sliding back and forth — what alternating load does to
// a rank's block — allocates nothing once both top-level vectors exist: the
// row that leaves on one side is the row that enters on the other.
func TestDenseSlidingWindowAllocFree(t *testing.T) {
	d := NewDense("A", 64, 32, Projection, nil)
	d.SetWindow(8, 40)
	slide := func() {
		d.SetWindow(11, 43)
		d.SetWindow(8, 40)
	}
	slide()
	if n := testing.AllocsPerRun(100, slide); n != 0 {
		t.Errorf("sliding the window back and forth: %v allocs per run, want 0", n)
	}
	// Shrinking and growing back is served from the free list as well.
	breathe := func() {
		d.SetWindow(8, 30)
		d.SetWindow(8, 40)
	}
	breathe()
	if n := testing.AllocsPerRun(100, breathe); n != 0 {
		t.Errorf("shrinking and regrowing the window: %v allocs per run, want 0", n)
	}
}
