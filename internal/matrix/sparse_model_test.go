package matrix

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// costCall is one CostSink call: ChargeTouch(n) or AdjustResident(n).
type costCall struct {
	touch bool
	n     int64
}

// callLog records the exact sequence of CostSink calls.
type callLog []costCall

func (l *callLog) ChargeTouch(n int64)    { *l = append(*l, costCall{true, n}) }
func (l *callLog) AdjustResident(n int64) { *l = append(*l, costCall{false, n}) }

type refElem struct {
	col int32
	val float64
}

// refSparse is the fresh-allocation oracle: the vector of lists as a slice
// of slices that never reuses anything, charging call for call what Sparse
// charged when every node was its own heap object. The recycling Sparse
// must be indistinguishable from it through the API and the CostSink.
type refSparse struct {
	lo, hi int
	rows   [][]refElem
	sink   CostSink
}

func (r *refSparse) setWindow(lo, hi int) {
	rows := make([][]refElem, hi-lo)
	var dropped int64
	for g := r.lo; g < r.hi; g++ {
		if g >= lo && g < hi {
			rows[g-lo] = r.rows[g-r.lo]
		} else {
			dropped += int64(len(r.rows[g-r.lo]))
		}
	}
	r.sink.AdjustResident(-dropped * elemWireBytes)
	r.sink.ChargeTouch(int64(hi-lo) * 8)
	r.lo, r.hi, r.rows = lo, hi, rows
}

func (r *refSparse) append(g int, col int32, val float64) {
	r.rows[g-r.lo] = append(r.rows[g-r.lo], refElem{col, val})
	r.sink.AdjustResident(elemWireBytes)
	r.sink.ChargeTouch(elemWireBytes)
}

func (r *refSparse) clearRow(g int) {
	r.sink.AdjustResident(int64(-elemWireBytes * len(r.rows[g-r.lo])))
	r.rows[g-r.lo] = nil
}

func (r *refSparse) unpackRow(g int, cols []int32, vals []float64) {
	r.sink.AdjustResident(int64(elemWireBytes * (len(vals) - len(r.rows[g-r.lo]))))
	r.sink.ChargeTouch(int64(elemWireBytes * len(vals)))
	row := make([]refElem, len(vals))
	for i := range vals {
		row[i] = refElem{cols[i], vals[i]}
	}
	r.rows[g-r.lo] = row
}

func (r *refSparse) unpackRows(lo int, p *PackedRows) {
	for i := 0; i < p.Rows(); i++ {
		a, b := p.Starts[i], p.Starts[i+1]
		r.unpackRow(lo+i, p.Cols[a:b], p.Vals[a:b])
	}
}

func (r *refSparse) packRowsTo(p *PackedRows, lo, hi int) {
	if len(p.Starts) == 0 {
		p.Starts = append(p.Starts, 0)
	}
	for g := lo; g < hi; g++ {
		for _, e := range r.rows[g-r.lo] {
			p.Cols = append(p.Cols, e.col)
			p.Vals = append(p.Vals, e.val)
		}
		p.Starts = append(p.Starts, int32(len(p.Vals)))
		r.sink.ChargeTouch(int64(elemWireBytes * len(r.rows[g-r.lo])))
	}
}

// checkAgainst compares everything observable, then the node graph: no node
// may be reachable from two rows, or from a row and the free list, and none
// may leak (every node a slab ever issued is in a row or on the free list).
func (r *refSparse) checkAgainst(s *Sparse) error {
	if s.Lo() != r.lo || s.Hi() != r.hi {
		return fmt.Errorf("window [%d,%d), want [%d,%d)", s.Lo(), s.Hi(), r.lo, r.hi)
	}
	owner := map[*Elem]int{} // node -> row, or -1 for the free list
	nnz := 0
	for g := r.lo; g < r.hi; g++ {
		want := r.rows[g-r.lo]
		nnz += len(want)
		if s.RowLen(g) != len(want) {
			return fmt.Errorf("row %d: RowLen %d, want %d", g, s.RowLen(g), len(want))
		}
		i := 0
		var last *Elem
		for e := s.RowHead(g); e != nil; e = e.Next() {
			if prev, dup := owner[e]; dup {
				return fmt.Errorf("row %d: node %p already reachable from row %d", g, e, prev)
			}
			owner[e] = g
			if i >= len(want) || e.Col != want[i].col || e.Val != want[i].val {
				return fmt.Errorf("row %d elem %d: (%d,%v), want %v of %d", g, i, e.Col, e.Val, want, len(want))
			}
			i++
			last = e
		}
		if i != len(want) {
			return fmt.Errorf("row %d: walked %d elements, want %d", g, i, len(want))
		}
		if s.rows[g-r.lo].tail != last {
			return fmt.Errorf("row %d: tail is not the last node", g)
		}
	}
	if s.NNZ() != nnz {
		return fmt.Errorf("NNZ %d, want %d", s.NNZ(), nnz)
	}
	for e := s.free; e != nil; e = e.next {
		if prev, dup := owner[e]; dup {
			return fmt.Errorf("free node %p also reachable from %d (-1: free list cycle)", e, prev)
		}
		owner[e] = -1
	}
	if r.lo == r.hi && (s.free != nil || s.slab != nil) {
		return fmt.Errorf("empty window still holds recycled nodes or a slab")
	}
	if issued := len(owner) + len(s.slab); issued%slabElems != 0 {
		return fmt.Errorf("%d nodes in rows and free list + %d unissued is not whole slabs: a node leaked",
			len(owner), len(s.slab))
	}
	return nil
}

// TestSparseMatchesFreshAllocationOracle drives a seeded random operation
// sequence through the recycling Sparse and the oracle in lock step.
func TestSparseMatchesFreshAllocationOracle(t *testing.T) {
	const rows = 24
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var got, want callLog
		s := NewSparse("M", rows, &got)
		ref := &refSparse{sink: &want}
		randomRow := func(n int) ([]int32, []float64) {
			cols, vals := make([]int32, n), make([]float64, n)
			for i := range cols {
				cols[i], vals[i] = int32(rng.Intn(1000)), rng.Float64()
			}
			return cols, vals
		}
		randomResident := func() int { return ref.lo + rng.Intn(ref.hi-ref.lo) }
		for step := 0; step < 3000; step++ {
			op := rng.Intn(100)
			if ref.lo == ref.hi {
				op = 99 // only a window change is legal on an empty window
			}
			var desc string
			switch {
			case op < 55:
				g := randomResident()
				col, val := int32(rng.Intn(1000)), rng.Float64()
				desc = fmt.Sprintf("Append(%d)", g)
				s.Append(g, col, val)
				ref.append(g, col, val)
			case op < 65:
				g := randomResident()
				desc = fmt.Sprintf("ClearRow(%d)", g)
				s.ClearRow(g)
				ref.clearRow(g)
			case op < 75:
				g := randomResident()
				cols, vals := randomRow(rng.Intn(80))
				desc = fmt.Sprintf("UnpackRow(%d, %d elems)", g, len(vals))
				s.UnpackRow(g, PackedRow{Cols: cols, Vals: vals})
				ref.unpackRow(g, cols, vals)
			case op < 92:
				// Pack a range, compare the batches, and unpack the batch
				// over another range of the same length (the two may overlap:
				// the batch is a copy, as it is after a transfer).
				a := randomResident()
				b := a + 1 + rng.Intn(min(6, ref.hi-a))
				var ps, pr PackedRows
				s.PackRowsTo(&ps, a, b)
				ref.packRowsTo(&pr, a, b)
				if !reflect.DeepEqual(ps, pr) {
					t.Fatalf("seed %d step %d: PackRowsTo(%d,%d) = %v, want %v", seed, step, a, b, ps, pr)
				}
				dst := ref.lo + rng.Intn(ref.hi-ref.lo-(b-a)+1)
				desc = fmt.Sprintf("PackRowsTo(%d,%d)+UnpackRows(%d)", a, b, dst)
				s.UnpackRows(dst, &ps)
				ref.unpackRows(dst, &pr)
			default:
				lo := rng.Intn(rows + 1)
				hi := lo + rng.Intn(rows-lo+1)
				if rng.Intn(4) == 0 {
					hi = lo // the rank leaves the computation
				}
				desc = fmt.Sprintf("SetWindow(%d,%d)", lo, hi)
				s.SetWindow(lo, hi)
				ref.setWindow(lo, hi)
			}
			if err := ref.checkAgainst(s); err != nil {
				t.Fatalf("seed %d step %d after %s: %v", seed, step, desc, err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d after %s: cost calls %+v, want %+v", seed, step, desc, got, want)
			}
			got, want = got[:0], want[:0]
		}
	}
}

// The steady state of the vector of lists allocates nothing: emptying rows
// and refilling them with the same population reuses their nodes, and so
// does unpacking a batch over rows that already hold as many elements.
func TestSparseSteadyStateAllocFree(t *testing.T) {
	s := NewSparse("M", 16, nil)
	s.SetWindow(0, 16)
	refill := func() {
		for g := 0; g < 16; g++ {
			s.ClearRow(g)
			for k := 0; k < 8; k++ {
				s.Append(g, int32(k), float64(g))
			}
		}
	}
	refill()
	if n := testing.AllocsPerRun(100, refill); n != 0 {
		t.Errorf("ClearRow + re-Append of the same population: %v allocs per run, want 0", n)
	}
	var p PackedRows
	s.PackRowsTo(&p, 4, 12)
	if n := testing.AllocsPerRun(100, func() { s.UnpackRows(4, &p) }); n != 0 {
		t.Errorf("UnpackRows over warm rows: %v allocs per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { s.UnpackRow(5, PackedRow{Cols: p.Cols[:8], Vals: p.Vals[:8]}) }); n != 0 {
		t.Errorf("UnpackRow over a warm row: %v allocs per run, want 0", n)
	}
}
