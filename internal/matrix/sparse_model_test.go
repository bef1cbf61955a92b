package matrix

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
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

// ChargeGrowN logs what it is defined as, so a bulk charge and the loop it
// replaces compare equal.
func (l *callLog) ChargeGrowN(n int64, k int) {
	for ; k > 0; k-- {
		l.AdjustResident(n)
		l.ChargeTouch(n)
	}
}

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

// edit is what RowEdit is defined as: run i of the row (widths[i] elements)
// survives, with the values rewrite gives it, iff keep[i]; the cost is
// ClearRow followed by one Append per kept element.
func (r *refSparse) edit(g int, widths []int, keep []bool, rewrite func(float64) float64) {
	old := r.rows[g-r.lo]
	r.clearRow(g)
	for i, w := range widths {
		for _, e := range old[:w] {
			if keep[i] {
				r.append(g, e.col, rewrite(e.val))
			}
		}
		old = old[w:]
	}
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

// editRow drives a RowEdit over global row g with the same script as
// refSparse.edit, checking what Read hands back on the way.
func editRow(s *Sparse, g int, widths []int, keep []bool, rewrite func(float64) float64) error {
	e := s.RowHead(g)
	ed := s.EditRow(g)
	for i, w := range widths {
		want := make([]float64, w)
		col := e.Col
		for j := range want {
			want[j], e = e.Val, e.Next() // before the run is dropped: lifetime rule
		}
		vals := make([]float64, w)
		if !ed.More() {
			return fmt.Errorf("run %d: More() = false with elements left", i)
		}
		if c := ed.Read(vals); c != col || !slices.Equal(vals, want) {
			return fmt.Errorf("run %d: Read = (%d, %v), want (%d, %v)", i, c, vals, col, want)
		}
		if !keep[i] {
			ed.Drop()
			continue
		}
		for j := range vals {
			vals[j] = rewrite(vals[j])
		}
		ed.Keep(vals...)
	}
	if ed.More() {
		return fmt.Errorf("More() = true at the end of the row")
	}
	ed.Settle()
	return nil
}

// randomRuns cuts n elements into runs of 1 to 5.
func randomRuns(rng *rand.Rand, n int) []int {
	var widths []int
	for n > 0 {
		w := 1 + rng.Intn(min(5, n))
		widths, n = append(widths, w), n-w
	}
	return widths
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
			case op < 35:
				g := randomResident()
				col, val := int32(rng.Intn(1000)), rng.Float64()
				desc = fmt.Sprintf("Append(%d)", g)
				s.Append(g, col, val)
				ref.append(g, col, val)
			case op < 45:
				g := randomResident()
				_, vals := randomRow(rng.Intn(6)) // an empty run too
				col := int32(rng.Intn(1000))
				desc = fmt.Sprintf("AppendRun(%d, %d vals)", g, len(vals))
				s.AppendRun(g, col, vals...)
				for _, v := range vals {
					ref.append(g, col, v)
				}
			case op < 55:
				// Random keep/drop pattern over random run widths; one edit in
				// four keeps or drops everything.
				g := randomResident()
				widths := randomRuns(rng, s.RowLen(g))
				keep := make([]bool, len(widths))
				mode := rng.Intn(8)
				for i := range keep {
					keep[i] = mode == 0 || mode > 1 && rng.Intn(100) < 78
				}
				rewrite := func(v float64) float64 { return v + 1 }
				desc = fmt.Sprintf("EditRow(%d) widths %v keep %v", g, widths, keep)
				if err := editRow(s, g, widths, keep, rewrite); err != nil {
					t.Fatalf("seed %d step %d %s: %v", seed, step, desc, err)
				}
				ref.edit(g, widths, keep, rewrite)
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

// The edges of an in-place edit, each against ClearRow + Appends, with
// populated neighbour rows and an Append afterwards to use the tail pointer.
func TestRowEditEdges(t *testing.T) {
	for _, c := range []struct {
		name   string
		widths []int
		keep   []bool
	}{
		{"empty row", nil, nil},
		{"keep every run", []int{4, 4, 4}, []bool{true, true, true}},
		{"drop the first run", []int{4, 4, 4}, []bool{false, true, true}},
		{"drop the last run", []int{4, 4, 4}, []bool{true, true, false}},
		{"drop a middle run", []int{4, 1, 4}, []bool{true, false, true}},
		{"drop every run", []int{4, 4, 4}, []bool{false, false, false}},
		{"drop the only run", []int{3}, []bool{false}},
		{"keep only the last element", []int{5, 1}, []bool{false, true}},
	} {
		var got, want callLog
		s := NewSparse("M", 3, &got)
		ref := &refSparse{sink: &want}
		s.SetWindow(0, 3)
		ref.setWindow(0, 3)
		n := 0
		for _, w := range c.widths {
			n += w
		}
		for g, k := range []int{2, n, 2} {
			for i := 0; i < k; i++ {
				s.Append(g, int32(i), float64(10*g+i))
				ref.append(g, int32(i), float64(10*g+i))
			}
		}
		got, want = got[:0], want[:0]
		rewrite := func(v float64) float64 { return -v }
		if err := editRow(s, 1, c.widths, c.keep, rewrite); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		ref.edit(1, c.widths, c.keep, rewrite)
		s.Append(1, 99, 99)
		ref.append(1, 99, 99)
		if err := ref.checkAgainst(s); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: cost calls %+v, want %+v", c.name, got, want)
		}
	}
}

// Misuse an edit can see panics and names the row: settling before the end
// of the row, keeping or dropping with no run read (so also past the end),
// and a run that straddles the end.
func TestRowEditMisusePanicsNamingTheRow(t *testing.T) {
	two := make([]float64, 2)
	four := make([]float64, 4)
	dropAll := func(ed *RowEdit) { ed.Read(four); ed.Drop(); ed.Read(two); ed.Drop() } // the row holds six
	for _, c := range []struct {
		name string
		do   func(ed *RowEdit)
	}{
		{"settle before the end", func(ed *RowEdit) { ed.Read(two); ed.Keep(two...); ed.Settle() }},
		{"settle with a run undecided", func(ed *RowEdit) { ed.Read(four); ed.Drop(); ed.Read(two); ed.Settle() }},
		{"keep past the end", func(ed *RowEdit) { dropAll(ed); ed.Keep(two...) }},
		{"drop past the end", func(ed *RowEdit) { dropAll(ed); ed.Drop() }},
		{"read past the end", func(ed *RowEdit) { dropAll(ed); ed.Read(two) }},
		{"run straddles the end", func(ed *RowEdit) { ed.Read(four); ed.Keep(four...); ed.Read(four) }},
		{"keep before any read", func(ed *RowEdit) { ed.Keep(two...) }},
		{"keep of another width", func(ed *RowEdit) { ed.Read(four); ed.Keep(two...) }},
		{"read twice", func(ed *RowEdit) { ed.Read(two); ed.Read(two) }},
		{"empty read", func(ed *RowEdit) { ed.Read(nil) }},
		{"settle twice", func(ed *RowEdit) { dropAll(ed); ed.Settle(); ed.Settle() }},
	} {
		s := NewSparse("M", 8, nil)
		s.SetWindow(4, 8)
		for i := 0; i < 6; i++ {
			s.Append(5, int32(i), float64(i))
		}
		ed := s.EditRow(5)
		msg := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			c.do(&ed)
			return
		}()
		if !strings.Contains(msg, "M sparse row 5 edit") {
			t.Errorf("%s: panic %q does not name the row", c.name, msg)
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
