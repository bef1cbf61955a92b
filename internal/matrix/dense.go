// Package matrix implements Dyn-MPI's memory-allocation schemes for
// redistributable arrays (paper §4.1).
//
// Dense N-dimensional arrays are projected onto two dimensions: the first
// (distributed) dimension indexes "extended rows" whose length is the
// product of the remaining dimensions. Two allocation schemes are provided:
//
//   - Projection (the paper's scheme): a top-level vector of row pointers.
//     Changing the resident window copies only the top-level vector and
//     allocates/frees individual rows; retained rows are reused in place.
//     A Dense owns its rows: "freeing" a row puts it on the array's own free
//     list and "allocating" one takes it back zeroed, so a window that slides
//     back and forth allocates nothing (see SetWindow).
//   - Contiguous (the baseline): one flat backing array. Any change to the
//     resident window reallocates and copies the whole local block, which
//     for large arrays causes the excessive memory traffic (and paging)
//     the paper's technical report measures.
//
// Sparse matrices (sparse.go) use a vector of linked lists of
// (column, value) pairs, making their redistribution nearly identical to
// the dense case.
//
// All structural operations optionally charge their cost to a CostSink
// (in practice a cluster.Node), so allocation policy differences are
// visible in virtual time.
package matrix

import (
	"fmt"
	"slices"
)

// Alloc selects the dense allocation scheme.
type Alloc int

const (
	// Projection is the paper's 2-D projection scheme (vector of rows).
	Projection Alloc = iota
	// Contiguous is the flat-array baseline requiring full reallocation.
	Contiguous
)

// String names the allocation scheme.
func (a Alloc) String() string {
	switch a {
	case Projection:
		return "projection"
	case Contiguous:
		return "contiguous"
	default:
		return fmt.Sprintf("Alloc(%d)", int(a))
	}
}

// CostSink receives the virtual cost of memory operations. cluster.Node
// implements it; a nil sink disables cost accounting (pure data structure).
type CostSink interface {
	// ChargeTouch charges writing/copying bytes of memory.
	ChargeTouch(bytes int64)
	// AdjustResident tracks allocated application bytes for the paging model.
	AdjustResident(delta int64)
	// ChargeGrowN is k × {AdjustResident(bytes); ChargeTouch(bytes)}.
	ChargeGrowN(bytes int64, k int)
}

// Dense is one rank's resident window of a block-distributed dense array.
// Global row indices lo..hi-1 are resident (owned rows plus ghost rows
// required by the phase's array accesses).
type Dense struct {
	Name       string
	GlobalRows int
	RowLen     int // product of the non-distributed dimensions

	scheme Alloc
	sink   CostSink

	lo, hi int
	rows   [][]float64 // rows[g-lo] is global row g
	spare  [][]float64 // the previous top-level vector, backing of the next one
	free   [][]float64 // Projection: rows that left the window, reused for rows entering it
}

// NewDense creates an empty dense array descriptor; call SetWindow to make
// rows resident. sink may be nil.
func NewDense(name string, globalRows, rowLen int, scheme Alloc, sink CostSink) *Dense {
	if globalRows <= 0 || rowLen <= 0 {
		panic(fmt.Sprintf("matrix: bad dense shape %dx%d", globalRows, rowLen))
	}
	return &Dense{Name: name, GlobalRows: globalRows, RowLen: rowLen, scheme: scheme, sink: sink}
}

// Scheme reports the allocation scheme in use.
func (d *Dense) Scheme() Alloc { return d.scheme }

// Lo returns the first resident global row.
func (d *Dense) Lo() int { return d.lo }

// Hi returns one past the last resident global row.
func (d *Dense) Hi() int { return d.hi }

// Resident reports whether global row g is resident.
func (d *Dense) Resident(g int) bool { return g >= d.lo && g < d.hi }

// RowBytes is the wire/memory size of one extended row.
func (d *Dense) RowBytes() int64 { return int64(d.RowLen) * 8 }

// Row returns global row g. It panics if g is not resident — out-of-window
// access is always an ownership bug in the caller.
func (d *Dense) Row(g int) []float64 {
	if g < d.lo || g >= d.hi {
		d.outside(g)
	}
	return d.rows[g-d.lo]
}

// outside is Row's panic, kept out of line so that Row inlines.
//
//go:noinline
func (d *Dense) outside(g int) {
	panic(fmt.Sprintf("matrix: %s row %d outside resident window [%d,%d)", d.Name, g, d.lo, d.hi))
}

// SetWindow resizes the resident window to [lo,hi), preserving the contents
// of rows resident both before and after. Newly resident rows are
// zero-valued. The virtual cost charged depends on the allocation scheme:
// Projection pays a top-vector copy plus allocation of the new rows only;
// Contiguous pays a full reallocation and copy of every retained row.
//
// Host-side, the storage is recycled without changing those charges. The
// top-level vector alternates between two backings. Under Projection a row
// leaving the window goes on the array's free list and a row entering it is
// taken from there and zeroed; only when the list runs dry are the missing
// rows carved from one fresh chunk. A row on the free list is referenced by
// nothing else — Row never hands out a non-resident row, and bulk transfers
// copy (CopyRowsTo, PutRows) — so a caller holding a slice from Row must drop
// it when the row leaves the window, as with any reallocation. Emptying the
// window (lo == hi) drops the free list.
func (d *Dense) SetWindow(lo, hi int) {
	if lo < 0 || hi > d.GlobalRows || lo > hi {
		panic(fmt.Sprintf("matrix: %s bad window [%d,%d) of %d", d.Name, lo, hi, d.GlobalRows))
	}
	oldLo, oldHi, oldRows := d.lo, d.hi, d.rows
	n := hi - lo
	newRows := d.spare
	if cap(newRows) < n {
		newRows = make([][]float64, n)
	}
	newRows = newRows[:n]

	keepLo, keepHi := max(lo, oldLo), min(hi, oldHi) // retained global range
	retained := max(0, keepHi-keepLo)

	switch d.scheme {
	case Projection:
		d.free = slices.Grow(d.free, oldHi-oldLo-retained) // once, not row by row
		for g := oldLo; g < oldHi; g++ {
			if g < keepLo || g >= keepHi {
				d.free = append(d.free, oldRows[g-oldLo])
			}
		}
		var chunk []float64 // fresh storage for the rows the free list cannot supply
		if missing := n - retained - len(d.free); missing > 0 {
			chunk = make([]float64, missing*d.RowLen)
		}
		for g := lo; g < hi; g++ {
			switch {
			case g >= keepLo && g < keepHi:
				newRows[g-lo] = oldRows[g-oldLo]
			case len(d.free) > 0:
				row := d.free[len(d.free)-1]
				d.free[len(d.free)-1] = nil
				d.free = d.free[:len(d.free)-1]
				for j := range row {
					row[j] = 0
				}
				newRows[g-lo] = row
			default:
				newRows[g-lo], chunk = chunk[:d.RowLen:d.RowLen], chunk[d.RowLen:]
			}
		}
		if n == 0 {
			d.free = nil
		}
		if d.sink != nil {
			// Top-level vector copy (8 bytes per pointer) plus zeroing the
			// newly allocated rows.
			newBytes := int64(n-retained) * d.RowBytes()
			d.sink.AdjustResident(newBytes - int64(oldHi-oldLo-retained)*d.RowBytes())
			d.sink.ChargeTouch(int64(n)*8 + newBytes)
		}
	case Contiguous:
		flat := make([]float64, n*d.RowLen)
		for i := range newRows {
			newRows[i] = flat[i*d.RowLen : (i+1)*d.RowLen : (i+1)*d.RowLen]
		}
		for g := keepLo; g < keepHi; g++ {
			copy(newRows[g-lo], oldRows[g-oldLo])
		}
		if d.sink != nil {
			// Whole-block reallocation: every retained row is copied and the
			// full new block is touched.
			d.sink.AdjustResident(int64(n-(oldHi-oldLo)) * d.RowBytes())
			d.sink.ChargeTouch(int64(n)*d.RowBytes() + int64(retained)*d.RowBytes())
		}
	default:
		panic("matrix: unknown allocation scheme")
	}
	for i := range oldRows {
		oldRows[i] = nil // the spare vector must not keep rows reachable
	}
	d.lo, d.hi, d.rows, d.spare = lo, hi, newRows, oldRows
}

// CopyRowsTo copies global rows [lo,hi) into the contiguous slab dst, which
// must hold at least (hi-lo)*RowLen values. It performs no cost accounting:
// bulk extraction is a host-side packing optimisation, and the caller
// charges the virtual cost of each row according to its own move/copy
// semantics (see core.applyDistribution). An empty range is a no-op
// wherever it lies: a rank that owns no rows packs nothing.
func (d *Dense) CopyRowsTo(dst []float64, lo, hi int) {
	if lo == hi {
		return
	}
	if lo < d.lo || hi > d.hi || lo > hi {
		panic(fmt.Sprintf("matrix: %s CopyRowsTo [%d,%d) outside window [%d,%d)", d.Name, lo, hi, d.lo, d.hi))
	}
	if len(dst) < (hi-lo)*d.RowLen {
		panic(fmt.Sprintf("matrix: %s CopyRowsTo slab %d < %d", d.Name, len(dst), (hi-lo)*d.RowLen))
	}
	for g := lo; g < hi; g++ {
		copy(dst[(g-lo)*d.RowLen:], d.rows[g-d.lo])
	}
}

// PutRows installs the contiguous slab data as global rows starting at lo
// (receive side of a bulk transfer); len(data) must be a whole number of
// rows. The rows are copied into the window's own storage, so the slab stays
// the caller's to recycle and the window never aliases a foreign buffer. The
// virtual cost is that of installing each row under the scheme: Projection
// charges nothing (the model adopts the incoming row), Contiguous charges one
// RowBytes touch per row (the copy into the flat block).
func (d *Dense) PutRows(lo int, data []float64) {
	if len(data)%d.RowLen != 0 {
		panic(fmt.Sprintf("matrix: %s PutRows slab %d not a multiple of row length %d", d.Name, len(data), d.RowLen))
	}
	hi := lo + len(data)/d.RowLen
	if lo < d.lo || hi > d.hi {
		panic(fmt.Sprintf("matrix: %s PutRows [%d,%d) outside window [%d,%d)", d.Name, lo, hi, d.lo, d.hi))
	}
	for g := lo; g < hi; g++ {
		copy(d.rows[g-d.lo], data[(g-lo)*d.RowLen:(g-lo+1)*d.RowLen])
		if d.scheme == Contiguous && d.sink != nil {
			d.sink.ChargeTouch(d.RowBytes())
		}
	}
}

// Fill sets every resident row from f(globalRow, col).
func (d *Dense) Fill(f func(g, j int) float64) {
	for g := d.lo; g < d.hi; g++ {
		row := d.rows[g-d.lo]
		for j := range row {
			row[j] = f(g, j)
		}
	}
}
