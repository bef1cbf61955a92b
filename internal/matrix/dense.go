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
//     Within a world a Dense owns its rows: "freeing" a row puts it on the
//     array's own free list and "allocating" one takes it back zeroed, so a
//     window that slides back and forth allocates nothing (see SetWindow).
//     Across worlds the storage outlives its array: Release hands the
//     chunks the rows were carved from to a process-wide store, and the
//     next world's arrays carve their rows from those (see Release).
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
	"sync"
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

	// Projection: the chunks every row was carved from, whole, for Release.
	// chunks starts on chunkBuf, so recording them allocates nothing for an
	// array that carves at most four in its life: one for the first window
	// and one per growth its free list cannot supply (the bench workloads'
	// arrays carve up to three).
	chunks   [][]float64
	chunkBuf [4][]float64
}

// NewDense creates an empty dense array descriptor; call SetWindow to make
// rows resident. sink may be nil.
func NewDense(name string, globalRows, rowLen int, scheme Alloc, sink CostSink) *Dense {
	if globalRows <= 0 || rowLen <= 0 {
		panic(fmt.Sprintf("matrix: bad dense shape %dx%d", globalRows, rowLen))
	}
	d := &Dense{Name: name, GlobalRows: globalRows, RowLen: rowLen, scheme: scheme, sink: sink}
	d.chunks = d.chunkBuf[:0]
	return d
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
// rows carved from one chunk, which the process-wide store supplies (zeroed)
// when it holds one of exactly that length, and make otherwise. A row on the
// free list is referenced by nothing else — Row never hands out a
// non-resident row, and bulk transfers copy (CopyRowsTo, PutRows) — so a
// caller holding a slice from Row must drop it when the row leaves the
// window, as with any reallocation. Emptying the window (lo == hi) drops the
// free list and the chunks to the GC, so a removed rank pins no rows.
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
			chunk = rowChunks.get(missing * d.RowLen)
			d.chunks = append(d.chunks, chunk)
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
			clear(d.chunks)
			d.chunks = d.chunks[:0]
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

// Release ends the array's use of its storage: it empties the window, drops
// the row vectors and the free list, and hands the chunks the rows were
// carved from to the process-wide store, where a later array's SetWindow
// takes them. Afterwards Row panics as for any row outside the window, and
// no slice Row returned may be used: its storage may already be another
// array's. It charges nothing, since the model's run is over. Only the code
// that owns the array's last reader may call it: under core that is the
// rank harness, through core.Runtime.ReleaseArrays, and never Finalize. A
// later SetWindow starts the array over.
func (d *Dense) Release() {
	for _, c := range d.chunks {
		rowChunks.put(c)
	}
	clear(d.chunks)
	d.chunks = d.chunks[:0]
	d.lo, d.hi, d.rows, d.spare, d.free = 0, 0, nil, nil, nil
}

// rowChunks is the process-wide store of the chunks Projection rows are
// carved from. It is bounded in bytes, like core's redistribution slab
// lists, and for the same reason process-wide: a program runs world after
// world (a study, a sweep, a bench repetition), and the next world's arrays
// take the last one's storage. A chunk goes back whole and comes out only
// for a request of exactly its length, so no array is handed storage it
// does not need, and the next repetition of a world finds its lengths.
var rowChunks = &chunkStore{max: maxChunkBytes}

// maxChunkBytes bounds the storage rowChunks holds; a chunk that would take
// it past the bound is left to the GC. It is the most any bench workload
// holds at once, 1.19 MB (refresh_rma's 64 ranks; sweep_smoke 0.95 MB,
// adapt_dense 0.29 MB, the sparse and collective workloads none), plus a
// third: no bench chunk is turned away, and a study with larger arrays
// leaves the excess to the GC.
const maxChunkBytes = 3 << 19 // 1.5 MiB

// chunkStore is a mutex-guarded free store of float64 chunks, LIFO per
// length.
type chunkStore struct {
	mu    sync.Mutex
	free  map[int][][]float64 // by length
	bytes int                 // the storage the free chunks hold
	max   int
}

// get returns a zeroed chunk of n values: a stored one of that length, or a
// new one.
func (s *chunkStore) get(n int) []float64 {
	s.mu.Lock()
	l := s.free[n]
	k := len(l)
	if k == 0 {
		s.mu.Unlock()
		return make([]float64, n)
	}
	c := l[k-1]
	l[k-1] = nil
	s.free[n] = l[:k-1]
	s.bytes -= 8 * n
	s.mu.Unlock()
	clear(c)
	return c
}

// put stores c, unless that would take the store past its bound.
func (s *chunkStore) put(c []float64) {
	n := len(c)
	s.mu.Lock()
	if s.bytes+8*n <= s.max {
		if s.free == nil {
			s.free = make(map[int][][]float64)
		}
		s.free[n] = append(s.free[n], c)
		s.bytes += 8 * n
	}
	s.mu.Unlock()
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
