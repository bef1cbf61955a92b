// Package drsd implements (Deferred) Regular Section Descriptors and the
// ownership machinery built on them (paper §2.2, §4.4).
//
// An RSD describes a set of array rows as start/end/step. A Dyn-MPI access
// declaration (DMPI_add_array_access) is a *deferred* RSD: its bounds are
// functions of the node's current iteration range, evaluated only at run
// time — after every redistribution the same declaration yields the node's
// new required rows. Comparing the rows a node holds with the rows its
// DRSDs require after a distribution change yields precisely the
// communication schedule for redistribution, the technique the paper
// borrows from the Fortran D compiler.
package drsd

import (
	"fmt"
	"slices"
	"sort"
)

// Mode describes how an access touches an array.
type Mode int

const (
	Read Mode = iota
	Write
	ReadWrite
)

// String names the access mode.
func (m Mode) String() string {
	switch m {
	case Read:
		return "read"
	case Write:
		return "write"
	case ReadWrite:
		return "readwrite"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// RSD is a regular section of rows: {Start, Start+Step, ...} up to but not
// including End. A canonical empty section has Start == End.
type RSD struct {
	Start, End, Step int
}

// Empty reports whether the section contains no rows.
func (r RSD) Empty() bool { return r.Start >= r.End }

// Len reports the number of rows in the section.
func (r RSD) Len() int {
	if r.Empty() {
		return 0
	}
	return (r.End - r.Start + r.Step - 1) / r.Step
}

// Contains reports whether row g is in the section.
func (r RSD) Contains(g int) bool {
	return g >= r.Start && g < r.End && (g-r.Start)%r.Step == 0
}

// Rows materialises the section (for tests and schedules over small N).
func (r RSD) Rows() []int {
	out := make([]int, 0, r.Len())
	for g := r.Start; g < r.End; g += r.Step {
		out = append(out, g)
	}
	return out
}

// Access is one deferred RSD: an array reference of the form
// name[i*Step + Off] inside a loop distributed over i. One Access is
// declared per array reference in the parallel loop.
type Access struct {
	Array string
	Mode  Mode
	Step  int // reference stride per iteration (>= 1)
	Off   int // constant offset from the iteration variable
}

// Eval computes the rows this access touches when the node executes
// iterations [lo,hi), clamped to the array's [0,n) rows. This is the
// deferred bound computation that gives DRSDs their name.
func (a Access) Eval(lo, hi, n int) RSD {
	if a.Step < 1 {
		panic(fmt.Sprintf("drsd: access step %d < 1", a.Step))
	}
	if lo >= hi {
		return RSD{Step: 1}
	}
	start := lo*a.Step + a.Off
	end := (hi-1)*a.Step + a.Off + 1
	if start < 0 {
		start = 0
	}
	if end > n {
		end = n
	}
	if start >= end {
		return RSD{Step: 1}
	}
	return RSD{Start: start, End: end, Step: a.Step}
}

// Window returns the smallest contiguous [wlo, whi) covering every access
// for iterations [lo,hi) of an n-row iteration space. It is the resident
// window a node must hold (owned rows plus ghost rows).
func Window(accesses []Access, lo, hi, n int) (wlo, whi int) {
	wlo, whi = n, 0
	for _, a := range accesses {
		r := a.Eval(lo, hi, n)
		if r.Empty() {
			continue
		}
		if r.Start < wlo {
			wlo = r.Start
		}
		if r.End > whi {
			whi = r.End
		}
	}
	if wlo > whi {
		return 0, 0
	}
	return wlo, whi
}

// --- distributions ---------------------------------------------------------

// Distribution maps each row of a global iteration/row space to the world
// rank owning it. Rows owned by no rank (removed nodes hold nothing) are
// impossible by construction: a Distribution is total.
type Distribution interface {
	// Owner returns the world rank owning row g.
	Owner(g int) int
	// Rows reports the size of the distributed dimension.
	Rows() int
	// Ranks returns the participating world ranks in relative-rank order.
	Ranks() []int
}

// Block is a variable block distribution: rank Ranks[i] owns rows
// [Bounds[i], Bounds[i+1]). len(Bounds) == len(Ranks)+1, Bounds[0] == 0 and
// Bounds[len(Ranks)] == Rows. Blocks may be empty. Both lists are cut from
// one array.
type Block struct {
	bounds []int
	ranks  []int
}

// newBlock returns a block over a copy of ranks with every bound zero.
func newBlock(ranks []int) *Block {
	p := len(ranks)
	both := make([]int, 2*p+1)
	copy(both, ranks)
	return &Block{ranks: both[:p:p], bounds: both[p:]}
}

// NewBlock builds a variable block distribution. counts[i] rows go to
// ranks[i], in order.
func NewBlock(ranks, counts []int) *Block {
	if len(ranks) == 0 || len(ranks) != len(counts) {
		panic("drsd: NewBlock needs matching non-empty ranks and counts")
	}
	b := newBlock(ranks)
	for i, c := range counts {
		if c < 0 {
			panic(fmt.Sprintf("drsd: negative block count %d", c))
		}
		b.bounds[i+1] = b.bounds[i] + c
	}
	return b
}

// EqualBlock distributes n rows over ranks as evenly as possible (the
// DMPI_BLOCK initial distribution), giving earlier ranks the remainder.
func EqualBlock(ranks []int, n int) *Block {
	b := newBlock(ranks)
	base, rem := n/len(ranks), n%len(ranks)
	for i := range ranks {
		b.bounds[i+1] = b.bounds[i] + base
		if i < rem {
			b.bounds[i+1]++
		}
	}
	return b
}

// Owner implements Distribution.
func (b *Block) Owner(g int) int {
	if g < 0 || g >= b.Rows() {
		panic(fmt.Sprintf("drsd: row %d outside [0,%d)", g, b.Rows()))
	}
	i := sort.SearchInts(b.bounds, g+1) - 1
	return b.ranks[i]
}

// Rows implements Distribution.
func (b *Block) Rows() int { return b.bounds[len(b.bounds)-1] }

// Ranks implements Distribution.
func (b *Block) Ranks() []int { return b.ranks }

// Counts returns the per-rank row counts in relative-rank order.
func (b *Block) Counts() []int {
	out := make([]int, len(b.ranks))
	for i := range out {
		out[i] = b.bounds[i+1] - b.bounds[i]
	}
	return out
}

// RangeOf returns the iteration range [lo,hi) assigned to world rank r, or
// (0,0) if r does not participate.
func (b *Block) RangeOf(r int) (lo, hi int) {
	for i, rk := range b.ranks {
		if rk == r {
			return b.bounds[i], b.bounds[i+1]
		}
	}
	return 0, 0
}

// rangeNear is RangeOf for a walk over ranks: it tries index *at first, and
// leaves *at just past the rank found, so a walk in b's own rank order finds
// each rank in one step — a schedule over p ranks makes O(p) comparisons, not
// O(p²). A rank out of that order, or absent, costs one scan.
func (b *Block) rangeNear(r int, at *int) (lo, hi int) {
	i := *at
	if i >= len(b.ranks) || b.ranks[i] != r {
		if i = slices.Index(b.ranks, r); i < 0 {
			return 0, 0
		}
	}
	*at = i + 1
	return b.bounds[i], b.bounds[i+1]
}

// Cyclic assigns row g to Ranks[g mod p] (the DMPI_CYCLIC distribution).
type Cyclic struct {
	ranks []int
	rows  int
}

// NewCyclic builds a cyclic distribution of n rows over ranks.
func NewCyclic(ranks []int, n int) *Cyclic {
	if len(ranks) == 0 {
		panic("drsd: empty cyclic ranks")
	}
	return &Cyclic{ranks: append([]int(nil), ranks...), rows: n}
}

// Owner implements Distribution.
func (c *Cyclic) Owner(g int) int {
	if g < 0 || g >= c.rows {
		panic(fmt.Sprintf("drsd: row %d outside [0,%d)", g, c.rows))
	}
	return c.ranks[g%len(c.ranks)]
}

// Rows implements Distribution.
func (c *Cyclic) Rows() int { return c.rows }

// Ranks implements Distribution.
func (c *Cyclic) Ranks() []int { return c.ranks }

// --- redistribution schedules ----------------------------------------------

// Transfer moves the contiguous rows [Lo,Hi) from world rank From to world
// rank To.
type Transfer struct {
	From, To int
	Lo, Hi   int
}

// Schedule computes the minimal set of contiguous transfers that transform
// ownership from old to new. Rows whose owner is unchanged generate no
// traffic. Transfers are ordered by row, so both endpoints can derive a
// deterministic message order.
func Schedule(oldD, newD Distribution) []Transfer {
	if oldD.Rows() != newD.Rows() {
		panic("drsd: schedule across different row counts")
	}
	var out []Transfer
	n := oldD.Rows()
	for g := 0; g < n; g++ {
		f, t := oldD.Owner(g), newD.Owner(g)
		if f == t {
			continue
		}
		if k := len(out) - 1; k >= 0 && out[k].From == f && out[k].To == t && out[k].Hi == g {
			out[k].Hi = g + 1
			continue
		}
		out = append(out, Transfer{From: f, To: t, Lo: g, Hi: g + 1})
	}
	return out
}

// ScheduleWindows computes the transfers needed to move an array from an
// old to a new *block* distribution when each node must end up holding its
// DRSD *window* (owned rows plus ghost rows required by the accesses), not
// just its owned range. Every required row a node does not already hold is
// fetched from its old owner — the authoritative copy. A row needed by
// several nodes is sent to each. Transfers are coalesced into contiguous
// ranges and ordered deterministically (by receiving rank, then row).
func ScheduleWindows(oldD, newD *Block, accesses []Access) []Transfer {
	return ScheduleWindowsInto(nil, oldD, newD, accesses)
}

// ScheduleWindowsInto is ScheduleWindows appending into buf, so steady-state
// callers can recycle one transfer slice across redistributions (pass
// buf[:0]). buf may be nil. The computation is range-based: the rows a rank
// must fetch are its new window minus its old held window — at most two
// contiguous gaps, one on each side of the held range — and each gap is
// intersected against the old distribution's block segments directly instead
// of walking rows one at a time. Each old rank owns exactly one contiguous
// segment, so adjacent intersections always have distinct senders and the
// output needs no row-level coalescing; it is identical, transfer for
// transfer, to the per-row formulation.
func ScheduleWindowsInto(buf []Transfer, oldD, newD *Block, accesses []Access) []Transfer {
	if oldD.Rows() != newD.Rows() {
		panic("drsd: schedule across different row counts")
	}
	n := oldD.Rows()
	out := buf
	at := 0
	for i, r := range newD.ranks {
		nlo, nhi := newD.bounds[i], newD.bounds[i+1]
		wlo, whi := Window(accesses, nlo, nhi, n)
		olo, ohi := oldD.rangeNear(r, &at)
		hlo, hhi := 0, 0
		if olo < ohi {
			hlo, hhi = Window(accesses, olo, ohi, n)
		}
		// Needed = [wlo,whi) minus [hlo,hhi): the gap below the held window
		// and the gap above it. When the held window is empty or disjoint,
		// one gap degenerates and the other covers the whole new window.
		out = appendGapTransfers(out, oldD, r, wlo, min(whi, hlo))
		out = appendGapTransfers(out, oldD, r, max(wlo, hhi), whi)
	}
	return out
}

// appendGapTransfers emits one transfer per old-distribution block segment
// overlapping [lo,hi), skipping segments already owned by the receiver r
// (rows a rank owned are resident even outside its old window).
func appendGapTransfers(out []Transfer, oldD *Block, r, lo, hi int) []Transfer {
	for lo < hi {
		i := sort.SearchInts(oldD.bounds, lo+1) - 1
		segHi := min(oldD.bounds[i+1], hi)
		if from := oldD.ranks[i]; from != r {
			out = append(out, Transfer{From: from, To: r, Lo: lo, Hi: segHi})
		}
		lo = segHi
	}
	return out
}

// OwnedOnly reports whether every access is a unit-stride, zero-offset
// reference — the pattern whose DRSD window is exactly the owned iteration
// range, with no ghost rows. Arrays matching it can be redistributed with
// the cheaper ScheduleDiff instead of the window machinery.
func OwnedOnly(accesses []Access) bool {
	if len(accesses) == 0 {
		return false
	}
	for _, a := range accesses {
		if a.Step != 1 || a.Off != 0 {
			return false
		}
	}
	return true
}

// ScheduleDiff computes the contiguous-window delta between two block
// distributions: one transfer per maximal contiguous run of rows whose
// owner changed, and nothing else. It is the resize-time schedule — when a
// world grows or shrinks, only the rows the new partition reassigns move,
// never the full array — and is equivalent to the per-row Schedule over the
// same distributions (property-tested), but runs on block bounds instead of
// rows: O(p·log q) in the rank counts, independent of the row count.
// Transfers are ordered by receiving rank (newD rank order), then row —
// the same deterministic order ScheduleWindowsInto emits — so both the
// blocking and RMA redistribution engines can consume it directly.
func ScheduleDiff(oldD, newD *Block) []Transfer {
	return ScheduleDiffInto(nil, oldD, newD)
}

// ScheduleDiffInto is ScheduleDiff appending into buf (pass buf[:0] to
// recycle a scratch slice across resizes). buf may be nil.
func ScheduleDiffInto(buf []Transfer, oldD, newD *Block) []Transfer {
	if oldD.Rows() != newD.Rows() {
		panic("drsd: schedule across different row counts")
	}
	out := buf
	at := 0
	for i, r := range newD.ranks {
		nlo, nhi := newD.bounds[i], newD.bounds[i+1]
		olo, ohi := oldD.rangeNear(r, &at)
		if olo >= ohi {
			// Owned nothing before (a joiner): the whole new range is one gap.
			olo, ohi = nlo, nlo
		}
		// Needed = [nlo,nhi) minus the previously owned [olo,ohi): at most
		// one gap on each side. appendGapTransfers skips segments the
		// receiver already owns, so an old range interleaved with the gaps
		// generates no self-transfers.
		out = appendGapTransfers(out, oldD, r, nlo, min(nhi, olo))
		out = appendGapTransfers(out, oldD, r, max(nlo, ohi), nhi)
	}
	return out
}

// BytesMoved reports the total payload of a schedule given a per-row size.
func BytesMoved(ts []Transfer, rowBytes func(g int) int64) int64 {
	var total int64
	for _, t := range ts {
		for g := t.Lo; g < t.Hi; g++ {
			total += rowBytes(g)
		}
	}
	return total
}
