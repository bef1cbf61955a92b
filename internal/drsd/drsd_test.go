package drsd

import (
	"testing"
	"testing/quick"
)

func TestRSDBasics(t *testing.T) {
	r := RSD{Start: 2, End: 11, Step: 3} // 2, 5, 8
	if r.Len() != 3 {
		t.Fatalf("Len = %d", r.Len())
	}
	if !r.Contains(5) || r.Contains(6) || r.Contains(11) {
		t.Fatal("Contains wrong")
	}
	rows := r.Rows()
	if len(rows) != 3 || rows[0] != 2 || rows[2] != 8 {
		t.Fatalf("Rows = %v", rows)
	}
	if !(RSD{Start: 5, End: 5, Step: 1}).Empty() {
		t.Fatal("empty section not empty")
	}
}

func TestAccessEvalClamps(t *testing.T) {
	a := Access{Array: "B", Mode: Read, Step: 1, Off: -1}
	r := a.Eval(0, 10, 100) // rows -1..8 clamp to 0..8
	if r.Start != 0 || r.End != 9 {
		t.Fatalf("eval = %+v", r)
	}
	b := Access{Array: "B", Mode: Read, Step: 1, Off: +1}
	r = b.Eval(95, 100, 100) // rows 96..100 clamp to 96..99
	if r.Start != 96 || r.End != 100 {
		t.Fatalf("eval = %+v", r)
	}
}

func TestAccessEvalEmptyRange(t *testing.T) {
	a := Access{Step: 1}
	if !a.Eval(5, 5, 10).Empty() {
		t.Fatal("empty iteration range should give empty RSD")
	}
}

func TestAccessEvalStride(t *testing.T) {
	a := Access{Step: 2, Off: 1} // touches rows 2i+1
	r := a.Eval(3, 6, 100)       // i = 3,4,5 -> rows 7,9,11
	if r.Start != 7 || r.End != 12 || r.Step != 2 {
		t.Fatalf("eval = %+v", r)
	}
	if got := r.Rows(); len(got) != 3 || got[1] != 9 {
		t.Fatalf("rows = %v", got)
	}
}

func TestWindowUnion(t *testing.T) {
	accs := []Access{
		{Array: "A", Mode: Write, Step: 1, Off: 0},
		{Array: "B", Mode: Read, Step: 1, Off: -1},
		{Array: "B", Mode: Read, Step: 1, Off: +1},
	}
	lo, hi := Window(accs, 10, 20, 100)
	if lo != 9 || hi != 21 {
		t.Fatalf("window = [%d,%d)", lo, hi)
	}
	lo, hi = Window(accs, 0, 0, 100)
	if lo != 0 || hi != 0 {
		t.Fatalf("empty window = [%d,%d)", lo, hi)
	}
}

func TestEqualBlock(t *testing.T) {
	b := EqualBlock([]int{0, 1, 2}, 10) // 4,3,3
	if c := b.Counts(); c[0] != 4 || c[1] != 3 || c[2] != 3 {
		t.Fatalf("counts = %v", c)
	}
	if b.Owner(0) != 0 || b.Owner(3) != 0 || b.Owner(4) != 1 || b.Owner(9) != 2 {
		t.Fatal("owners wrong")
	}
	if lo, hi := b.RangeOf(1); lo != 4 || hi != 7 {
		t.Fatalf("RangeOf(1) = [%d,%d)", lo, hi)
	}
	if lo, hi := b.RangeOf(99); lo != 0 || hi != 0 {
		t.Fatal("non-member should get empty range")
	}
}

func TestBlockWithEmptyAndNonContiguousRanks(t *testing.T) {
	// A logically dropped node gets a zero block; ranks need not be 0..p-1.
	b := NewBlock([]int{5, 2, 7}, []int{6, 0, 4})
	if b.Rows() != 10 {
		t.Fatal("Rows")
	}
	if b.Owner(5) != 5 || b.Owner(6) != 7 {
		t.Fatalf("owners: %d %d", b.Owner(5), b.Owner(6))
	}
	if lo, hi := b.RangeOf(2); lo != hi {
		t.Fatal("empty block should be empty")
	}
}

func TestOwnerOutOfRangePanics(t *testing.T) {
	b := EqualBlock([]int{0, 1}, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	b.Owner(4)
}

func TestScheduleNoChange(t *testing.T) {
	b := EqualBlock([]int{0, 1, 2}, 12)
	if s := Schedule(b, b); len(s) != 0 {
		t.Fatalf("identical distributions produced transfers: %v", s)
	}
}

func TestScheduleShiftBoundary(t *testing.T) {
	old := NewBlock([]int{0, 1}, []int{5, 5})
	nw := NewBlock([]int{0, 1}, []int{7, 3})
	s := Schedule(old, nw)
	if len(s) != 1 || s[0] != (Transfer{From: 1, To: 0, Lo: 5, Hi: 7}) {
		t.Fatalf("schedule = %v", s)
	}
}

func TestScheduleCoalesces(t *testing.T) {
	old := NewBlock([]int{0, 1, 2}, []int{4, 4, 4})
	nw := NewBlock([]int{0, 1, 2}, []int{8, 2, 2})
	s := Schedule(old, nw)
	// Rows 4-7 move 1->0; rows 8-9 move 2->1.
	if len(s) != 2 {
		t.Fatalf("schedule = %v", s)
	}
	if s[0] != (Transfer{From: 1, To: 0, Lo: 4, Hi: 8}) || s[1] != (Transfer{From: 2, To: 1, Lo: 8, Hi: 10}) {
		t.Fatalf("schedule = %v", s)
	}
}

func TestScheduleNodeRemoval(t *testing.T) {
	// Node 1 removed: its rows split between 0 and 2.
	old := NewBlock([]int{0, 1, 2}, []int{4, 4, 4})
	nw := NewBlock([]int{0, 2}, []int{6, 6})
	s := Schedule(old, nw)
	if len(s) != 2 {
		t.Fatalf("schedule = %v", s)
	}
	if s[0] != (Transfer{From: 1, To: 0, Lo: 4, Hi: 6}) || s[1] != (Transfer{From: 1, To: 2, Lo: 6, Hi: 8}) {
		t.Fatalf("schedule = %v", s)
	}
}

func TestScheduleMismatchedRowsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Schedule(EqualBlock([]int{0}, 4), EqualBlock([]int{0}, 5))
}

// Property: applying a schedule to the old ownership yields exactly the new
// ownership, and no row is transferred twice.
func TestScheduleCorrectProperty(t *testing.T) {
	f := func(seedCounts [6]uint8, newCounts [6]uint8) bool {
		ranks := []int{0, 1, 2, 3, 4, 5}
		tot := 0
		oc := make([]int, 6)
		nc := make([]int, 6)
		for i := 0; i < 6; i++ {
			oc[i] = int(seedCounts[i]) % 8
			tot += oc[i]
		}
		if tot == 0 {
			return true
		}
		// Build new counts with the same total.
		rem := tot
		for i := 0; i < 5; i++ {
			nc[i] = int(newCounts[i]) % (rem + 1)
			rem -= nc[i]
		}
		nc[5] = rem
		old := NewBlock(ranks, oc)
		nw := NewBlock(ranks, nc)
		s := Schedule(old, nw)
		owner := make([]int, tot)
		for g := 0; g < tot; g++ {
			owner[g] = old.Owner(g)
		}
		moved := make([]bool, tot)
		for _, tr := range s {
			for g := tr.Lo; g < tr.Hi; g++ {
				if moved[g] || owner[g] != tr.From {
					return false
				}
				moved[g] = true
				owner[g] = tr.To
			}
		}
		for g := 0; g < tot; g++ {
			if owner[g] != nw.Owner(g) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a Block always partitions [0,Rows): every row has exactly one
// owner, and per-rank ranges are disjoint and contiguous.
func TestBlockPartitionProperty(t *testing.T) {
	f := func(counts [5]uint8) bool {
		ranks := []int{0, 1, 2, 3, 4}
		cs := make([]int, 5)
		tot := 0
		for i := range cs {
			cs[i] = int(counts[i]) % 10
			tot += cs[i]
		}
		if tot == 0 {
			return true
		}
		b := NewBlock(ranks, cs)
		seen := 0
		for _, r := range ranks {
			lo, hi := b.RangeOf(r)
			for g := lo; g < hi; g++ {
				if b.Owner(g) != r {
					return false
				}
				seen++
			}
		}
		return seen == tot && b.Rows() == tot
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestModeString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" || ReadWrite.String() != "readwrite" {
		t.Fatal("mode names")
	}
	if Mode(9).String() != "Mode(9)" {
		t.Fatal("unknown mode")
	}
}
