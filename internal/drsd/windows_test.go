package drsd

import (
	"testing"
	"testing/quick"
)

var stencil = []Access{
	{Array: "A", Mode: Write, Step: 1, Off: 0},
	{Array: "A", Mode: Read, Step: 1, Off: -1},
	{Array: "A", Mode: Read, Step: 1, Off: +1},
}

var ownedOnly = []Access{{Array: "A", Mode: ReadWrite, Step: 1, Off: 0}}

func TestScheduleWindowsNoChangeNoTraffic(t *testing.T) {
	b := EqualBlock([]int{0, 1, 2, 3}, 40)
	if s := ScheduleWindowsInto(nil, b, b, stencil); len(s) != 0 {
		t.Fatalf("identical distributions produced %v", s)
	}
}

func TestScheduleWindowsOwnedOnlyMatchesSchedule(t *testing.T) {
	old := NewBlock([]int{0, 1, 2}, []int{10, 10, 10})
	nw := NewBlock([]int{0, 1, 2}, []int{15, 10, 5})
	a := ScheduleWindowsInto(nil, old, nw, ownedOnly)
	b := Schedule(old, nw)
	if len(a) != len(b) {
		t.Fatalf("windows %v vs plain %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("windows %v vs plain %v", a, b)
		}
	}
}

func TestScheduleWindowsFetchesGhosts(t *testing.T) {
	// Rank 1's block moves from [10,20) to [12,22): besides owned rows
	// 20,21 it must also fetch ghost row 22 (and 11 stays resident from
	// the old window [9,21)).
	old := NewBlock([]int{0, 1, 2}, []int{10, 10, 10})
	nw := NewBlock([]int{0, 1, 2}, []int{12, 10, 8})
	s := ScheduleWindowsInto(nil, old, nw, stencil)
	needs := map[int]map[int]bool{} // to -> rows
	for _, tr := range s {
		if needs[tr.To] == nil {
			needs[tr.To] = map[int]bool{}
		}
		for g := tr.Lo; g < tr.Hi; g++ {
			if !needs[tr.To][g] {
				needs[tr.To][g] = true
			}
		}
	}
	// Rank 1 new window: rows 11..22; old window 9..20 -> must fetch 21, 22
	// (owned 20 was already resident as a ghost... no: old window of rank 1
	// is [9,21), so 20 is resident; 21 and 22 must arrive).
	for _, g := range []int{21, 22} {
		if !needs[1][g] {
			t.Fatalf("rank 1 missing row %d; schedule %v", g, s)
		}
	}
	if needs[1][20] {
		t.Fatalf("rank 1 refetched already-resident row 20; schedule %v", s)
	}
	// Every fetched row comes from its old owner.
	for _, tr := range s {
		for g := tr.Lo; g < tr.Hi; g++ {
			if old.Owner(g) != tr.From {
				t.Fatalf("row %d fetched from %d, owner is %d", g, tr.From, old.Owner(g))
			}
		}
	}
}

func TestScheduleWindowsGhostToMultipleDestinations(t *testing.T) {
	// Shrinking rank 1 to zero rows: ranks 0 and 2 become adjacent; row
	// ownership boundary moves and the boundary rows must be fetched as
	// ghosts by both sides where needed.
	old := NewBlock([]int{0, 1, 2}, []int{10, 10, 10})
	nw := NewBlock([]int{0, 1, 2}, []int{15, 0, 15})
	s := ScheduleWindowsInto(nil, old, nw, stencil)
	// Rank 0 needs window [0,16): fetch 10..15 from rank 1. Rank 2 needs
	// [14,30): fetch 14 (owner 1)... row 14 goes to both 0 and 2.
	dests := map[int][]int{}
	for _, tr := range s {
		for g := tr.Lo; g < tr.Hi; g++ {
			if g == 14 {
				dests[14] = append(dests[14], tr.To)
			}
		}
	}
	if len(dests[14]) != 2 {
		t.Fatalf("row 14 sent to %v, want both neighbours", dests[14])
	}
}

func TestScheduleWindowsNewRankFetchesEverything(t *testing.T) {
	// A rejoining rank absent from the old distribution must fetch its
	// whole window from the old owners.
	old := NewBlock([]int{0, 2}, []int{15, 15})
	nw := NewBlock([]int{0, 1, 2}, []int{10, 10, 10})
	s := ScheduleWindowsInto(nil, old, nw, stencil)
	got := map[int]bool{}
	for _, tr := range s {
		if tr.To != 1 {
			continue
		}
		for g := tr.Lo; g < tr.Hi; g++ {
			got[g] = true
		}
	}
	for g := 9; g < 21; g++ { // window [9,21) for block [10,20)
		if !got[g] {
			t.Fatalf("rejoiner missing row %d; schedule %v", g, s)
		}
	}
}

// Property: after applying a windows schedule, every rank holds exactly its
// new DRSD window (rows it owned before plus rows delivered), and rows are
// always sourced from their old owners.
func TestScheduleWindowsCoverageProperty(t *testing.T) {
	f := func(oldCounts, newCounts [4]uint8) bool {
		ranks := []int{0, 1, 2, 3}
		tot := 0
		oc := make([]int, 4)
		for i := range oc {
			oc[i] = int(oldCounts[i])%8 + 1
			tot += oc[i]
		}
		nc := make([]int, 4)
		rem := tot
		for i := 0; i < 3; i++ {
			nc[i] = int(newCounts[i]) % (rem + 1)
			rem -= nc[i]
		}
		nc[3] = rem
		old := NewBlock(ranks, oc)
		nw := NewBlock(ranks, nc)
		s := ScheduleWindowsInto(nil, old, nw, stencil)

		// Residency per rank before: old window; apply deliveries.
		holds := make([]map[int]bool, 4)
		for i, r := range ranks {
			holds[i] = map[int]bool{}
			lo, hi := old.RangeOf(r)
			if lo < hi {
				wlo, whi := Window(stencil, lo, hi, tot)
				for g := wlo; g < whi; g++ {
					holds[i][g] = true
				}
			}
		}
		for _, tr := range s {
			if old.Owner(tr.Lo) != tr.From {
				return false
			}
			for g := tr.Lo; g < tr.Hi; g++ {
				if old.Owner(g) != tr.From {
					return false
				}
				holds[tr.To][g] = true
			}
		}
		for i, r := range ranks {
			lo, hi := nw.RangeOf(r)
			if lo >= hi {
				continue
			}
			wlo, whi := Window(stencil, lo, hi, tot)
			for g := wlo; g < whi; g++ {
				if !holds[i][g] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

// scheduleWindowsRowByRow is the original per-row formulation, kept as the
// reference oracle for the range-based ScheduleWindowsInto.
func scheduleWindowsRowByRow(oldD, newD *Block, accesses []Access) []Transfer {
	n := oldD.Rows()
	var out []Transfer
	for _, r := range newD.Ranks() {
		nlo, nhi := newD.RangeOf(r)
		wlo, whi := Window(accesses, nlo, nhi, n)
		olo, ohi := oldD.RangeOf(r)
		hlo, hhi := 0, 0
		if olo < ohi {
			hlo, hhi = Window(accesses, olo, ohi, n)
		}
		for g := wlo; g < whi; g++ {
			if g >= hlo && g < hhi {
				continue
			}
			from := oldD.Owner(g)
			if from == r {
				continue
			}
			if k := len(out) - 1; k >= 0 && out[k].From == from && out[k].To == r && out[k].Hi == g {
				out[k].Hi = g + 1
				continue
			}
			out = append(out, Transfer{From: from, To: r, Lo: g, Hi: g + 1})
		}
	}
	return out
}

// Property: the range-based schedule is transfer-for-transfer identical to
// the per-row reference, including under empty blocks, rejoining ranks, and
// wide ghost offsets.
func TestScheduleWindowsMatchesRowByRowReference(t *testing.T) {
	accessSets := [][]Access{
		stencil,
		ownedOnly,
		{{Array: "A", Step: 1, Off: -3}, {Array: "A", Step: 1, Off: 0}, {Array: "A", Step: 1, Off: 5}},
	}
	f := func(oldCounts, newCounts [5]uint8, accPick uint8) bool {
		ranks := []int{0, 1, 2, 3, 4}
		acc := accessSets[int(accPick)%len(accessSets)]
		tot := 0
		oc := make([]int, 5)
		for i := range oc {
			oc[i] = int(oldCounts[i]) % 9 // empty old blocks allowed
			tot += oc[i]
		}
		if tot == 0 {
			oc[0], tot = 1, 1
		}
		nc := make([]int, 5)
		rem := tot
		for i := 0; i < 4; i++ {
			nc[i] = int(newCounts[i]) % (rem + 1)
			rem -= nc[i]
		}
		nc[4] = rem
		old := NewBlock(ranks, oc)
		nw := NewBlock(ranks, nc)
		want := scheduleWindowsRowByRow(old, nw, acc)
		got := ScheduleWindowsInto(nil, old, nw, acc)
		if len(got) != len(want) {
			t.Logf("old=%v new=%v acc=%d: got %v want %v", oc, nc, accPick, got, want)
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				t.Logf("old=%v new=%v acc=%d: got %v want %v", oc, nc, accPick, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleWindowsIntoReusesBuffer(t *testing.T) {
	old := NewBlock([]int{0, 1, 2}, []int{10, 10, 10})
	nw := NewBlock([]int{0, 1, 2}, []int{15, 10, 5})
	buf := ScheduleWindowsInto(nil, old, nw, stencil)
	want := append([]Transfer(nil), buf...)
	got := ScheduleWindowsInto(buf[:0], old, nw, stencil)
	if &got[0] != &buf[0] {
		t.Fatal("ScheduleWindowsInto did not reuse the provided buffer")
	}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestScheduleWindowsMismatchedRowsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	ScheduleWindowsInto(nil, EqualBlock([]int{0}, 4), EqualBlock([]int{0}, 5), stencil)
}
