package drsd

import (
	"math/rand"
	"testing"
)

// randBlock builds a block distribution of n rows over the given ranks with
// random (possibly zero) counts.
func randBlock(rng *rand.Rand, ranks []int, n int) *Block {
	counts := make([]int, len(ranks))
	left := n
	for i := 0; i < len(ranks)-1; i++ {
		counts[i] = rng.Intn(left + 1)
		left -= counts[i]
	}
	counts[len(ranks)-1] = left
	return NewBlock(ranks, counts)
}

// randMembership returns a random sorted subset of [0,worldCap) with at
// least one member — old and new memberships drawn independently model
// joiners (in new only) and leavers (in old only).
func randMembership(rng *rand.Rand, worldCap int) []int {
	var m []int
	for r := 0; r < worldCap; r++ {
		if rng.Intn(2) == 0 {
			m = append(m, r)
		}
	}
	if len(m) == 0 {
		m = append(m, rng.Intn(worldCap))
	}
	return m
}

// TestScheduleDiffEquivalentToWindows property-tests the resize fast path:
// for owned-only access patterns the diff schedule must emit exactly the
// transfers ScheduleWindowsInto emits — same rows, same endpoints, same
// deterministic order — across random redistributions including grows
// (ranks with no old range) and shrinks (ranks with no new range).
func TestScheduleDiffEquivalentToWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	owned := []Access{{Array: "X", Mode: ReadWrite, Step: 1, Off: 0}}
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(200)
		oldD := randBlock(rng, randMembership(rng, 8), n)
		newD := randBlock(rng, randMembership(rng, 8), n)
		want := ScheduleWindowsInto(nil, oldD, newD, owned)
		got := ScheduleDiffInto(nil, oldD, newD)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d transfers, want %d\nold %v/%v new %v/%v\ngot  %v\nwant %v",
				trial, len(got), len(want), oldD.Ranks(), oldD.Counts(), newD.Ranks(), newD.Counts(), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d transfer %d: got %+v want %+v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestScheduleDiffMovesOnlyOwnerChangedRows pins the diff schedule's
// defining invariant against a full reshuffle: a row travels exactly when
// its owner changed and the new owner did not already hold it, each such
// row travels exactly once, from its old owner to its new owner.
func TestScheduleDiffMovesOnlyOwnerChangedRows(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(200)
		oldD := randBlock(rng, randMembership(rng, 8), n)
		newD := randBlock(rng, randMembership(rng, 8), n)
		moved := make([]int, n) // times each row travels
		for _, tr := range ScheduleDiffInto(nil, oldD, newD) {
			if tr.Lo >= tr.Hi {
				t.Fatalf("trial %d: empty transfer %+v", trial, tr)
			}
			for g := tr.Lo; g < tr.Hi; g++ {
				moved[g]++
				if oldD.Owner(g) != tr.From {
					t.Fatalf("trial %d: row %d shipped from %d, old owner is %d", trial, g, tr.From, oldD.Owner(g))
				}
				if newD.Owner(g) != tr.To {
					t.Fatalf("trial %d: row %d shipped to %d, new owner is %d", trial, g, tr.To, newD.Owner(g))
				}
			}
		}
		for g := 0; g < n; g++ {
			needsMove := newD.Owner(g) != oldD.Owner(g)
			if needsMove && moved[g] != 1 {
				t.Fatalf("trial %d: owner-changed row %d moved %d times, want 1", trial, g, moved[g])
			}
			if !needsMove && moved[g] != 0 {
				t.Fatalf("trial %d: row %d moved %d times despite unchanged owner %d", trial, g, moved[g], oldD.Owner(g))
			}
		}
	}
}

// BenchmarkResizeSchedule prices the resize fast path: the diff schedule
// over a 6→8-rank grow (the elastic-resize shape — joiners own no rows yet,
// every block boundary shifts) against the windowed schedule computing the
// same owned-only transfers.
func BenchmarkResizeSchedule(b *testing.B) {
	oldRanks := []int{0, 1, 2, 3, 4, 5}
	newRanks := []int{0, 1, 2, 3, 4, 5, 6, 7}
	old := EqualBlock(oldRanks, 16384)
	nw := EqualBlock(newRanks, 16384)
	owned := []Access{{Array: "A", Step: 1, Off: 0}}
	var buf []Transfer
	b.Run("diff", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = ScheduleDiffInto(buf[:0], old, nw)
		}
		if len(buf) == 0 {
			b.Fatal("diff schedule produced no transfers")
		}
	})
	b.Run("windows", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = ScheduleWindowsInto(buf[:0], old, nw, owned)
		}
		if len(buf) == 0 {
			b.Fatal("windowed schedule produced no transfers")
		}
	})
}
