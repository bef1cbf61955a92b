package drsd

import (
	"cmp"
	"math/rand"
	"slices"
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

// TestScheduleDiffEquivalentToWindows property-tests the one schedule
// against the ownership diff: over an owned-only access, ScheduleWindowsInto
// must emit exactly the transfers of the per-row Schedule oracle (compared
// as sets — the oracle orders by row, the windows schedule by receiving
// rank) across random redistributions with joiners (ranks with no old
// range), leavers (ranks with no new range) and ranks in any order.
func TestScheduleDiffEquivalentToWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	owned := []Access{{Array: "X", Mode: ReadWrite, Step: 1, Off: 0}}
	byReceiver := func(a, b Transfer) int { return cmp.Or(a.To-b.To, a.Lo-b.Lo) }
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(200)
		oldRanks, newRanks := randMembership(rng, 8), randMembership(rng, 8)
		rng.Shuffle(len(oldRanks), func(i, j int) { oldRanks[i], oldRanks[j] = oldRanks[j], oldRanks[i] })
		rng.Shuffle(len(newRanks), func(i, j int) { newRanks[i], newRanks[j] = newRanks[j], newRanks[i] })
		oldD, newD := randBlock(rng, oldRanks, n), randBlock(rng, newRanks, n)
		got := ScheduleWindowsInto(nil, oldD, newD, owned)
		want := Schedule(oldD, newD)
		slices.SortFunc(got, byReceiver)
		slices.SortFunc(want, byReceiver)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: old %v/%v new %v/%v\nwindows %v\noracle  %v",
				trial, oldD.Ranks(), oldD.Counts(), newD.Ranks(), newD.Counts(), got, want)
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

// BenchmarkResizeSchedule prices the schedule of an elastic resize: a
// 6→8-rank grow of an owned-only array (joiners own no rows yet, every block
// boundary shifts).
func BenchmarkResizeSchedule(b *testing.B) {
	old := EqualBlock([]int{0, 1, 2, 3, 4, 5}, 16384)
	nw := EqualBlock([]int{0, 1, 2, 3, 4, 5, 6, 7}, 16384)
	owned := []Access{{Array: "A", Step: 1, Off: 0}}
	var buf []Transfer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = ScheduleWindowsInto(buf[:0], old, nw, owned)
	}
	if len(buf) == 0 {
		b.Fatal("schedule produced no transfers")
	}
}
