package matrix

import (
	"sync"
	"testing"
)

// storage maps the first element of every resident row of d to its row.
func storage(d *Dense) map[*float64]int {
	m := map[*float64]int{}
	for g := d.Lo(); g < d.Hi(); g++ {
		m[&d.Row(g)[0]] = g
	}
	return m
}

// withStore runs f with rowChunks replaced by an empty store of the given
// bound, so what f releases and takes is its own.
func withStore(t *testing.T, maxBytes int, f func(s *chunkStore)) {
	t.Helper()
	saved := rowChunks
	defer func() { rowChunks = saved }()
	rowChunks = &chunkStore{max: maxBytes}
	f(rowChunks)
}

// A released array's storage is the next array's, and it comes back zeroed
// however it was left.
func TestReleasedRowsComeBackZeroed(t *testing.T) {
	withStore(t, 1<<20, func(s *chunkStore) {
		a := NewDense("A", 40, 7, Projection, nil)
		a.SetWindow(3, 11)
		a.Fill(func(g, j int) float64 { return -1e300 })
		released := storage(a)
		a.Release()
		if s.bytes != 8*8*7 {
			t.Fatalf("store holds %d bytes after releasing 8 rows of 7, want %d", s.bytes, 8*8*7)
		}
		b := NewDense("B", 40, 7, Projection, nil)
		b.SetWindow(20, 28)
		for g := 20; g < 28; g++ {
			row := b.Row(g)
			if _, ok := released[&row[0]]; !ok {
				t.Errorf("row %d is fresh storage, want the released array's", g)
			}
			for j, v := range row {
				if v != 0 {
					t.Fatalf("row %d col %d reads %v after the storage was taken again, want 0", g, j, v)
				}
			}
		}
		if s.bytes != 0 {
			t.Errorf("store holds %d bytes after the chunk was taken, want 0", s.bytes)
		}
	})
}

func TestRowAfterReleasePanics(t *testing.T) {
	d := NewDense("A", 10, 2, Projection, nil)
	d.SetWindow(2, 5)
	d.Release()
	if d.Lo() != 0 || d.Hi() != 0 {
		t.Fatalf("released window [%d,%d), want [0,0)", d.Lo(), d.Hi())
	}
	defer func() {
		if got, want := recover(), "matrix: A row 3 outside resident window [0,0)"; got != want {
			t.Errorf("Row after Release panicked with %v, want %q", got, want)
		}
	}()
	d.Row(3)
}

// A chunk that would take the store past its bound is not kept: the store
// stays at what fits, and the array that would have wanted the dropped
// chunk gets fresh storage.
func TestReleasePastTheBoundLeavesTheExcessToTheGC(t *testing.T) {
	const rowLen = 5
	withStore(t, 8*rowLen*6, func(s *chunkStore) { // room for six rows
		a := NewDense("A", 20, rowLen, Projection, nil)
		a.SetWindow(0, 4)
		b := NewDense("B", 20, rowLen, Projection, nil)
		b.SetWindow(0, 3)
		bRows := storage(b)
		a.Release()
		b.Release() // four rows stored, three more would make seven
		if s.bytes != 8*rowLen*4 {
			t.Fatalf("store holds %d bytes, want the first chunk's %d", s.bytes, 8*rowLen*4)
		}
		c := NewDense("C", 20, rowLen, Projection, nil)
		c.SetWindow(0, 3)
		for p, g := range storage(c) {
			if _, ok := bRows[p]; ok {
				t.Errorf("row %d reuses the chunk the store turned away", g)
			}
		}
		if s.bytes != 8*rowLen*4 {
			t.Errorf("store holds %d bytes after a miss, want %d", s.bytes, 8*rowLen*4)
		}
	})
}

// The store hands a chunk only to a request of exactly its length: never to
// a longer one it could not cover, and never to a shorter one that would
// strand the rest of it.
func TestStoreHandsOutOnlyCoveringChunks(t *testing.T) {
	const rowLen = 3
	withStore(t, 1<<20, func(s *chunkStore) {
		a := NewDense("A", 30, rowLen, Projection, nil)
		a.SetWindow(0, 4)
		released := storage(a)
		a.Release()
		for _, rows := range []int{5, 3} {
			b := NewDense("B", 30, rowLen, Projection, nil)
			b.SetWindow(0, rows)
			for p, g := range storage(b) {
				if _, ok := released[p]; ok {
					t.Errorf("a %d-row window took row %d from the released 4-row chunk", rows, g)
				}
				if row := b.Row(g); len(row) != rowLen || cap(row) != rowLen {
					t.Errorf("a %d-row window's row %d: len %d cap %d, want %d", rows, g, len(row), cap(row), rowLen)
				}
			}
		}
		if s.bytes != 8*rowLen*4 {
			t.Errorf("store holds %d bytes, want the released chunk's %d", s.bytes, 8*rowLen*4)
		}
	})
}

// Ranks of concurrent worlds release and take chunks at once; each array
// still starts from zeroed rows of its own. Run with -race.
func TestStoreSharedByConcurrentArrays(t *testing.T) {
	withStore(t, 1<<20, func(*chunkStore) {
		var wg sync.WaitGroup
		for w := range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range 50 {
					d := NewDense("A", 64, 8, Projection, nil)
					d.SetWindow(0, 8+i%3)
					for g := d.Lo(); g < d.Hi(); g++ {
						for j, v := range d.Row(g) {
							if v != 0 {
								t.Errorf("worker %d array %d: row %d col %d reads %v, want 0", w, i, g, j, v)
								return
							}
						}
					}
					d.Fill(func(g, j int) float64 { return float64(w + 1) })
					d.Release()
				}
			}()
		}
		wg.Wait()
	})
}
