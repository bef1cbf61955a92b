package matrix

import (
	"testing"

	"repro/internal/cluster"
)

// rowEditWindow is the particle step's storage pattern: a 64-row window of
// four-element particles, each row rewritten in place. edit(g) keeps seven
// particles in nine (≈ 78%) in their own nodes and moves the other two to the
// next row, and returns how many it handled; the population only circulates.
func rowEditWindow(sink CostSink) (rows int, edit func(g int) int) {
	const perRow = 96
	rows = 64
	s := NewSparse("P", rows, sink)
	s.SetWindow(0, rows)
	for g := 0; g < rows; g++ {
		for k := 0; k < perRow; k++ {
			s.AppendRun(g, int32(k), 0, 1, 2, 3)
		}
	}
	type moved struct {
		pid int32
		v   [4]float64
	}
	var out []moved
	return rows, func(g int) int {
		out = out[:0]
		n := 0
		ed := s.EditRow(g)
		for ; ed.More(); n++ {
			var v [4]float64
			pid := ed.Read(v[:])
			if n%9 < 7 {
				ed.Keep(v[0]+v[2], v[1]+v[3], v[2], v[3])
				continue
			}
			ed.Drop()
			out = append(out, moved{pid, v})
		}
		ed.Settle()
		for _, m := range out {
			s.AppendRun((g+1)%rows, m.pid, m.v[0], m.v[1], m.v[2], m.v[3])
		}
		return n
	}
}

// BenchmarkSparseRowEdit is one particle of rowEditWindow, charges included
// (a node that cannot page, as in every bench workload). 0 allocs/op:
// TestSparseRowEditAllocFree.
func BenchmarkSparseRowEdit(b *testing.B) {
	b.ReportAllocs()
	rows, edit := rowEditWindow(cluster.New(cluster.Uniform(1)).Node(0))
	for g := 0; g < rows; g++ {
		edit(g) // the move buffer reaches its size
	}
	b.ResetTimer()
	for i, g := 0, 0; i < b.N; g = (g + 1) % rows {
		i += edit(g)
	}
}

func TestSparseRowEditAllocFree(t *testing.T) {
	rows, edit := rowEditWindow(cluster.New(cluster.Uniform(1)).Node(0))
	sweep := func() {
		for g := 0; g < rows; g++ {
			edit(g)
		}
	}
	sweep()
	if n := testing.AllocsPerRun(10, sweep); n != 0 {
		t.Errorf("in-place edit of every row: %v allocs per sweep, want 0", n)
	}
}
