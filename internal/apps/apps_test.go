package apps

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/drsd"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/vclock"
)

// haloWorld builds a 3-rank world with one dense stencil array and runs fn.
func haloWorld(t *testing.T, n int, fn func(rt *core.Runtime, rows [][]float64) error) {
	t.Helper()
	err := mpi.Run(cluster.New(cluster.Uniform(3)), func(c *mpi.Comm) error {
		rt := core.New(c, core.Config{Adapt: false})
		d := rt.RegisterDense("A", n, 2)
		ph := rt.InitPhase(n)
		ph.AddAccess("A", drsd.ReadWrite, 1, 0)
		ph.AddAccess("A", drsd.Read, 1, -1)
		ph.AddAccess("A", drsd.Read, 1, +1)
		rt.Commit()
		d.Fill(func(g, j int) float64 { return float64(g*10 + j) })
		rows := make([][]float64, n)
		for g := d.Lo(); g < d.Hi(); g++ {
			rows[g] = d.Row(g)
		}
		err := fn(rt, rows)
		rt.Finalize()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHaloExchangeDeliversNeighbourRows(t *testing.T) {
	const n = 12
	haloWorld(t, n, func(rt *core.Runtime, rows [][]float64) error {
		me := rt.Comm().Rank()
		lo, hi := rt.Dist().RangeOf(me)
		// Make each rank's boundary rows identifiable, then exchange.
		got := map[int][]float64{}
		HaloExchange(rt, 5, n,
			func(g int) []float64 { return rows[g] },
			func(g int, row []float64) { got[g] = append([]float64(nil), row...) })
		if lo > 0 {
			want := float64((lo - 1) * 10)
			if got[lo-1] == nil || got[lo-1][0] != want {
				return fmt.Errorf("rank %d ghost %d = %v, want %v", me, lo-1, got[lo-1], want)
			}
		}
		if hi < n {
			want := float64(hi * 10)
			if got[hi] == nil || got[hi][0] != want {
				return fmt.Errorf("rank %d ghost %d = %v, want %v", me, hi, got[hi], want)
			}
		}
		return nil
	})
}

func TestHaloExchangeSnapshotsPayload(t *testing.T) {
	// Mutating the boundary row immediately after the exchange must not
	// corrupt what the receiver got (the SOR half-phase hazard).
	const n = 6
	haloWorld(t, n, func(rt *core.Runtime, rows [][]float64) error {
		me := rt.Comm().Rank()
		lo, hi := rt.Dist().RangeOf(me)
		var ghost []float64
		HaloExchange(rt, 6, n,
			func(g int) []float64 { return rows[g] },
			func(g int, row []float64) {
				if g == lo-1 {
					ghost = append([]float64(nil), row...) // row is only lent
				}
			})
		// Everyone trashes their boundary rows after sending.
		rows[lo][0] = -999
		rows[hi-1][0] = -999
		rt.Barrier()
		if me > 0 && ghost[0] != float64((lo-1)*10) {
			return fmt.Errorf("ghost aliased sender memory: %v", ghost[0])
		}
		return nil
	})
}

// A rank that crashes on entry to a halo exchange leaves its neighbours with
// a dead peer: their boundary sends are dropped with the buffers they carry,
// their ghost receives fail and keep the stale ghost, and the next cycle
// boundary recovers. The run must terminate with nothing orphaned — no
// posted receive, no undrained collective — for the blocking and the
// overlapped exchange alike.
func TestHaloCrashedNeighbourTerminatesWithoutLeaks(t *testing.T) {
	const n, cols, cycles, victim, crashCycle = 32, 8, 12, 1, 3
	const rowCost = vclock.Duration(vclock.Millisecond)
	// run executes the stencil loop and reports the victim's clock on entry
	// to crashCycle's exchange, how many ghost rows the survivors missed, and
	// the world (for the leak check).
	run := func(overlap bool, faults []fault.Fault) (haloAt vclock.Time, missed int, w *mpi.World) {
		spec := cluster.Uniform(4)
		spec.Faults = faults
		w = mpi.NewWorld(cluster.New(spec))
		var mu sync.Mutex
		err := w.Run(func(c *mpi.Comm) error {
			rt := core.New(c, core.DefaultConfig())
			d := rt.RegisterDense("A", n, cols)
			ph := rt.InitPhase(n)
			ph.AddAccess("A", drsd.ReadWrite, 1, 0)
			ph.AddAccess("A", drsd.Read, 1, -1)
			ph.AddAccess("A", drsd.Read, 1, +1)
			rt.Commit()
			stored, want := 0, 0
			rowOf := func(g int) []float64 { return d.Row(g) }
			store := func(g int, row []float64) { copy(d.Row(g), row); stored++ }
			for cyc := 0; cyc < cycles; cyc++ {
				if rt.BeginCycle() {
					lo, hi := ph.Bounds()
					if lo > 0 {
						want++
					}
					if hi < n {
						want++
					}
					// One row of compute separates the exchange's first
					// operation from BeginCycle's last.
					rt.ComputeIter(lo, rowCost)
					rest := func() {
						for g := lo + 1; g < hi; g++ {
							rt.ComputeIter(g, rowCost)
						}
					}
					if !overlap {
						rest()
					}
					if c.Rank() == victim && cyc == crashCycle {
						mu.Lock()
						haloAt = c.Now()
						mu.Unlock()
					}
					if overlap {
						HaloExchangeOverlap(rt, 5, n, rowOf, store, rest)
					} else {
						HaloExchange(rt, 5, n, rowOf, store)
					}
				}
				rt.EndCycle()
			}
			rt.Finalize()
			mu.Lock()
			missed += want - stored
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatalf("overlap=%v: %v", overlap, err)
		}
		return haloAt, missed, w
	}
	for _, overlap := range []bool{false, true} {
		// Virtual time is deterministic, so the clock a fault-free run shows
		// at the exchange is where the crash must strike: the first operation
		// at or after it is the exchange's own first.
		haloAt, missed, _ := run(overlap, nil)
		if missed != 0 {
			t.Fatalf("overlap=%v: fault-free run missed %d ghost rows", overlap, missed)
		}
		_, missed, w := run(overlap, []fault.Fault{fault.CrashAt(victim, haloAt)})
		if missed != 2 {
			t.Errorf("overlap=%v: survivors missed %d ghost rows, want 2 (one per neighbour of the dead rank)", overlap, missed)
		}
		if leaked := w.LeakedOps(); leaked != 0 {
			t.Errorf("overlap=%v: %d operations leaked", overlap, leaked)
		}
	}
}

func TestOrderedChecksumDistributionIndependent(t *testing.T) {
	// Two different block layouts of the same data must checksum
	// identically, bit for bit.
	sum := func(counts []int) float64 {
		const n = 9
		var out float64
		err := mpi.Run(cluster.New(cluster.Uniform(3)), func(c *mpi.Comm) error {
			rt := core.New(c, core.Config{Adapt: false})
			rt.RegisterDense("X", n, 1)
			ph := rt.InitPhase(n)
			ph.AddAccess("X", drsd.ReadWrite, 1, 0)
			rt.Commit()
			// Simulate an arbitrary layout by checksumming a slice of the
			// global index space directly.
			lo := 0
			for r := 0; r < c.Rank(); r++ {
				lo += counts[r]
			}
			hi := lo + counts[c.Rank()]
			s := OrderedChecksum(rt, n, lo, hi, func(g int) float64 {
				return 0.1 * float64(g+1) // values with non-trivial rounding
			})
			if c.Rank() == 0 {
				out = s
			}
			rt.Finalize()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a := sum([]int{3, 3, 3})
	b := sum([]int{1, 7, 1})
	if a != b {
		t.Fatalf("checksums differ across layouts: %v vs %v", a, b)
	}
}

func TestCollectorAggregation(t *testing.T) {
	col := NewCollector()
	err := mpi.Run(cluster.New(cluster.Uniform(2)), func(c *mpi.Comm) error {
		rt := core.New(c, core.Config{Adapt: false})
		rt.RegisterDense("X", 4, 1)
		ph := rt.InitPhase(4)
		ph.AddAccess("X", drsd.ReadWrite, 1, 0)
		rt.Commit()
		rt.BeginCycle()
		lo, hi := ph.Bounds()
		for g := lo; g < hi; g++ {
			rt.ComputeIter(g, vclock.Duration(10*vclock.Millisecond))
		}
		rt.EndCycle()
		rt.Finalize()
		col.Report(rt, 3.5, 42)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	res := col.Result(2)
	if res.Checksum != 3.5 || res.CheckInt != 42 {
		t.Fatalf("result %+v", res)
	}
	if res.Elapsed <= 0 {
		t.Fatal("no elapsed time")
	}
	if len(res.Stats) != 2 || res.Stats[1].Rank != 1 {
		t.Fatalf("stats %+v", res.Stats)
	}
}

// checksumWorld runs cycles of a one-array stencil-free loop on spec under
// cfg and then OrderedChecksum over row values 0.1·(g+1). It returns each
// rank's checksum, which ranks ended removed, and the victim's clock on
// entry to the checksum.
func checksumWorld(t *testing.T, spec cluster.Spec, cfg core.Config, victim int) (sums map[int]float64, removed map[int]bool, entry vclock.Time) {
	t.Helper()
	const n, cycles = 48, 30
	var mu sync.Mutex
	sums, removed = map[int]float64{}, map[int]bool{}
	w := mpi.NewWorld(cluster.New(spec))
	err := w.Run(func(c *mpi.Comm) error {
		rt := core.New(c, cfg)
		rt.RegisterDense("X", n, 1)
		ph := rt.InitPhase(n)
		ph.AddAccess("X", drsd.ReadWrite, 1, 0)
		rt.Commit()
		for cyc := 0; cyc < cycles; cyc++ {
			if rt.BeginCycle() {
				lo, hi := ph.Bounds()
				for g := lo; g < hi; g++ {
					rt.ComputeIter(g, 10*vclock.Millisecond)
				}
			}
			rt.EndCycle()
		}
		lo, hi := 0, 0
		if rt.Participating() {
			lo, hi = ph.Bounds()
		}
		rt.ComputeIter(lo, vclock.Millisecond) // the checksum's first operation is past the cycles' last
		if c.Rank() == victim {
			entry = c.Now()
		}
		s := OrderedChecksum(rt, n, lo, hi, func(g int) float64 { return 0.1 * float64(g+1) })
		rt.Finalize()
		mu.Lock()
		sums[c.Rank()], removed[c.Rank()] = s, !rt.Participating()
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if leaked := w.LeakedOps(); leaked != 0 {
		t.Fatalf("%d operations leaked", leaked)
	}
	return sums, removed, entry
}

// rowSum is OrderedChecksum's value when the rows in dead read zero.
func rowSum(n int, dead func(g int) bool) float64 {
	s := 0.0
	for g := 0; g < n; g++ {
		if !dead(g) {
			s += 0.1 * float64(g+1)
		}
	}
	return s
}

// TestOrderedChecksumReachesRemovedRanks: a rank the runtime removed
// contributes no rows, and receives the assembled vector through the
// send-out, so its checksum equals the active ranks'.
func TestOrderedChecksumReachesRemovedRanks(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Drop = core.DropAlways
	spec := cluster.Uniform(4).With(cluster.CycleEvent(2, 3, +1))
	sums, removed, _ := checksumWorld(t, spec, cfg, -1)
	if !removed[2] {
		t.Fatal("the loaded rank was not removed")
	}
	want := rowSum(48, func(int) bool { return false })
	for r, s := range sums {
		if s != want {
			t.Errorf("rank %d (removed %v): checksum %v, want %v", r, removed[r], s, want)
		}
	}
}

// TestOrderedChecksumSurvivesCrashInside: a rank that dies on entry to the
// checksum's collective fails it on every survivor, whose retry over the
// survivors sums the rows with the dead rank's reading zero.
func TestOrderedChecksumSurvivesCrashInside(t *testing.T) {
	const victim = 1
	cfg := core.Config{Adapt: false}
	_, _, entry := checksumWorld(t, cluster.Uniform(4), cfg, victim)
	spec := cluster.Uniform(4)
	spec.Faults = []fault.Fault{fault.CrashAt(victim, entry)}
	sums, _, _ := checksumWorld(t, spec, cfg, -1)
	if _, ok := sums[victim]; ok {
		t.Fatal("the victim reached the end of the run")
	}
	// Four ranks hold 12 rows each at the start, and nothing moved them.
	want := rowSum(48, func(g int) bool { return g/12 == victim })
	for r, s := range sums {
		if s != want {
			t.Errorf("rank %d: checksum %v, want %v", r, s, want)
		}
	}
}
