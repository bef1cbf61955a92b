package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/drsd"
	"repro/internal/fault"
	"repro/internal/matrix"
	"repro/internal/mpi"
	"repro/internal/telemetry"
	"repro/internal/vclock"
)

// The crash-time matrix: a rank is killed at evenly spaced virtual times
// across one redistribution and across one plain cycle, for every victim
// and every drain × replication combination, and each run must terminate,
// keep every row owned exactly once, hold exact values wherever it did not
// declare a loss, leak nothing, and replay to identical finish times. The
// cycle-triggered crash suites (CrashAtCycle) only ever kill a rank at the
// top of BeginCycle; a timed crash lands at whichever communication
// operation the victim enters next — inside a redistribution's sends,
// harvest, fences or barrier, inside a replica refresh, inside the load
// exchange — which is where asymmetric failure observation lives.

const (
	matrixN      = 64
	matrixRowLen = 4
	matrixCycles = 25
	matrixPoints = 21
	// matrixWatchdog bounds one world's wall time. A healthy run takes
	// milliseconds; a run still going after this long has ranks parked
	// forever, and the matrix reports that as a failure naming the cell
	// instead of leaving it to the package-level test timeout.
	matrixWatchdog = 30 * time.Second
)

// matrixRank is one surviving rank's final state.
type matrixRank struct {
	lo, hi    int
	dense     []float64 // X[g][0] per owned row; -1 when the row's columns disagree
	sparse    []float64 // S[g] single element per owned row; -1 when the row is empty or malformed
	lost      []LostRange
	recovered int
	final     vclock.Time
	cycleAt   []vclock.Time // clock at each BeginCycle entry
}

// runMatrixWorld runs the mini workload (one dense array, plus one sparse
// array when withSparse is set; every cycle increments every owned element)
// under a watchdog. ok is false when the world did not terminate in time.
func runMatrixWorld(t *testing.T, spec cluster.Spec, cfg Config, withSparse bool) (results map[int]*matrixRank, leaked int, ok bool) {
	t.Helper()
	var mu sync.Mutex
	results = map[int]*matrixRank{}
	w := mpi.NewWorld(cluster.New(spec))
	done := make(chan error, 1)
	go func() {
		done <- w.Run(func(c *mpi.Comm) error {
			rt := New(c, cfg)
			x := rt.RegisterDense("X", matrixN, matrixRowLen)
			var s *matrix.Sparse
			if withSparse {
				s = rt.RegisterSparse("S", matrixN)
			}
			ph := rt.InitPhase(matrixN)
			ph.AddAccess("X", drsd.ReadWrite, 1, 0)
			if withSparse {
				ph.AddAccess("S", drsd.ReadWrite, 1, 0)
			}
			rt.Commit()
			x.Fill(func(g, j int) float64 { return float64(g * 10) })
			if withSparse {
				lo, hi := ph.Bounds()
				for g := lo; g < hi; g++ {
					s.Append(g, 0, float64(g*10))
				}
			}
			res := &matrixRank{}
			for tstep := 0; tstep < matrixCycles; tstep++ {
				res.cycleAt = append(res.cycleAt, c.Now())
				if rt.BeginCycle() {
					lo, hi := ph.Bounds()
					for g := lo; g < hi; g++ {
						row := x.Row(g)
						for j := range row {
							row[j]++
						}
						if withSparse {
							for e := s.RowHead(g); e != nil; e = e.Next() {
								e.Val++
							}
						}
						rt.ComputeIter(g, iterCost)
					}
				}
				rt.EndCycle()
			}
			rt.Finish()
			rt.Finalize()
			res.lo, res.hi = ph.Bounds()
			for g := res.lo; g < res.hi; g++ {
				row := x.Row(g)
				v := row[0]
				for _, e := range row {
					if e != v {
						v = -1
					}
				}
				res.dense = append(res.dense, v)
				if withSparse {
					v := -1.0
					if e := s.RowHead(g); s.RowLen(g) == 1 && e.Col == 0 {
						v = e.Val
					}
					res.sparse = append(res.sparse, v)
				}
			}
			res.lost = rt.LostRows()
			res.recovered = rt.RecoveredRows()
			res.final = c.Now()
			mu.Lock()
			results[c.Rank()] = res
			mu.Unlock()
			return nil
		})
	}()
	watchdog := time.NewTimer(matrixWatchdog)
	defer watchdog.Stop()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
		return results, w.LeakedOps(), true
	case <-watchdog.C:
		return nil, 0, false
	}
}

// checkMatrixRun asserts the per-run invariants on the survivors of one
// crash. A dense row ends at g*10+cycles unless it was declared lost
// (zero-filled at the loss, so anything below the fault-free value) or was
// rebuilt from a buddy replica, which restores the last refresh's snapshot:
// with ReplicaEvery=1 that is at most the one cycle of increments the
// victim computed and never shipped. Sparse rows are never replicated, so
// they are exact or lost.
func checkMatrixRun(t *testing.T, label string, results map[int]*matrixRank, victim int, withSparse bool) {
	t.Helper()
	if len(results) != 3 || results[victim] != nil {
		t.Errorf("%s: %d ranks reported, want the 3 survivors", label, len(results))
		return
	}
	owners := make([]int, matrixN)
	lost := map[string][]bool{"X": make([]bool, matrixN), "S": make([]bool, matrixN)}
	recovered := 0
	for _, res := range results {
		for g := res.lo; g < res.hi; g++ {
			owners[g]++
		}
		for _, lr := range res.lost {
			for g := lr.Lo; g < lr.Hi; g++ {
				lost[lr.Array][g] = true
			}
		}
		recovered += res.recovered
	}
	for g, c := range owners {
		if c != 1 {
			t.Errorf("%s: row %d owned %d times", label, g, c)
			return
		}
	}
	stale := 0
	for r, res := range results {
		for g := res.lo; g < res.hi; g++ {
			want := float64(g*10 + matrixCycles)
			got := res.dense[g-res.lo]
			switch {
			case got == want:
			case lost["X"][g]:
				if got >= want {
					t.Errorf("%s: rank %d lost row %d holds %v", label, r, g, got)
				}
			case got == want-1:
				stale++
			default:
				t.Errorf("%s: rank %d row %d = %v, want %v and not declared lost", label, r, g, got, want)
			}
			if withSparse && !lost["S"][g] && res.sparse[g-res.lo] != want {
				t.Errorf("%s: rank %d sparse row %d = %v, want %v and not declared lost",
					label, r, g, res.sparse[g-res.lo], want)
			}
		}
	}
	if stale > recovered {
		t.Errorf("%s: %d rows one refresh stale but only %d rebuilt from replicas", label, stale, recovered)
	}
}

// spread returns matrixPoints evenly spaced instants covering [t0, t1].
func spread(t0, t1 vclock.Time) []vclock.Time {
	out := make([]vclock.Time, matrixPoints)
	for k := range out {
		out[k] = t0.Add(t1.Sub(t0) * vclock.Duration(k) / (matrixPoints - 1))
	}
	return out
}

func TestCrashTimeMatrix(t *testing.T) {
	scenario := func() cluster.Spec { return cpAtCycle(cluster.Uniform(4), 1, 3) }
	type cell struct {
		name       string
		mode       RedistMode
		replicate  bool
		rma        bool
		withSparse bool
	}
	var cells []cell
	for _, m := range []struct {
		name string
		mode RedistMode
	}{{"pipelined", RedistPipelined}, {"rma", RedistRMA}} {
		cells = append(cells,
			cell{m.name + "/norep", m.mode, false, false, false},
			cell{m.name + "/paired", m.mode, true, false, false},
			cell{m.name + "/replicaRMA", m.mode, true, true, false})
	}
	// A sparse array beside the dense one sends RedistRMA through its
	// message-passing fallback drain in the same redistribution that commits
	// the dense array one-sided.
	cells = append(cells, cell{"rma/paired/sparse", RedistRMA, true, false, true})

	for _, cl := range cells {
		cfg := DefaultConfig()
		cfg.Drop = DropNever
		cfg.RedistMode = cl.mode
		cfg.Replicate = cl.replicate
		cfg.ReplicaRMA = cl.rma
		if cl.replicate {
			cfg.ReplicaEvery = 1
		}

		// Fault-free reference: where the first redistribution and one plain
		// cycle sit on rank 0's clock.
		refCfg := cfg
		ring := traceInto(&refCfg)
		ref, leaked, ok := runMatrixWorld(t, scenario(), refCfg, cl.withSparse)
		if !ok {
			t.Fatalf("%s: fault-free run hung", cl.name)
		}
		if leaked != 0 {
			t.Errorf("%s: fault-free run leaked %d ops", cl.name, leaked)
		}
		reds := only[telemetry.RedistRecord](byNode(t, ring)[0])
		if len(reds) == 0 || reds[0].Time <= reds[0].StartVT {
			t.Fatalf("%s: scenario produced no redistribution; matrix is vacuous", cl.name)
		}
		rs, re := vclock.Time(vclock.FromSeconds(reds[0].StartVT)), vclock.Time(vclock.FromSeconds(reds[0].Time))
		times := append(spread(rs, re), spread(ref[0].cycleAt[1], ref[0].cycleAt[2])...)

		for victim := 0; victim < 4; victim++ {
			for _, at := range times {
				label := fmt.Sprintf("%s victim %d t=%v", cl.name, victim, at)
				run := func() map[int]*matrixRank {
					spec := scenario()
					spec.Faults = []fault.Fault{fault.CrashAt(victim, at)}
					results, leaked, ok := runMatrixWorld(t, spec, cfg, cl.withSparse)
					if !ok {
						t.Fatalf("%s: survivors deadlocked (watchdog)", label)
					}
					if leaked != 0 {
						t.Errorf("%s: %d ops leaked", label, leaked)
					}
					return results
				}
				a := run()
				checkMatrixRun(t, label, a, victim, cl.withSparse)
				b := run()
				for r, ra := range a {
					if rb := b[r]; rb == nil || ra.final != rb.final {
						t.Errorf("%s: rank %d finish differs across runs", label, r)
					}
				}
			}
		}
	}
}
