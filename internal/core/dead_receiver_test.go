package core

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/drsd"
	"repro/internal/mpi"
	"repro/internal/telemetry"
	"repro/internal/vclock"
)

// deadReceiverRank is one survivor's final state in the dead-receiver run.
type deadReceiverRank struct {
	Lo, Hi  int
	Rows    []float64 // X[g][0] per owned row
	Lost    []LostRange
	Final   vclock.Time
	Records []telemetry.Record
}

// runDeadReceiver forces one redistribution in which rank 1 sends
// to both rank 0 and rank 2 — 16/16/16 rows become 22/4/22 — with victim
// killed before the redistribution starts, then runs on through failure
// recovery. ok is false when the survivors did not return inside the
// watchdog.
func runDeadReceiver(t *testing.T, victim, n, cycles int) (results map[int]*deadReceiverRank, leaked int, ok bool) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Drop = DropNever
	ring := traceInto(&cfg)
	var mu sync.Mutex
	results = map[int]*deadReceiverRank{}
	w := mpi.NewWorld(cluster.New(cluster.Uniform(3)))
	done := make(chan error, 1)
	go func() {
		done <- w.Run(func(c *mpi.Comm) error {
			rt := New(c, cfg)
			x := rt.RegisterDense("X", n, 4)
			ph := rt.InitPhase(n)
			ph.AddAccess("X", drsd.ReadWrite, 1, 0)
			rt.Commit()
			x.Fill(func(g, j int) float64 { return float64(g * 10) })
			for tstep := 0; tstep < cycles; tstep++ {
				if tstep == 2 {
					if c.Rank() == victim {
						c.World().Kill(victim)
						return nil
					}
					rt.applyDistribution(drsd.NewBlock([]int{0, 1, 2}, []int{22, 4, 22}), nil)
				}
				if rt.BeginCycle() {
					lo, hi := ph.Bounds()
					for g := lo; g < hi; g++ {
						row := x.Row(g)
						for j := range row {
							row[j]++
						}
						rt.ComputeIter(g, iterCost)
					}
				}
				rt.EndCycle()
			}
			rt.Finalize()
			res := &deadReceiverRank{Lost: rt.LostRows(), Final: c.Now()}
			res.Lo, res.Hi = ph.Bounds()
			for g := res.Lo; g < res.Hi; g++ {
				res.Rows = append(res.Rows, x.Row(g)[0])
			}
			mu.Lock()
			results[c.Rank()] = res
			mu.Unlock()
			return nil
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
		recs := byNode(t, ring)
		for r, res := range results {
			res.Records = recs[r]
		}
		return results, w.LeakedOps(), true
	case <-time.After(10 * time.Second):
		return nil, 0, false
	}
}

// TestRedistDeadReceiverSparesTheLiveOne: a sender with two receivers, one
// of them dead before the redistribution starts. The drain's send to the
// dead one is dropped in delivery, and the death surfaces at the next
// collective. Whichever of the two is the victim, the live one must come
// back with the rows it was sent, the victim's rows — and only those — must
// end up declared lost, nothing may leak, and the run must replay exactly.
func TestRedistDeadReceiverSparesTheLiveOne(t *testing.T) {
	const n, cycles = 48, 8
	for _, victim := range []int{0, 2} {
		a, leaked, ok := runDeadReceiver(t, victim, n, cycles)
		if !ok {
			t.Fatalf("victim %d: survivors hung (10 s watchdog)", victim)
		}
		if leaked != 0 {
			t.Errorf("victim %d: %d ops leaked", victim, leaked)
		}
		if len(a) != 2 || a[victim] != nil {
			t.Fatalf("victim %d: %d ranks reported, want the 2 survivors", victim, len(a))
		}
		// What the victim owned after the forced redistribution.
		vlo, vhi := 0, 22
		if victim == 2 {
			vlo, vhi = 26, n
		}
		lost := map[int]bool{}
		for r, res := range a {
			for _, lr := range res.Lost {
				for g := lr.Lo; g < lr.Hi; g++ {
					if g < vlo || g >= vhi || lost[g] {
						t.Errorf("victim %d: rank %d declared row %d lost (victim held [%d,%d))", victim, r, g, vlo, vhi)
					}
					lost[g] = true
				}
			}
		}
		if len(lost) != vhi-vlo {
			t.Errorf("victim %d: %d rows declared lost, want the victim's %d", victim, len(lost), vhi-vlo)
		}
		owned := 0
		for r, res := range a {
			owned += res.Hi - res.Lo
			for k, v := range res.Rows {
				if g := res.Lo + k; !lost[g] && v != float64(g*10+cycles) {
					t.Errorf("victim %d: rank %d row %d = %v, want %v", victim, r, g, v, float64(g*10+cycles))
				}
			}
		}
		if owned != n {
			t.Errorf("victim %d: survivors own %d of %d rows", victim, owned, n)
		}
		b, _, ok := runDeadReceiver(t, victim, n, cycles)
		if !ok {
			t.Fatalf("victim %d: replay hung (10 s watchdog)", victim)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("victim %d: replay differs", victim)
		}
	}
}
