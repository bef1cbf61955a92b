package core

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/drsd"
	"repro/internal/mpi"
)

// TestGatheredCostsAreOneSharedSlice: after a grace-period decision every
// active rank holds the same iterCosts slice, and each rank's own range of
// it holds exactly the estimates its grace collector measured, the values
// it contributed to the gather.
func TestGatheredCostsAreOneSharedSlice(t *testing.T) {
	const n, cycles = 64, 25
	cfg := DefaultConfig()
	cfg.Drop = DropNever
	spec := cpAtCycle(cluster.Uniform(4), 1, 3)
	var mu sync.Mutex
	gathered := map[int][]*float64{} // rank -> each decision's iterCosts
	err := mpi.Run(cluster.New(spec), func(c *mpi.Comm) error {
		rt := New(c, cfg)
		x := rt.RegisterDense("X", n, 1)
		ph := rt.InitPhase(n)
		ph.AddAccess("X", drsd.ReadWrite, 1, 0)
		rt.Commit()
		x.Fill(func(g, j int) float64 { return float64(g) })
		var mine []*float64
		for cyc := 0; cyc < cycles; cyc++ {
			if rt.BeginCycle() {
				if costs := rt.iterCosts; costs != nil && (len(mine) == 0 || &costs[0] != mine[len(mine)-1]) {
					mine = append(mine, &costs[0])
					lo, hi := rt.grace.Range()
					est := make([]float64, hi-lo)
					rt.grace.EstimatesInto(est)
					for i, v := range est {
						if math.Float64bits(costs[lo+i]) != math.Float64bits(v) {
							return fmt.Errorf("rank %d, cycle %d: iterCosts[%d] = %v, its estimate %v", c.Rank(), cyc, lo+i, costs[lo+i], v)
						}
					}
				}
				lo, hi := ph.Bounds()
				for g := lo; g < hi; g++ {
					rt.ComputeIter(g, iterCost)
				}
			}
			rt.EndCycle()
		}
		rt.Finalize()
		mu.Lock()
		gathered[c.Rank()] = mine
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := gathered[0]
	if len(want) == 0 {
		t.Fatal("no grace-period decision was made")
	}
	for r, got := range gathered {
		if len(got) != len(want) {
			t.Fatalf("rank %d saw %d decisions, rank 0 %d", r, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("rank %d: decision %d's iterCosts is not rank 0's slice", r, i)
			}
		}
	}
}
