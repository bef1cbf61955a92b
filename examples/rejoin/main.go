// Rejoin: node churn end to end. A competing process occupies node 2 for
// the middle of the run; with DropAlways + AllowRejoin the runtime removes
// the node while it is loaded and — via the per-cycle polling protocol —
// re-admits it once the competing process exits, redistributing data both
// ways. The §2.2 capability the paper sketches as future work.
//
// Run with: go run ./examples/rejoin
package main

import (
	"fmt"
	"log"
	"sync"

	"repro/dynmpi"
)

const (
	n     = 240
	width = 512
	iters = 220
)

func main() {
	spec := dynmpi.Uniform(4).
		With(dynmpi.CompetingProcessAtCycle(2, 10)).
		With(dynmpi.LoadEvent{Node: 2, Delta: -1, AtCycle: 120})
	cfg := dynmpi.DefaultConfig()
	cfg.Drop = dynmpi.DropAlways
	cfg.AllowRejoin = true

	var mu sync.Mutex
	var trace []string
	var finalCounts []int
	history := map[int][]int{} // cycle -> counts

	err := dynmpi.Launch(spec, cfg, func(rt *dynmpi.Runtime) error {
		a := rt.RegisterDense("A", n, width)
		ph := rt.InitPhase(n)
		ph.AddAccess("A", dynmpi.ReadWrite, 1, 0)
		rt.Commit()
		a.Fill(func(g, j int) float64 { return float64(g) })

		rowCost := dynmpi.Duration(width) * 300 // 300ns per element
		for t := 0; t < iters; t++ {
			if rt.BeginCycle() {
				lo, hi := ph.Bounds()
				for g := lo; g < hi; g++ {
					row := a.Row(g)
					for j := range row {
						row[j] += 1
					}
				}
				rt.ComputeIters(lo, hi, rowCost) // every row costs the same: charge the range
			}
			rt.EndCycle()
		}

		// Verify data survived the round trip: every owned row must equal
		// its initial value plus the iteration count.
		if rt.Participating() {
			lo, hi := ph.Bounds()
			for g := lo; g < hi; g++ {
				if a.Row(g)[0] != float64(g+iters) {
					return fmt.Errorf("row %d corrupted: %v", g, a.Row(g)[0])
				}
			}
		}
		rt.Finalize()

		mu.Lock()
		defer mu.Unlock()
		if rt.Comm().Rank() == 0 {
			for _, ev := range rt.Events() {
				line := fmt.Sprintf("cycle %3d  %-12v %s", ev.Cycle, ev.Kind, ev.Info)
				trace = append(trace, line)
				if len(ev.Counts) > 0 {
					history[ev.Cycle] = ev.Counts
				}
			}
			finalCounts = rt.Dist().Counts()
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("adaptation trace (rank 0):")
	for _, line := range trace {
		fmt.Println(" ", line)
	}
	fmt.Printf("\nfinal distribution: %v (all four nodes active, data verified)\n", finalCounts)
}
