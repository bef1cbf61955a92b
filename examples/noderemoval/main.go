// Noderemoval: demonstrates physical node removal (§4.4, §5.3). A
// communication-heavy stencil runs on 16 nodes while three competing
// processes hammer node 5. With DropAuto, Dyn-MPI first redistributes,
// monitors ten cycles, predicts that an unloaded-only configuration would
// be faster, and physically removes the loaded node — re-assigning
// relative ranks on the fly while the program keeps using nearest-neighbour
// communication through them.
//
// Run with: go run ./examples/noderemoval
package main

import (
	"fmt"
	"log"
	"sync"

	"repro/dynmpi"
)

const (
	n     = 256
	width = 1024
	iters = 150
)

func run(policy dynmpi.DropPolicy) (elapsed float64, removed []int, trace []string) {
	spec := dynmpi.Uniform(24)
	for i := 0; i < 2; i++ {
		spec = spec.With(dynmpi.CompetingProcessAt(5, 0))
	}
	cfg := dynmpi.DefaultConfig()
	cfg.Drop = policy

	var mu sync.Mutex
	err := dynmpi.Launch(spec, cfg, func(rt *dynmpi.Runtime) error {
		a := rt.RegisterDense("A", n, width)
		ph := rt.InitPhase(n)
		ph.AddAccess("A", dynmpi.ReadWrite, 1, 0)
		ph.AddAccess("A", dynmpi.Read, 1, -1)
		ph.AddAccess("A", dynmpi.Read, 1, +1)
		rt.Commit()
		a.Fill(func(g, j int) float64 { return float64(g*7 + j) })

		rowCost := dynmpi.Duration(width) * 1500 // 1.5us per element
		for t := 0; t < iters; t++ {
			if rt.BeginCycle() {
				lo, hi := ph.Bounds()
				for g := lo; g < hi; g++ {
					row := a.Row(g)
					for j := range row {
						row[j] *= 0.999
					}
				}
				rt.ComputeIters(lo, hi, rowCost) // every row costs the same: charge the range
				// Halo exchange through the ownership-aware helper: it
				// follows the distribution across redistributions, zero-row
				// assignments and node removals.
				dynmpi.HaloExchange(rt, 1, n,
					func(g int) []float64 { return a.Row(g) },
					func(g int, row []float64) { copy(a.Row(g), row) })
			}
			rt.EndCycle()
		}
		rt.Finalize()

		mu.Lock()
		defer mu.Unlock()
		if s := rt.Comm().Now().Seconds(); s > elapsed {
			elapsed = s
		}
		if !rt.Participating() {
			removed = append(removed, rt.Comm().Rank())
		}
		if rt.Comm().Rank() == 0 {
			for _, ev := range rt.Events() {
				trace = append(trace, fmt.Sprintf("cycle %3d  %v  %s", ev.Cycle, ev.Kind, ev.Info))
			}
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	return elapsed, removed, trace
}

func main() {
	keepT, _, _ := run(dynmpi.DropNever)
	autoT, removed, trace := run(dynmpi.DropAuto)

	fmt.Println("adaptation trace with DropAuto (rank 0):")
	for _, line := range trace {
		fmt.Println(" ", line)
	}
	fmt.Printf("\nkeep loaded node:  %6.2fs\n", keepT)
	fmt.Printf("automatic removal: %6.2fs", autoT)
	if len(removed) > 0 {
		fmt.Printf("   (physically removed nodes: %v)", removed)
	}
	fmt.Println()
	if autoT < keepT {
		fmt.Printf("removing the loaded node was %.0f%% faster\n", (keepT-autoT)/keepT*100)
	} else {
		fmt.Println("the drop decision judged removal unprofitable here")
	}
}
