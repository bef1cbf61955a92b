// Multiperiod: the §5.2 scenario as a runnable demo. A competing process
// occupies node 2 during the middle third of a stencil computation; the
// program runs three policies — never adapt, adapt once, adapt freely —
// and reports how each fares, reproducing the paper's observation that the
// *second* redistribution (after the load disappears) only pays off when
// enough execution remains to amortise it.
//
// Run with: go run ./examples/multiperiod
package main

import (
	"fmt"
	"log"
	"sync"

	"repro/dynmpi"
)

const (
	n      = 256
	width  = 1024
	period = 60 // cycles per third
)

// run executes the workload under one adaptation policy and returns the
// total virtual time and the number of redistributions.
func run(adapt bool, maxRedists int) (float64, int) {
	spec := dynmpi.Uniform(4).
		With(dynmpi.CompetingProcessAtCycle(2, period)).
		With(dynmpi.LoadEvent{Node: 2, Delta: -1, AtCycle: 2 * period})
	cfg := dynmpi.DefaultConfig()
	cfg.Adapt = adapt
	cfg.Drop = dynmpi.DropNever
	cfg.MaxRedists = maxRedists

	var mu sync.Mutex
	var worst float64
	redists := 0
	err := dynmpi.Launch(spec, cfg, func(rt *dynmpi.Runtime) error {
		a := rt.RegisterDense("A", n, width)
		ph := rt.InitPhase(n)
		ph.AddAccess("A", dynmpi.ReadWrite, 1, 0)
		rt.Commit()
		a.Fill(func(g, j int) float64 { return float64(g + j) })

		rowCost := 100 * dynmpi.Microsecond * dynmpi.Duration(width) / 256
		for t := 0; t < 3*period; t++ {
			if rt.BeginCycle() {
				lo, hi := ph.Bounds()
				for g := lo; g < hi; g++ {
					row := a.Row(g)
					for j := range row {
						row[j] = row[j]*0.5 + 1
					}
				}
				rt.ComputeIters(lo, hi, rowCost) // every row costs the same: charge the range
			}
			rt.EndCycle()
		}
		rt.Finalize()
		mu.Lock()
		if s := rt.Comm().Now().Seconds(); s > worst {
			worst = s
		}
		if rt.Redistributions() > redists {
			redists = rt.Redistributions()
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	return worst, redists
}

func main() {
	noAdapt, _ := run(false, 0)
	once, _ := run(true, 1)
	free, k := run(true, 0)

	fmt.Printf("no adaptation:        %6.2fs\n", noAdapt)
	fmt.Printf("adapt once:           %6.2fs  (%.0f%% faster)\n", once, (noAdapt-once)/noAdapt*100)
	fmt.Printf("adapt freely (%d x):   %6.2fs  (%.0f%% faster)\n", k, free, (noAdapt-free)/noAdapt*100)
	if free < once {
		fmt.Println("the second redistribution (after the load vanished) paid for itself")
	} else {
		fmt.Println("the second redistribution did not pay for itself at this execution length")
	}
}
