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
	ring := dynmpi.NewTelemetryRing(1 << 16)
	cfg := dynmpi.WithTelemetry(dynmpi.DefaultConfig(), ring)
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
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	recs := ring.Records()
	dynmpi.SortTelemetry(recs)
	for _, rec := range recs {
		if line := describe(rec); line != "" && rec.Meta().Node == 0 {
			trace = append(trace, line)
		}
	}
	return elapsed, removed, trace
}

// describe renders one adaptation record — a decision, a redistribution or a
// membership change — as a trace line, and the per-cycle kinds as "".
func describe(rec dynmpi.TelemetryRecord) string {
	switch v := rec.(type) {
	case dynmpi.DecisionRecord:
		line := fmt.Sprintf("cycle %3d  t=%.3fs  decision %s", v.Cycle, v.Time, v.Method)
		if v.Chosen != v.Method {
			line += ": " + v.Chosen
		}
		line += fmt.Sprintf("  loads %v", v.Loads)
		if v.GraceVT > 0 {
			line += fmt.Sprintf("  grace from t=%.3fs", v.GraceVT)
		}
		if v.MeasuredS > 0 {
			line += fmt.Sprintf("  measured=%.4fs predicted=%.4fs", v.MeasuredS, v.PredictedS)
		}
		return line
	case dynmpi.RedistRecord:
		return fmt.Sprintf("cycle %3d  t=%.3fs  redistribution from t=%.3fs  new counts %v  bytes sent %d recv %d",
			v.Cycle, v.Time, v.StartVT, v.Counts, v.BytesSent, v.BytesRecv)
	case dynmpi.MembershipRecord:
		return fmt.Sprintf("cycle %3d  t=%.3fs  membership %s  active=%v left=%v joined=%v",
			v.Cycle, v.Time, v.Change, v.Active, v.Left, v.Joined)
	}
	return ""
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
