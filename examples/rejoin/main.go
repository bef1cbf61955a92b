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
	ring := dynmpi.NewTelemetryRing(1 << 16)
	cfg := dynmpi.WithTelemetry(dynmpi.DefaultConfig(), ring)
	cfg.Drop = dynmpi.DropAlways
	cfg.AllowRejoin = true

	var mu sync.Mutex
	var finalCounts []int

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

		if rt.Comm().Rank() == 0 {
			mu.Lock()
			finalCounts = rt.Dist().Counts()
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("adaptation trace (rank 0):")
	recs := ring.Records()
	dynmpi.SortTelemetry(recs)
	for _, rec := range recs {
		if line := describe(rec); line != "" && rec.Meta().Node == 0 {
			fmt.Println(" ", line)
		}
	}
	fmt.Printf("\nfinal distribution: %v (all four nodes active, data verified)\n", finalCounts)
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
