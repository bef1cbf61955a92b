// Quickstart: a one-dimensional heat-diffusion stencil on four simulated
// nodes. A competing process lands on node 1 at iteration 10; Dyn-MPI
// detects the load change, measures during the grace period, and shifts
// rows off the loaded node automatically. The program prints rank 0's
// adaptation records from the telemetry trace and the final distribution.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"sync"

	"repro/dynmpi"
)

const (
	n     = 256 // rows (the distributed dimension)
	width = 256 // columns per extended row
	iters = 120
	// rowCost is the modelled CPU cost of updating one row; sized so the
	// 1-second load monitor notices the competing process mid-run.
	rowCost = 200 * dynmpi.Microsecond * dynmpi.Duration(width) / 256
)

func main() {
	spec := dynmpi.Uniform(4).With(dynmpi.CompetingProcessAtCycle(1, 10))
	// The telemetry ring is the runtime's trace: every rank's decisions,
	// redistributions and membership changes land in it.
	ring := dynmpi.NewTelemetryRing(1 << 16)
	cfg := dynmpi.WithTelemetry(dynmpi.DefaultConfig(), ring)

	var mu sync.Mutex
	var finalCounts []int

	err := dynmpi.Launch(spec, cfg, func(rt *dynmpi.Runtime) error {
		u := rt.RegisterDense("U", n, width)
		ph := rt.InitPhase(n)
		ph.AddAccess("U", dynmpi.ReadWrite, 1, 0)
		ph.AddAccess("U", dynmpi.Read, 1, -1)
		ph.AddAccess("U", dynmpi.Read, 1, +1)
		rt.Commit()
		u.Fill(func(g, j int) float64 {
			if g == 0 {
				return 100 // hot top boundary
			}
			return 0
		})

		scratch := make([]float64, width)
		for t := 0; t < iters; t++ {
			if rt.BeginCycle() {
				lo, hi := ph.Bounds()
				for g := lo; g < hi; g++ {
					if g > 0 && g < n-1 {
						up, mid, down := u.Row(g-1), u.Row(g), u.Row(g+1)
						for j := range scratch {
							scratch[j] = mid[j] + 0.2*(up[j]+down[j]-2*mid[j])
						}
						copy(mid, scratch)
					}
				}
				rt.ComputeIters(lo, hi, rowCost) // every row costs the same: charge the range
				// Explicit nearest-neighbour halo exchange (relative ranks).
				rr := rt.RelRank()
				if rr > 0 {
					rt.SendRel(rr-1, 1, append([]float64(nil), u.Row(lo)...), dynmpi.F64Bytes(width))
				}
				if rr < rt.NumActive()-1 {
					rt.SendRel(rr+1, 2, append([]float64(nil), u.Row(hi-1)...), dynmpi.F64Bytes(width))
				}
				if rr > 0 {
					row, _ := rt.RecvRelF64s(rr-1, 2)
					copy(u.Row(lo-1), row)
				}
				if rr < rt.NumActive()-1 {
					row, _ := rt.RecvRelF64s(rr+1, 1)
					copy(u.Row(hi), row)
				}
			}
			rt.EndCycle()
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
	fmt.Printf("final distribution (rows per node): %v\n", finalCounts)
	fmt.Println("note: the loaded node (1) ends up with roughly half the rows of its peers")
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
