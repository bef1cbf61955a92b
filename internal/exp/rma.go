package exp

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sweep"
)

// This file measures the one-sided replica-refresh claim: with per-cycle
// buddy replication (ReplicaEvery=1), routing the refresh through RMA
// windows with a deferred epoch hides the slab wire time behind the next
// cycle's computation, so the holder-side stall of the paired send/recv
// refresh all but disappears. The workload is a dedicated uniform cluster
// (no competing processes, no redistributions), so every second of stall
// difference is the refresh mechanism itself.
//
// The one-sided runs settle their epochs pairwise (PSCW: each holder
// synchronises only with its buddy and its own holder, never the whole
// world), so the synchronisation cost is constant in the world size.

// rmaNodes is the study's ladder of world sizes: the scalability regimes
// the acceptance table quotes.
var rmaNodes = []int{64, 256}

// RMARow is one world-size measurement: total refresh stall across ranks
// and the virtual makespan, under each refresh mode.
type RMARow struct {
	Nodes        int
	PairedStallS float64 // paired send/recv refresh stall, summed over ranks
	RMAStallS    float64 // one-sided refresh stall (pairwise epochs)
	PairedS      float64 // paired-mode virtual makespan
	RMAS         float64 // one-sided virtual makespan (pairwise epochs)
}

// StallReduction reports the fractional holder-side stall saving.
func (r RMARow) StallReduction() float64 {
	if r.PairedStallS == 0 {
		return 0
	}
	return (r.PairedStallS - r.RMAStallS) / r.PairedStallS
}

// RMAResult holds the study.
type RMAResult struct {
	Rows []RMARow
}

// MinReduction reports the smallest stall reduction across world sizes —
// the figure the ≥30% acceptance bound is checked against.
func (r *RMAResult) MinReduction() float64 {
	min := 1.0
	for _, row := range r.Rows {
		if red := row.StallReduction(); red < min {
			min = red
		}
	}
	if len(r.Rows) == 0 {
		return 0
	}
	return min
}

// MakespanOK reports whether the one-sided makespan held at or under the
// paired makespan on every world size — a full-group synchronisation per
// refresh loses this at 256 ranks; the pairwise epochs must not.
func (r *RMAResult) MakespanOK() bool {
	for _, row := range r.Rows {
		if row.RMAS > row.PairedS {
			return false
		}
	}
	return true
}

// RunRMA executes the one-sided refresh study on the given world sizes
// (nil: rmaNodes).
func RunRMA(nodes []int) (*RMAResult, error) {
	nodes = ladder(nodes, rmaNodes)
	var worlds []sweep.World
	for _, n := range nodes {
		w := sweep.World{App: "jacobi", Rows: 512, Cols: 1024, Iters: 20, Cost: 40}
		w.Core = core.DefaultConfig()
		w.Core.Drop = core.DropNever
		w.Core.Replicate = true
		w.Core.ReplicaEvery = 1
		w.Spec = cluster.Uniform(n)
		onesided := w
		onesided.Core.ReplicaRMA = true
		worlds = append(worlds, w, onesided)
	}
	out, err := runWorlds(worlds, nil)
	if err != nil {
		return nil, fmt.Errorf("rma: %w", err)
	}
	stallOf := func(r apps.Result) float64 {
		total := 0.0
		for _, st := range r.Stats {
			total += st.RefreshStall.Seconds()
		}
		return total
	}
	res := &RMAResult{}
	for i, n := range nodes {
		paired, onesided := out[2*i], out[2*i+1]
		if paired.Checksum != onesided.Checksum {
			return nil, fmt.Errorf("rma %d: one-sided refresh changed the checksum", n)
		}
		res.Rows = append(res.Rows, RMARow{
			Nodes:        n,
			PairedStallS: stallOf(paired),
			RMAStallS:    stallOf(onesided),
			PairedS:      paired.Elapsed,
			RMAS:         onesided.Elapsed,
		})
	}
	return res, nil
}

// Table renders the study.
func (r *RMAResult) Table() *Table {
	t := &Table{
		Caption: "One-sided replica refresh: holder-side stall of per-cycle buddy replication, paired send/recv vs pairwise-epoch (PSCW) RMA windows (dedicated cluster)",
		Header:  []string{"nodes", "paired-stall(s)", "rma-stall(s)", "reduction", "paired(s)", "rma(s)"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(row.Nodes), f3(row.PairedStallS), f3(row.RMAStallS),
			pct(row.StallReduction()), f2(row.PairedS), f2(row.RMAS),
		})
	}
	t.Notes = []string{fmt.Sprintf("one-sided refresh cuts holder-side replica stall by ≥%s across world sizes", pct(r.MinReduction()))}
	return t
}
