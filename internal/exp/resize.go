package exp

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sweep"
	"repro/internal/vclock"
)

// This file measures elastic world resizing against its only real
// alternative on a non-dedicated cluster: killing the job and restarting it
// at the new size. An elastic resize keeps every byte that does not change
// owner in place and ships only the contiguous ownership delta (and the
// ghost rows of the new windows); a restart pays the full makespan
// bookkeeping — drain the old world, reload every array over the wire,
// rerun the remaining iterations from the checkpoint. The study validates, through the cost
// model, that resize N→M is strictly cheaper than drop-all+restart in both
// directions (capacity arriving under load, capacity leaving under load).

// The study's Jacobi workload: resizeRows x resizeCols for resizeIters
// cycles. The membership changes a third of the way in.
const resizeRows, resizeCols, resizeIters = 512, 512, 60

// ResizeRow is one scenario: an elastic resize from From to To ranks at
// cycle At, against the modeled drop-all+restart baseline.
type ResizeRow struct {
	Scenario string
	From, To int
	At       int
	ResizeS  float64 // elastic-run virtual makespan
	RestartS float64 // restart baseline: partial runs + full-array reload
	ReloadS  float64 // the reload component of the baseline
	MovedMB  float64 // bytes the elastic redistributions actually shipped
	TotalMB  float64 // full working-set size a restart must reload
}

// Saving reports the fractional makespan saving of resizing over restart.
func (r ResizeRow) Saving() float64 {
	if r.RestartS == 0 {
		return 0
	}
	return (r.RestartS - r.ResizeS) / r.RestartS
}

// ResizeResult holds the study.
type ResizeResult struct {
	Rows []ResizeRow
}

// CheaperCount reports on how many scenarios the elastic resize beat the
// restart baseline strictly — the acceptance criterion wants ≥2.
func (r *ResizeResult) CheaperCount() int {
	n := 0
	for _, row := range r.Rows {
		if row.ResizeS < row.RestartS {
			n++
		}
	}
	return n
}

// RunResize executes the resize-vs-restart study: grow 4→6 via timed
// capacity arrivals, shrink 6→4 via an explicit Resize call.
func RunResize() (*ResizeResult, error) {
	at := resizeIters / 3

	// world is Jacobi for iters cycles on n uniform nodes.
	world := func(n, iters int) sweep.World {
		w := sweep.World{App: "jacobi", Rows: resizeRows, Cols: resizeCols, Iters: iters}
		w.Core = core.DefaultConfig()
		w.Core.Drop = core.DropNever
		w.Spec = cluster.Uniform(n)
		return w
	}
	// Scenario 1: capacity arrives under load — two nodes join at cycle at.
	grow := world(4, resizeIters)
	grow.Spec = grow.Spec.WithArrival(1.0, at).WithArrival(1.0, at)
	grow.Trace = true
	// Scenario 2: capacity leaves under load — an explicit shrink releases
	// the two highest ranks at cycle at.
	shrink := world(6, resizeIters)
	shrink.ResizeAt, shrink.ResizeTo = at, 4
	shrink.Trace = true
	scenarios := []struct {
		name     string
		from, to int
	}{{"grow", 4, 6}, {"shrink", 6, 4}}
	// The reference — an undisturbed dedicated run of the full length, for
	// the checksum — then each scenario's elastic world and its restart
	// baseline: the old world run to the resize point, and the rest run on
	// the new world.
	worlds := []sweep.World{world(4, resizeIters),
		grow, world(4, at), world(6, resizeIters-at),
		shrink, world(6, at), world(4, resizeIters-at)}
	movedMB := make([]float64, len(worlds))
	out, err := runWorlds(worlds, func(i int, w sweep.Outcome) error {
		if w.Ring != nil {
			var bytes int64
			for _, recs := range redistsOf(w.Ring) {
				for _, r := range recs {
					bytes += r.BytesSent
				}
			}
			movedMB[i] = float64(bytes) / 1e6
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("resize: %w", err)
	}

	// A restart reloads the full working set (both ping-pong buffers) over
	// the wire of the new world; the cost model is the cluster's own.
	net := cluster.DefaultNet()
	totalBytes := float64(2 * resizeRows * resizeCols * 8)
	reload := vclock.Duration(net.Latency).Seconds() + totalBytes/net.BytesPerSec

	ref := out[0]
	res := &ResizeResult{}
	for k, sc := range scenarios {
		i := 1 + 3*k
		elastic, before, after := out[i], out[i+1], out[i+2]
		if elastic.Checksum != ref.Checksum {
			return nil, fmt.Errorf("resize %s: checksum %v differs from dedicated run %v — resize corrupted data",
				sc.name, elastic.Checksum, ref.Checksum)
		}
		res.Rows = append(res.Rows, ResizeRow{
			Scenario: sc.name,
			From:     sc.from,
			To:       sc.to,
			At:       at,
			ResizeS:  elastic.Elapsed,
			RestartS: before.Elapsed + reload + after.Elapsed,
			ReloadS:  reload,
			MovedMB:  movedMB[i],
			TotalMB:  totalBytes / 1e6,
		})
	}
	return res, nil
}

// Table renders the study.
func (r *ResizeResult) Table() *Table {
	t := &Table{
		Caption: "Elastic resizing vs drop-all+restart: Jacobi, membership change mid-run; restart pays partial reruns plus a full working-set reload",
		Header:  []string{"scenario", "nodes", "at", "resize(s)", "restart(s)", "saving", "moved(MB)", "reload(MB)"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Scenario,
			fmt.Sprintf("%d->%d", row.From, row.To),
			fmt.Sprint(row.At),
			f2(row.ResizeS), f2(row.RestartS), pct(row.Saving()),
			f2(row.MovedMB), f2(row.TotalMB),
		})
	}
	t.Notes = []string{fmt.Sprintf("elastic resize beats drop-all+restart on %d of %d scenarios", r.CheaperCount(), len(r.Rows))}
	return t
}
