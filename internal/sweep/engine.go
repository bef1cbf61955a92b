package sweep

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Options configures a sweep run.
type Options struct {
	Grid Grid
	// Jobs is the worker-pool width: how many worlds run at once. <= 0
	// means 1. Jobs affects only wall-clock time; the report is
	// byte-identical for any value.
	Jobs int
	// OnCell, when non-nil, is called from Run's goroutine each time a
	// cell finishes — in completion order, which depends on Jobs and on
	// how long each world takes. Streaming consumers emit rows live from
	// it and re-sort by Cell.Index at the end; the cell contents themselves
	// are deterministic, only the callback order is not.
	OnCell func(CellResult)
}

// CellResult is one cell's outcome.
type CellResult struct {
	Cell  Cell      `json:"-"`
	Key   string    `json:"cell"`
	Err   string    `json:"error,omitempty"`
	Stats CellStats `json:"stats"`
}

// Result is a completed sweep: per-cell results in enumeration (Index)
// order plus wall-clock facts that the report writers keep segregated
// from the deterministic lines.
type Result struct {
	Cells []CellResult

	// Wall-clock facts; never mixed into cmp-able report lines.
	WallSeconds float64
	Jobs        int
	GoMaxProcs  int
	Steps       int // worlds run
}

// Run executes the sweep on a pool of min(Jobs, cells) workers. Each worker
// takes the next cell in index order and runs its world to completion,
// exactly as the application's own Run drives it; Run's goroutine folds
// each finished world's telemetry ring into its CellResult.
//
// The cells share no node, message or clock, and each world is
// deterministic in virtual time on its own, so neither Jobs, nor
// GOMAXPROCS, nor the order the worlds finish in can change any cell's
// records — only the wall-clock lines differ between runs.
func Run(o Options) (*Result, error) {
	if err := o.Grid.Validate(); err != nil {
		return nil, err
	}
	jobs := max(o.Jobs, 1)

	start := time.Now()
	cells := o.Grid.Cells()
	res := &Result{
		Cells:      make([]CellResult, len(cells)),
		Jobs:       jobs,
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}

	width := min(jobs, len(cells))
	var next atomic.Int64 // next cell to take
	var exited sync.WaitGroup
	// One slot per worker: a worker hands its world over and takes the next
	// cell without waiting for the fold.
	finished := make(chan *worldRun, width)
	for range width {
		exited.Add(1)
		go func() {
			defer exited.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cells) {
					return
				}
				finished <- runWorld(&o.Grid, cells[i])
			}
		}()
	}

	var scratch statsScratch
	for range cells {
		w := <-finished
		cr := CellResult{Cell: w.cell, Key: w.cell.Key()}
		switch dropped := w.ring.Dropped(); {
		case w.err != nil:
			cr.Err = w.err.Error()
		case dropped > 0:
			// Percentiles of a truncated stream would look like a result.
			cr.Err = fmt.Sprintf("telemetry ring overflow: %d records dropped, raise RingCap", dropped)
		default:
			cr.Stats = scratch.buildStats(w.ring, w.res)
		}
		res.Cells[w.cell.Index] = cr
		res.Steps++
		if o.OnCell != nil {
			o.OnCell(cr)
		}
	}
	exited.Wait()

	res.WallSeconds = time.Since(start).Seconds()
	return res, nil
}
