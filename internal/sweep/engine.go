package sweep

import (
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

// Run executes the sweep: each cell's world (Grid.World) on a pool of
// min(Jobs, cells) workers (RunWorlds), and Run's goroutine folds each
// finished world's telemetry ring into its CellResult.
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
	worlds := make([]World, len(cells))
	for i, c := range cells {
		worlds[i] = o.Grid.World(c)
	}
	res := &Result{
		Cells:      make([]CellResult, len(cells)),
		Jobs:       jobs,
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	var scratch statsScratch
	RunWorlds(worlds, jobs, func(i int, w Outcome) {
		cr := CellResult{Cell: cells[i], Key: cells[i].Key()}
		if w.Err != nil {
			cr.Err = w.Err.Error()
		} else {
			cr.Stats = scratch.buildStats(w.Ring, w.Res)
		}
		res.Cells[i] = cr
		res.Steps++
		if o.OnCell != nil {
			o.OnCell(cr)
		}
	})

	res.WallSeconds = time.Since(start).Seconds()
	return res, nil
}

// RunWorlds runs worlds on a pool of min(jobs, len(worlds)) workers (jobs
// <= 0 means 1). Each worker takes the next world in index order and runs
// it straight through (World.Run). done is called on RunWorlds' goroutine
// once per world, in completion order, with the world's index and outcome:
// the caller folds the world there and drops its ring. RunWorlds returns
// once every world is folded and every worker has exited.
func RunWorlds(worlds []World, jobs int, done func(i int, o Outcome)) {
	type finished struct {
		i int
		o Outcome
	}
	width := min(max(jobs, 1), len(worlds))
	var next atomic.Int64 // next world to take
	var exited sync.WaitGroup
	// One slot per worker: a worker hands its world over and takes the next
	// one without waiting for the fold.
	ch := make(chan finished, width)
	for range width {
		exited.Add(1)
		go func() {
			defer exited.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(worlds) {
					return
				}
				ch <- finished{i, worlds[i].Run()}
			}
		}()
	}
	for range worlds {
		f := <-ch
		done(f.i, f.o)
	}
	exited.Wait()
}
