package sweep

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/vclock"
)

// Options configures a sweep run.
type Options struct {
	Grid Grid
	// Jobs is the worker-pool width: how many worlds step concurrently in
	// one scheduler round. <= 0 means 1. Jobs affects only wall-clock
	// time; the report is byte-identical for any value.
	Jobs int
	// OnCell, when non-nil, is called from the scheduler goroutine each
	// time a cell finalizes — in completion order, which depends on Jobs
	// and admission interleaving. Streaming consumers emit rows live from
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
	Steps       int // scheduler rounds executed
}

// entry is one active world in the scheduler's priority queue, ordered by
// (next event's virtual time, cell index) — the cell index tiebreak makes
// the pop order fully deterministic even between worlds whose clocks
// coincide.
type entry struct {
	t vclock.Time
	w *worldRun
}

// worldQueue holds the active worlds latest-first, so the earliest pops off
// the end. It never holds more than the admission bound, which is small.
type worldQueue []entry

func (q *worldQueue) push(e entry) {
	i := sort.Search(len(*q), func(i int) bool {
		x := (*q)[i]
		return x.t < e.t || x.t == e.t && x.w.cell.Index < e.w.cell.Index
	})
	*q = slices.Insert(*q, i, e)
}

func (q *worldQueue) pop() *worldRun {
	last := len(*q) - 1
	w := (*q)[last].w
	*q = slices.Delete(*q, last, last+1) // zeroes the vacated slot
	return w
}

// Run executes the sweep: it admits worlds from the grid's cell list into
// a bounded active set, keeps the active worlds in a priority queue by the
// virtual time of their next event, and each round pops the globally
// earliest (up to Jobs) worlds and steps them one phase-cycle wave each,
// concurrently: the scheduler goroutine steps one world itself and a pool
// of Jobs-1 workers, standing for the whole sweep, steps the rest. Worlds
// whose gates report no pending events are finalized: their telemetry ring
// is folded into per-cell statistics and the slot is handed to the next
// queued cell.
//
// The report is deterministic: each world is deterministic in virtual time
// on its own and the gate's pacing is pure wall-clock control, so neither
// Jobs, nor GOMAXPROCS, nor admission interleaving can change any cell's
// records — only the wall-clock lines differ between runs.
func Run(o Options) (*Result, error) {
	if err := o.Grid.Validate(); err != nil {
		return nil, err
	}
	jobs := o.Jobs
	if jobs <= 0 {
		jobs = 1
	}
	// Bounded admission: enough live worlds to keep the pool busy without
	// paying goroutine residency for the whole grid at once.
	maxActive := 2 * jobs
	if maxActive < 8 {
		maxActive = 8
	}

	start := time.Now()
	cells := o.Grid.Cells()
	res := &Result{
		Cells:      make([]CellResult, len(cells)),
		Jobs:       jobs,
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}

	// The pool. A round holds at most width worlds, so its hand-offs fit
	// the channel's buffer and never block on a busy worker.
	width := min(jobs, len(cells))
	var round, exited sync.WaitGroup
	work := make(chan *worldRun, width-1)
	for i := 1; i < width; i++ {
		exited.Add(1)
		go func() {
			defer exited.Done()
			for w := range work {
				w.gate.ProcessNextEvent()
				round.Done()
			}
		}()
	}
	defer exited.Wait() // runs after the close: deferred calls run last-first
	defer close(work)

	var h worldQueue
	var scratch statsScratch
	active := 0
	next := 0 // next cell to admit

	finalize := func(w *worldRun) {
		out := <-w.done
		cr := CellResult{Cell: w.cell, Key: w.cell.Key()}
		switch dropped := w.ring.Dropped(); {
		case out.err != nil:
			cr.Err = out.err.Error()
		case dropped > 0:
			// Percentiles of a truncated stream would look like a result.
			cr.Err = fmt.Sprintf("telemetry ring overflow: %d records dropped, raise RingCap", dropped)
		default:
			cr.Stats = scratch.buildStats(w.ring, out.res)
		}
		res.Cells[w.cell.Index] = cr
		active--
		if o.OnCell != nil {
			o.OnCell(cr)
		}
	}
	// classify routes a quiescent world: back into the queue if it will run
	// another cycle, into finalize if it has completed.
	classify := func(w *worldRun) {
		if w.gate.HasPendingEvents() {
			h.push(entry{t: w.gate.PeekNextEventTime(), w: w})
		} else {
			finalize(w)
		}
	}

	batch := make([]*worldRun, 0, width)
	for next < len(cells) || len(h) > 0 {
		for next < len(cells) && active < maxActive {
			w := startWorld(&o.Grid, cells[next])
			next++
			active++
			classify(w)
		}
		if len(h) == 0 {
			continue
		}
		batch = batch[:0]
		for len(batch) < jobs && len(h) > 0 {
			batch = append(batch, h.pop())
		}
		round.Add(len(batch) - 1)
		for _, w := range batch[1:] {
			work <- w
		}
		batch[0].gate.ProcessNextEvent()
		round.Wait()
		res.Steps++
		for _, w := range batch {
			classify(w)
		}
	}

	res.WallSeconds = time.Since(start).Seconds()
	return res, nil
}
