package sweep

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/apps/cg"
	"repro/internal/apps/jacobi"
	"repro/internal/apps/particles"
	"repro/internal/apps/sor"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/telemetry"
)

// worldRun is one finished cell: its telemetry ring and what its world
// returned, the application result or the run error.
type worldRun struct {
	cell Cell
	ring *telemetry.Ring
	res  apps.Result
	err  error
}

// runWorld runs one cell's world to completion on the calling goroutine: a
// uniform cluster of cell.Ranks nodes with the grid's competing-process
// arrival (and, for crash cells, the CI crash fault), exactly as the
// application's own Run drives it.
func runWorld(g *Grid, c Cell) *worldRun {
	spec := cluster.Uniform(c.Ranks).With(cluster.CycleEvent(g.CPNode, g.CPCycle, +1))
	if c.Fault == "crash" {
		spec.Faults = append(spec.Faults, fault.CrashAtCycle(g.CrashNode, g.CrashCycle))
	}
	if c.Resize == "grow" || c.Resize == "growskew" {
		// Timed arrivals: the world auto-grows into them at ResizeCycle.
		for i := 0; i < g.ResizeAdd; i++ {
			spec = spec.WithArrival(1.0, g.ResizeCycle)
		}
	}
	if c.Resize == "growskew" {
		// A second competing process degrades node 0 just before the
		// arrivals, so the grow's diff schedule redistributes under skew.
		spec = spec.With(cluster.CycleEvent(0, g.ResizeCycle-2, +1))
	}
	cl := cluster.New(spec)
	ring := telemetry.NewRing(g.RingCap)

	base := core.DefaultConfig()
	base.Drop = core.DropAlways
	base.GracePeriod = c.GP
	base.Replicate = c.Replicate
	if c.RMA {
		base.RedistMode = core.RedistRMA
		base.ReplicaRMA = true
	}
	base.Telemetry = ring

	w := &worldRun{cell: c, ring: ring}
	switch c.Scenario {
	case "jacobi":
		cfg := jacobi.DefaultConfig()
		cfg.Rows, cfg.Cols, cfg.Iters, cfg.CostPerElem = g.Rows, g.Cols, g.Iters, g.CostPerElem
		cfg.Overlap = c.Overlap
		cfg.Core = base
		w.res, w.err = jacobi.Run(cl, cfg)
	case "sor":
		cfg := sor.DefaultConfig()
		cfg.Rows, cfg.Cols, cfg.Iters, cfg.CostPerElem = g.Rows, g.Cols, g.Iters, g.CostPerElem
		cfg.Overlap = c.Overlap
		cfg.Core = base
		w.res, w.err = sor.Run(cl, cfg)
	case "cg":
		cfg := cg.DefaultConfig()
		// Keep the system proportional to the sweep workload; cg has no
		// overlapped variant, so Overlap is ignored.
		cfg.N = g.Rows * g.Cols / 8
		cfg.Iters = g.Iters
		cfg.Core = base
		w.res, w.err = cg.Run(cl, cfg)
	case "particles":
		cfg := particles.DefaultConfig()
		cfg.Rows, cfg.Cols, cfg.Steps = g.Rows, g.Cols, g.Iters
		cfg.Core = base
		w.res, w.err = particles.Run(cl, cfg)
	default:
		w.err = fmt.Errorf("sweep: unknown scenario %q", c.Scenario)
	}
	return w
}

// Trace runs cell c of the grid alone and returns its telemetry records in
// deterministic order — the record stream behind one row of a sweep report,
// identical to the one the sweep folded.
func (g *Grid) Trace(c Cell) ([]telemetry.Record, error) {
	w := runWorld(g, c)
	if w.err != nil {
		return nil, w.err
	}
	if d := w.ring.Dropped(); d > 0 {
		return nil, fmt.Errorf("sweep: cell %s: telemetry ring overflow: %d records dropped", c.Key(), d)
	}
	recs := w.ring.Records()
	telemetry.Sort(recs)
	return recs, nil
}
