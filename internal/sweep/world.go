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

// worldOutcome is what a finished world delivers: the application result or
// the run error.
type worldOutcome struct {
	res apps.Result
	err error
}

// worldRun is one in-flight cell: its gate (the vclock.Stepper the engine
// schedules by), its telemetry ring, and the channel its application
// goroutine reports on when mpi.Run returns.
type worldRun struct {
	cell Cell
	gate *core.WorldGate
	ring *telemetry.Ring
	done chan worldOutcome
}

// startWorld launches one cell's world: a uniform cluster of cell.Ranks
// nodes with the grid's competing-process arrival (and, for crash cells,
// the CI crash fault), every rank parking at each BeginCycle on the
// returned gate. The application runs on its own goroutine tree; the
// caller advances it through gate.ProcessNextEvent and collects the
// outcome from done once HasPendingEvents reports false.
func startWorld(g *Grid, c Cell) *worldRun {
	spec := cluster.Uniform(c.Ranks).With(cluster.CycleEvent(g.CPNode, g.CPCycle, +1))
	if c.Fault == "crash" {
		spec.Faults = append(spec.Faults, fault.CrashAtCycle(g.CrashNode, g.CrashCycle))
	}
	if c.Resize == "grow" || c.Resize == "growskew" {
		// Timed arrivals: the world auto-grows into them at ResizeCycle; the
		// gate is extended by the runtime's grow path (WorldGate.Grow) before
		// the joiners spawn, so the controller accounts for them.
		for i := 0; i < g.ResizeAdd; i++ {
			spec = spec.WithArrival(1.0, g.ResizeCycle)
		}
	}
	if c.Resize == "growskew" {
		// A second competing process degrades node 0 just before the
		// arrivals, so the grow's diff schedule redistributes under skew.
		spec = spec.With(cluster.CycleEvent(0, g.ResizeCycle-2, +1))
	}
	gate := core.NewWorldGate(c.Ranks)
	cl := cluster.New(spec)
	cl.SetRankExitHook(gate.RankExit)
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
	base.Pacer = gate

	w := &worldRun{cell: c, gate: gate, ring: ring, done: make(chan worldOutcome, 1)}
	go func() {
		var out worldOutcome
		switch c.Scenario {
		case "jacobi":
			cfg := jacobi.DefaultConfig()
			cfg.Rows, cfg.Cols, cfg.Iters, cfg.CostPerElem = g.Rows, g.Cols, g.Iters, g.CostPerElem
			cfg.Overlap = c.Overlap
			cfg.Core = base
			out.res, out.err = jacobi.Run(cl, cfg)
		case "sor":
			cfg := sor.DefaultConfig()
			cfg.Rows, cfg.Cols, cfg.Iters, cfg.CostPerElem = g.Rows, g.Cols, g.Iters, g.CostPerElem
			cfg.Overlap = c.Overlap
			cfg.Core = base
			out.res, out.err = sor.Run(cl, cfg)
		case "cg":
			cfg := cg.DefaultConfig()
			// Keep the system proportional to the sweep workload; cg has no
			// overlapped variant, so Overlap is ignored.
			cfg.N = g.Rows * g.Cols / 8
			cfg.Iters = g.Iters
			cfg.Core = base
			out.res, out.err = cg.Run(cl, cfg)
		case "particles":
			cfg := particles.DefaultConfig()
			cfg.Rows, cfg.Cols, cfg.Steps = g.Rows, g.Cols, g.Iters
			cfg.Core = base
			out.res, out.err = particles.Run(cl, cfg)
		default:
			out.err = fmt.Errorf("sweep: unknown scenario %q", c.Scenario)
		}
		// Belt and braces: by the time Run returns every rank has exited
		// through the cluster hook, but an error path that never spawned
		// ranks must not wedge the gate. RankExit is idempotent.
		for r := 0; r < c.Ranks; r++ {
			gate.RankExit(r)
		}
		w.done <- out
	}()
	return w
}

// Trace runs cell c of the grid alone and returns its telemetry records in
// deterministic order — the record stream behind one row of a sweep report,
// identical to the one the sweep folded.
func (g *Grid) Trace(c Cell) ([]telemetry.Record, error) {
	w := startWorld(g, c)
	for w.gate.HasPendingEvents() {
		w.gate.ProcessNextEvent()
	}
	if out := <-w.done; out.err != nil {
		return nil, out.err
	}
	if d := w.ring.Dropped(); d > 0 {
		return nil, fmt.Errorf("sweep: cell %s: telemetry ring overflow: %d records dropped", c.Key(), d)
	}
	recs := w.ring.Records()
	telemetry.Sort(recs)
	return recs, nil
}
