package sweep

import (
	"cmp"
	"fmt"
	"math"

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

// World is one application run on its own cluster, as a flat value: a sweep
// cell is one (Grid.World), and so is every run of a paper study in
// internal/exp. Run is the one place an application is started.
type World struct {
	// Spec is the cluster: its nodes and their memory, the seed, the
	// network, the competing-process timeline, the faults and the arrivals.
	Spec cluster.Spec
	// App names the application: "jacobi", "sor", "cg" or "particles".
	App string

	// The application's sizes; a zero size keeps the application's default.
	Rows, Cols int     // grid (jacobi, sor, particles)
	Iters      int     // phase cycles (particles: steps)
	Cost       float64 // modelled cost, ns, per element (jacobi, sor), nonzero (cg) or particle
	N          int     // cg's system size
	// Overlap selects the overlapped halo exchange (jacobi, sor).
	Overlap bool
	// ResizeTo, when positive, resizes the active set to that many ranks at
	// cycle ResizeAt (jacobi, sor).
	ResizeTo, ResizeAt int
	// ExtraTopP0 and ExtraAllP0 add particles per cell on P0's rows
	// (particles; see particles.Config).
	ExtraTopP0, ExtraAllP0 int

	// Core configures the runtime, taken as given: the zero Config is a
	// run without adaptation.
	Core core.Config
	// Trace attaches a telemetry ring as Core.Telemetry. The ring is
	// unbounded: it grows as records arrive and keeps the whole stream.
	Trace bool
}

// Outcome is a finished world: what its application returned, its telemetry
// ring (nil without Trace), and the error that ended the run.
type Outcome struct {
	Res  apps.Result
	Ring *telemetry.Ring
	Err  error
}

// Run builds the cluster (an invalid spec is an error), attaches the ring
// and runs the application to completion on the calling goroutine.
func (w *World) Run() Outcome {
	cl, err := cluster.Build(w.Spec)
	if err != nil {
		return Outcome{Err: err}
	}
	var o Outcome
	c := w.Core
	if w.Trace {
		o.Ring = telemetry.NewRing(math.MaxInt)
		c.Telemetry = o.Ring
	}
	switch w.App {
	case "jacobi":
		cfg := jacobi.DefaultConfig()
		cfg.Rows, cfg.Cols, cfg.Iters = cmp.Or(w.Rows, cfg.Rows), cmp.Or(w.Cols, cfg.Cols), cmp.Or(w.Iters, cfg.Iters)
		cfg.CostPerElem = cmp.Or(w.Cost, cfg.CostPerElem)
		cfg.Overlap, cfg.ResizeTo, cfg.ResizeAt, cfg.Core = w.Overlap, w.ResizeTo, w.ResizeAt, c
		o.Res, o.Err = jacobi.Run(cl, cfg)
	case "sor":
		cfg := sor.DefaultConfig()
		cfg.Rows, cfg.Cols, cfg.Iters = cmp.Or(w.Rows, cfg.Rows), cmp.Or(w.Cols, cfg.Cols), cmp.Or(w.Iters, cfg.Iters)
		cfg.CostPerElem = cmp.Or(w.Cost, cfg.CostPerElem)
		cfg.Overlap, cfg.ResizeTo, cfg.ResizeAt, cfg.Core = w.Overlap, w.ResizeTo, w.ResizeAt, c
		o.Res, o.Err = sor.Run(cl, cfg)
	case "cg":
		cfg := cg.DefaultConfig()
		cfg.N, cfg.Iters, cfg.CostPerNnz = cmp.Or(w.N, cfg.N), cmp.Or(w.Iters, cfg.Iters), cmp.Or(w.Cost, cfg.CostPerNnz)
		cfg.Core = c
		o.Res, o.Err = cg.Run(cl, cfg)
	case "particles":
		cfg := particles.DefaultConfig()
		cfg.Rows, cfg.Cols, cfg.Steps = cmp.Or(w.Rows, cfg.Rows), cmp.Or(w.Cols, cfg.Cols), cmp.Or(w.Iters, cfg.Steps)
		cfg.CostPerParticle = cmp.Or(w.Cost, cfg.CostPerParticle)
		cfg.ExtraTopP0, cfg.ExtraAllP0, cfg.Core = w.ExtraTopP0, w.ExtraAllP0, c
		o.Res, o.Err = particles.Run(cl, cfg)
	default:
		o.Err = fmt.Errorf("sweep: unknown app %q", w.App)
	}
	return o
}

// World is cell c's world: a uniform cluster of c.Ranks nodes with the
// grid's competing-process arrival (and, for crash cells, the CI crash
// fault) running c.Scenario at the grid's workload.
func (g *Grid) World(c Cell) World {
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
		// arrivals, so the grow redistributes under skew.
		spec = spec.With(cluster.CycleEvent(0, g.ResizeCycle-2, +1))
	}
	w := World{Spec: spec, App: c.Scenario, Rows: g.Rows, Cols: g.Cols, Iters: g.Iters,
		Core: core.DefaultConfig(), Trace: true}
	w.Core.Drop = core.DropAlways
	w.Core.GracePeriod = c.GP
	w.Core.Replicate = c.Replicate
	w.Core.ReplicaRMA = c.RMA
	switch c.Scenario {
	case "jacobi", "sor":
		w.Cost, w.Overlap = g.CostPerElem, c.Overlap
	case "cg":
		// Keep the system proportional to the sweep workload; cg has no
		// overlapped variant, and it and particles keep their own costs.
		w.N = g.Rows * g.Cols / 8
	}
	return w
}

// Trace runs cell c of the grid alone and returns its telemetry records in
// deterministic order — the record stream behind one row of a sweep report,
// identical to the one the sweep folded.
func (g *Grid) Trace(c Cell) ([]telemetry.Record, error) {
	w := g.World(c)
	o := w.Run()
	if o.Err != nil {
		return nil, fmt.Errorf("sweep: cell %s: %w", c.Key(), o.Err)
	}
	recs := o.Ring.Records()
	telemetry.Sort(recs)
	return recs, nil
}
