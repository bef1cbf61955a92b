package main

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/apps"
	"repro/internal/apps/cg"
	"repro/internal/apps/jacobi"
	"repro/internal/apps/particles"
	"repro/internal/apps/sor"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// workload is one entry of the catalogue. Names are fixed: later issues
// quote them.
type workload struct {
	name string
	why  string
	// reps is the number of timed repetitions of one full-set run, the same
	// on every commit; rankCycles is the input size of one repetition.
	reps       int
	rankCycles int
	build      func(seed uint64) *plan
}

// outcome is the result of one world run (a sweep cell is a world run).
type outcome struct {
	name    string
	err     error
	elapsed float64 // virtual makespan, seconds
	sum     float64
	sumInt  int64
	// twin indexes the dedicated twin this run is compared with; exact says
	// the run's checksums must equal the twin's bit for bit.
	twin  int
	exact bool

	// Counters of the run; zero where the run's API does not expose them.
	msgs, bytes, collOps int64
	redists, lostRows    int
	refreshStallS        float64
	hiddenWireS          float64
	records              int
}

// tracer is what a traced repetition attaches: a telemetry ring on every
// world that takes one, the span log of the bench-owned stencil body, the
// per-call times of the bench-owned collective body and the sweep's cell
// timing. A nil tracer is an untraced repetition.
type tracer struct {
	ring  *telemetry.Ring
	spans *spanLog
	coll  *collTimes
	sweep *sweepTimes
}

func newTracer() *tracer {
	return &tracer{
		ring:  telemetry.NewRing(1 << 16),
		spans: newSpanLog(),
		coll:  &collTimes{us: map[string][]float64{}},
		sweep: &sweepTimes{},
	}
}

// sink returns the ring as a telemetry sink, or a nil interface when not
// tracing (a nil *Ring inside the interface would still be called).
func (tr *tracer) sink() telemetry.Sink {
	if tr == nil {
		return nil
	}
	return tr.ring
}

// plan is one workload's generated input.
type plan struct {
	in inputs
	// run executes one repetition: a fixed batch of world runs.
	run func(tr *tracer) []outcome
	// twins runs the dedicated twins: the same configs on cluster.Uniform
	// with no load events, faults, resizes or replication.
	twins func() []outcome
	// noAdapt runs the loaded worlds with Adapt off and returns the sum of
	// their makespans; nil where the workload has no adaptive run.
	noAdapt func() (float64, error)
}

var workloads = []workload{
	{
		name: "adapt_dense", reps: 400, rankCycles: 2 * 8 * 240, build: buildAdaptDense,
		why: "the paper's core scenario: dense stencils adapting to a competing process that comes and goes twice; kernel, halo and mpi p2p dominate",
	},
	{
		name: "adapt_sparse", reps: 120, rankCycles: 4*80 + 4*60, build: buildAdaptSparse,
		why: "the vector-of-lists sparse layout of section 4.1: matrix.Sparse appends, the allocator and GC dominate; nothing else stresses them",
	},
	{
		name: "collective_scale", reps: 60, rankCycles: (256 + 1024) * 40, build: buildCollectiveScale,
		why: "256- and 1024-rank collectives with no core and no apps: the collective engine and the Go scheduler dominate; core/matrix changes must not move it",
	},
	{
		name: "sweep_smoke", reps: 70, rankCycles: 96 * 6 * 30, build: buildSweepSmoke,
		why: "96 short gated worlds with crashes, replication, RMA commits and growth: set-up, core recovery/resize, GC and sweep hand-off latency dominate",
	},
	{
		name: "refresh_rma", reps: 350, rankCycles: 2 * 64 * 40, build: buildRefreshRMA,
		why: "64-rank per-cycle replica refresh, paired and one-sided: core refresh/epoch code and the mpi window layer beside two-sided sends",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// appOutcome converts an application result.
func appOutcome(name string, res apps.Result, err error, twin int, exact bool) outcome {
	o := outcome{name: name, err: err, twin: twin, exact: exact}
	if err != nil {
		return o
	}
	o.elapsed, o.sum, o.sumInt, o.redists = res.Elapsed, res.Checksum, res.CheckInt, res.Redists
	for _, st := range res.Stats {
		o.msgs += st.SentMsgs
		o.bytes += st.SentBytes
		o.refreshStallS += st.RefreshStall.Seconds()
	}
	return o
}

// jacobiOutcome runs jacobi on spec (its twin has index 0): through
// jacobi.Run, or, when tracing, through the bench-owned copy of its rank
// body that records spans.
func jacobiOutcome(name string, spec cluster.Spec, cfg jacobi.Config, tr *tracer) outcome {
	cfg.Core.Telemetry = tr.sink()
	if tr == nil {
		res, err := jacobi.Run(cluster.New(spec), cfg)
		return appOutcome(name, res, err, 0, true)
	}
	res, ops, err := runStencil(cluster.New(spec), cfg, tr.spans)
	o := appOutcome(name, res, err, 0, true)
	o.collOps = ops
	return o
}

// --- adapt_dense ------------------------------------------------------------

func buildAdaptDense(seed uint64) *plan {
	const ranks, rows, cols, iters, stay = 8, 512, 32, 240, 60
	g := newGen("adapt_dense", seed)
	// A competing process visits two nodes in turn, 60 cycles each: four
	// load changes, so each application redistributes at least twice.
	loaded := g.uniform(ranks).
		With(g.visit("jacobi+sor", g.nodeIn(1, ranks-1), g.cycleIn(20, 40), stay)...).
		With(g.visit("jacobi+sor", g.nodeIn(1, ranks-1), g.cycleIn(130, 150), stay)...)

	jc := jacobi.DefaultConfig()
	jc.Rows, jc.Cols, jc.Iters, jc.CostPerElem = rows, cols, iters, 50e3
	jc.Overlap = true
	jc.Core.Drop = core.DropNever
	sc := sor.DefaultConfig()
	sc.Rows, sc.Cols, sc.Iters, sc.CostPerElem = rows, cols, iters, 50e3
	sc.Core.Drop = core.DropNever

	pair := func(spec cluster.Spec, jc jacobi.Config, sc sor.Config, tr *tracer) []outcome {
		sc.Core.Telemetry = tr.sink()
		j := jacobiOutcome("jacobi", spec, jc, tr)
		res, err := sor.Run(cluster.New(spec), sc)
		return []outcome{j, appOutcome("sor", res, err, 1, true)}
	}
	return &plan{
		in:    g.in,
		run:   func(tr *tracer) []outcome { return pair(loaded, jc, sc, tr) },
		twins: func() []outcome { return pair(cluster.Uniform(ranks), jc, sc, nil) },
		noAdapt: func() (float64, error) {
			jc, sc := jc, sc
			jc.Core.Adapt, sc.Core.Adapt = false, false
			return sumElapsed(pair(loaded, jc, sc, nil))
		},
	}
}

func sumElapsed(outs []outcome) (float64, error) {
	total := 0.0
	for _, o := range outs {
		if o.err != nil {
			return 0, fmt.Errorf("%s: %w", o.name, o.err)
		}
		total += o.elapsed
	}
	return total, nil
}

// --- adapt_sparse -----------------------------------------------------------

func buildAdaptSparse(seed uint64) *plan {
	const ranks = 4
	g := newGen("adapt_sparse", seed)
	// The canonical Figure 4 cells: one competing process arrives around
	// the 10th cycle and stays.
	pSpec := g.uniform(ranks).With(g.visit("particles", g.nodeIn(1, 3), g.cycleIn(10, 12), 0)...)
	cSpec := g.uniform(ranks).With(g.visit("cg", g.nodeIn(0, ranks), g.cycleIn(10, 12), 0)...)

	pc := particles.DefaultConfig()
	pc.Rows, pc.Cols, pc.Steps, pc.CostPerParticle = 64, 64, 80, 30e3
	pc.ExtraAllP0 = 1
	cc := cg.DefaultConfig()
	cc.N, cc.Iters, cc.CostPerNnz = 600, 60, 20e3

	pair := func(pSpec, cSpec cluster.Spec, pc particles.Config, cc cg.Config, tr *tracer) []outcome {
		pc.Core.Telemetry, cc.Core.Telemetry = tr.sink(), tr.sink()
		pres, perr := particles.Run(cluster.New(pSpec), pc)
		cres, cerr := cg.Run(cluster.New(cSpec), cc)
		if cerr == nil && !(cres.Checksum < float64(cc.N)*1e-6) {
			// The bound cg's own tests hold the residual to.
			cerr = fmt.Errorf("cg residual %v did not converge", cres.Checksum)
		}
		return []outcome{
			appOutcome("particles", pres, perr, 0, true),
			appOutcome("cg", cres, cerr, 1, true),
		}
	}
	return &plan{
		in:  g.in,
		run: func(tr *tracer) []outcome { return pair(pSpec, cSpec, pc, cc, tr) },
		twins: func() []outcome {
			return pair(cluster.Uniform(ranks), cluster.Uniform(ranks), pc, cc, nil)
		},
		noAdapt: func() (float64, error) {
			pc, cc := pc, cc
			pc.Core.Adapt, cc.Core.Adapt = false, false
			return sumElapsed(pair(pSpec, cSpec, pc, cc, nil))
		},
	}
}

// --- collective_scale -------------------------------------------------------

var collSizes = []int{256, 1024}

func buildCollectiveScale(seed uint64) *plan {
	const cycles, vecLen, stay = 40, 64, 4
	g := newGen("collective_scale", seed)
	// A competing process passes through one node of each world for a few
	// cycles: the loaded rank's delayed wake-ups hold every collective back
	// (the section 2.2 poison), which is what the seed moves in virtual time.
	specs := make([]cluster.Spec, len(collSizes))
	for i, n := range collSizes {
		specs[i] = g.uniform(n).With(g.visit(fmt.Sprintf("n%d", n), g.nodeIn(0, n), g.cycleIn(5, 30), stay)...)
	}
	run := func(loaded bool, tr *tracer) []outcome {
		outs := make([]outcome, len(collSizes))
		for i, n := range collSizes {
			spec := cluster.Uniform(n)
			if loaded {
				spec = specs[i]
			}
			var tm *collTimes
			if tr != nil && n == collSizes[len(collSizes)-1] {
				tm = tr.coll // per-call times are reported for the largest world
			}
			r, err := runCollective(spec, cycles, vecLen, tm)
			outs[i] = outcome{
				name: fmt.Sprintf("n%d", n), err: err, elapsed: r.finishS, sum: r.checksum,
				twin: i, exact: true, msgs: r.msgs, bytes: r.bytes, collOps: r.ops,
			}
		}
		return outs
	}
	return &plan{
		in:    g.in,
		run:   func(tr *tracer) []outcome { return run(true, tr) },
		twins: func() []outcome { return run(false, nil) },
	}
}

// --- sweep_smoke ------------------------------------------------------------

// sweepTimes is the sweep scheduler as seen through Options.OnCell and
// Result: per-cell admission-to-finalize host time, host time per scheduler
// round, and the round count.
type sweepTimes struct {
	cellMs  []float64
	roundUs []float64
	steps   int
}

func buildSweepSmoke(seed uint64) *plan {
	g := newGen("sweep_smoke", seed)
	grid := sweep.Smoke()
	// The grid's competing process lands on any node of the smallest world
	// but the one the crash cells kill. Its cycle is fixed: arrivals at
	// cycles 6 to 8 on nodes 1 to 3 deadlock the crash cells (all ranks
	// parked; found while sizing this window, not this benchmark's to fix),
	// and each cycle later drops a whole redistribution from a quarter of
	// the cells, which would move allocations by 3% between seeds.
	grid.CPNode = []int{0, 1, 3}[g.nodeIn(0, 3)]
	grid.CPCycle = 11
	g.in.ClusterSeed = cluster.Uniform(1).Seed // the sweep builds its own clusters
	g.in.Timeline = append(g.in.Timeline, loadEvent{"every cell", grid.CPNode, grid.CPCycle, +1})
	cells := grid.Cells()

	// twinOf maps (scenario, ranks) to its twin's index; cellTwin does the
	// same per cell, so the timed repetition formats no keys.
	twinOf := map[string]int{}
	for _, s := range grid.Scenarios {
		for _, r := range grid.Ranks {
			twinOf[fmt.Sprintf("%s/%d", s, r)] = len(twinOf)
		}
	}
	cellTwin := make([]int, len(cells))
	for i, c := range cells {
		cellTwin[i] = twinOf[fmt.Sprintf("%s/%d", c.Scenario, c.Ranks)]
	}
	run := func(tr *tracer) []outcome {
		opts := sweep.Options{Grid: grid, Jobs: 2}
		var done []time.Time // finalize times by completion order
		var doneOf []time.Time
		start := time.Now()
		if tr != nil {
			doneOf = make([]time.Time, len(cells))
			opts.OnCell = func(cr sweep.CellResult) {
				now := time.Now()
				done = append(done, now)
				doneOf[cr.Cell.Index] = now
			}
		}
		res, err := sweep.Run(opts)
		if err != nil {
			return []outcome{{name: "sweep", err: err}}
		}
		outs := make([]outcome, 0, len(cells)+1)
		for _, cr := range res.Cells {
			o := outcome{
				name: cr.Key, elapsed: cr.Stats.Elapsed, sum: cr.Stats.Checksum, sumInt: cr.Stats.CheckInt,
				twin: cellTwin[cr.Cell.Index],
				// Fault-free dense cells end on the dedicated checksum,
				// whatever the drop, commit mode or growth they went through.
				exact:    cr.Cell.Fault == "none",
				redists:  cr.Stats.Redists,
				lostRows: cr.Stats.LostRows, hiddenWireS: cr.Stats.HiddenWireS, records: cr.Stats.Cycles,
			}
			if cr.Err != "" {
				o.err = errors.New(cr.Err)
			}
			outs = append(outs, o)
		}
		if len(res.Cells) != len(cells) {
			outs = append(outs, outcome{name: "sweep", err: fmt.Errorf("sweep returned %d of %d cells", len(res.Cells), len(cells))})
		}
		if tr != nil {
			// The engine admits cells in index order into 8 slots (its
			// 2*Jobs floor): the first 8 at the start, each later one when
			// an earlier cell finalizes.
			const slots = 8
			for i := range cells {
				admitted := start
				if i >= slots && i-slots < len(done) {
					admitted = done[i-slots]
				}
				tr.sweep.cellMs = append(tr.sweep.cellMs, float64(doneOf[i].Sub(admitted))/1e6)
			}
			tr.sweep.roundUs = append(tr.sweep.roundUs, res.WallSeconds*1e6/float64(res.Steps))
			tr.sweep.steps = res.Steps
		}
		return outs
	}
	twins := func() []outcome {
		outs := make([]outcome, len(twinOf))
		for _, s := range grid.Scenarios {
			for _, r := range grid.Ranks {
				var res apps.Result
				var err error
				switch s {
				case "jacobi":
					cfg := jacobi.DefaultConfig()
					cfg.Rows, cfg.Cols, cfg.Iters, cfg.CostPerElem = grid.Rows, grid.Cols, grid.Iters, grid.CostPerElem
					cfg.Overlap = true
					res, err = jacobi.Run(cluster.New(cluster.Uniform(r)), cfg)
				case "sor":
					cfg := sor.DefaultConfig()
					cfg.Rows, cfg.Cols, cfg.Iters, cfg.CostPerElem = grid.Rows, grid.Cols, grid.Iters, grid.CostPerElem
					cfg.Overlap = true
					res, err = sor.Run(cluster.New(cluster.Uniform(r)), cfg)
				}
				key := fmt.Sprintf("%s/%d", s, r)
				outs[twinOf[key]] = appOutcome(key, res, err, 0, false)
			}
		}
		return outs
	}
	return &plan{in: g.in, run: run, twins: twins}
}

// --- refresh_rma ------------------------------------------------------------

func buildRefreshRMA(seed uint64) *plan {
	const ranks = 64
	g := newGen("refresh_rma", seed)
	// exp.RunRMA's replica-refresh study, except that one interior node
	// carries a competing process from the start, so each run also
	// redistributes once under replication. The seed picks the node: a
	// process that came and went instead redistributed on some seeds only,
	// which moved allocations by a quarter between them.
	loaded := g.uniform(ranks).With(g.visit("paired+rma", g.nodeIn(1, ranks-1), 0, 0)...)

	cfg := jacobi.DefaultConfig()
	cfg.Rows, cfg.Cols, cfg.Iters, cfg.CostPerElem = 1024, 64, 40, 40e3
	cfg.Core.Drop = core.DropNever
	rep := cfg
	rep.Core.Replicate = true
	rep.Core.ReplicaEvery = 1

	return &plan{
		in: g.in,
		run: func(tr *tracer) []outcome {
			rma := rep
			rma.Core.ReplicaRMA = true // default sync: pairwise PSCW epochs
			// Both equal the twin's checksum, hence each other's.
			return []outcome{jacobiOutcome("paired", loaded, rep, tr), jacobiOutcome("rma", loaded, rma, tr)}
		},
		twins: func() []outcome { return []outcome{jacobiOutcome("plain", cluster.Uniform(ranks), cfg, nil)} },
	}
}
