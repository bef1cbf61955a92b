package main

// metricDef is one catalogue entry. BENCHMARK.json repeats name, unit,
// direction and bound; bench_test.go holds the two together.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the relative worsening that counts as a regression. For the
	// virt_* metrics it only covers what the seed moves: two sets of one
	// seed must agree exactly (exact), and compare enforces that.
	bound float64
	exact bool
}

// endToEnd is what a user of the reproduction sees, measured with tracing
// off. fail_frac is part of every result too, but not listed here: it is 0
// on every workload, so it is reported as failed/attempted and compared as
// "any increase". endToEndOf holds each one's estimator.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25, false},
	{"rank_cycles_per_s", "1/s", "higher", 0.25, false},
	{"allocs_per_op", "count", "lower", 0.04, false},
	{"alloc_mb_per_op", "MB", "lower", 0.04, false},
	{"virt_makespan_s", "s", "lower", 0.05, true},
	{"virt_slowdown", "ratio", "lower", 0.05, true},
	{"setup_s", "s", "lower", 0.25, false},
}

// layerDef is one per-layer metric, reported by traced runs only. exact
// marks counts that a simulator-only change must leave identical.
type layerDef struct {
	name   string
	unit   string
	better string
	exact  bool
}

// perLayer lists every per-layer metric, in report order. Each is emitted
// for every workload; it reads 0 where the workload never runs the layer
// (the README's table says which).
var perLayer = buildPerLayer()

func buildPerLayer() []layerDef {
	var d []layerDef
	add := func(unit, better string, exact bool, names ...string) {
		for _, n := range names {
			d = append(d, layerDef{n, unit, better, exact})
		}
	}
	// Spans around the bench-owned stencil body (adapt_dense, refresh_rma).
	for _, s := range []string{spanCycle, spanCommit, spanBegin, spanBeginRedist, spanEnd, spanKernel, spanHalo} {
		add("us", "lower", false, s+"_us")
	}
	// Spans in the bench-owned collective body (collective_scale).
	for _, k := range collKinds {
		add("us", "lower", false, "mpi.coll."+k+"_n1024_us")
	}
	add("ms", "lower", false, "mpi.world_spawn_n1024_ms")
	// The sweep scheduler (sweep_smoke).
	add("ms", "lower", false, "sweep.cell_ms")
	add("us", "lower", false, "sweep.round_us")
	add("count", "lower", true, "sweep.steps")
	// Probes (identical on every workload).
	for _, p := range probes {
		add("ns", "lower", false, p.name)
	}
	// Counts that explain a move in the virt_* metrics.
	add("count", "lower", true, "mpi.msgs", "mpi.bytes", "mpi.coll.ops", "core.redists", "core.redist_bytes", "core.lost_rows")
	add("s", "lower", true, "core.refresh_stall_virt_s")
	add("%", "higher", true, "core.adapt_gain_pct")
	add("s", "lower", true, "virt.compute_s", "virt.comm_s", "virt.wait_s")
	add("s", "higher", true, "virt.hidden_wire_s")
	add("count", "lower", true, "telemetry.records")
	// The process (noisy).
	add("s", "lower", false, "run.wall_p50_s", "run.wall_p90_s", "run.wall_procs2_s")
	add("ratio", "lower", false, "run.wall_iqr_frac", "run.trace_overhead_frac")
	add("s", "lower", false, "go.cpu_s")
	add("count", "lower", false, "go.gc_cycles")
	add("ms", "lower", false, "go.gc_pause_ms")
	add("MB", "lower", false, "go.peak_sys_mb")
	// CPU share by layer.
	for _, k := range cpuShareKeys {
		add("ratio", "lower", false, "cpu_share."+k)
	}
	return d
}
