package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"repro/internal/telemetry"
)

// runOpts says how one workload is measured in this process.
type runOpts struct {
	seed uint64
	// reps fixes the number of timed repetitions; 0 measures for seconds.
	reps    int
	seconds float64
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	// traced alternates an untraced and a traced repetition, so the tracing
	// overhead is measured against repetitions that saw the same machine.
	traced bool
	// probeScale divides the probes' batch sizes (the self-test runs small).
	probeScale int
	// dir, when set, receives the span JSONL and the CPU profile.
	dir string
}

// sample is one timed repetition.
type sample struct {
	WallS  float64 `json:"wall_s"`
	Allocs uint64  `json:"allocs"`
	Bytes  uint64  `json:"alloc_bytes"`
}

// runResult is one workload measured in one process. Full-set runs merge
// the results of several child processes.
type runResult struct {
	Workload      string             `json:"workload"`
	Inputs        inputs             `json:"inputs"`
	Attempted     int                `json:"attempted"` // world runs checked
	Failed        int                `json:"failed"`
	Failures      []string           `json:"failures,omitempty"` // the first few, for the reader
	SetupS        []float64          `json:"setup_s"`
	VirtMakespanS float64            `json:"virt_makespan_s"`
	VirtTwinS     float64            `json:"virt_twin_s"`
	Samples       []sample           `json:"samples"`
	TracedWallS   []float64          `json:"traced_wall_s,omitempty"`
	Layer         map[string]float64 `json:"layer,omitempty"`
}

// verify counts the world runs of one repetition that failed: an error, a
// checksum that is not its dedicated twin's, or — given the reference
// repetition — a checksum or virtual makespan that differs from it.
func verify(outs, twins, ref []outcome) (failed int, why []string) {
	for i, o := range outs {
		var reason string
		switch {
		case o.err != nil:
			reason = o.err.Error()
		case o.exact && (o.sum != twins[o.twin].sum || o.sumInt != twins[o.twin].sumInt):
			reason = fmt.Sprintf("checksum %v/%d is not the dedicated twin's %v/%d", o.sum, o.sumInt, twins[o.twin].sum, twins[o.twin].sumInt)
		case ref != nil && (i >= len(ref) || o.sum != ref[i].sum || o.sumInt != ref[i].sumInt || o.elapsed != ref[i].elapsed):
			reason = "not deterministic: differs from the first repetition"
		}
		if reason != "" {
			failed++
			why = append(why, o.name+": "+reason)
		}
	}
	return failed, why
}

func (r *runResult) check(outs, twins, ref []outcome) {
	failed, why := verify(outs, twins, ref)
	r.Attempted += len(outs)
	r.Failed += failed
	for _, w := range why {
		if len(r.Failures) < 8 {
			r.Failures = append(r.Failures, w)
		}
	}
}

// measure sets the workload up, runs its timed repetitions and, when
// traced, the per-layer pass.
func measure(w workload, o runOpts) (*runResult, error) {
	res := &runResult{Workload: w.name}
	var p *plan
	var twins, first []outcome
	var adaptGain float64
	for i := 0; i < o.setups || i == 0; i++ {
		// Set-up is everything before the first timed repetition: inputs
		// from the seed, the dedicated twins, and a verification repetition
		// that doubles as the warm-up.
		start := time.Now()
		p = w.build(o.seed)
		twins = p.twins()
		for _, t := range twins {
			if t.err != nil {
				return nil, fmt.Errorf("%s: dedicated twin %s: %w", w.name, t.name, t.err)
			}
		}
		first = p.run(nil)
		res.check(first, twins, nil)
		res.SetupS = append(res.SetupS, time.Since(start).Seconds())
	}
	res.Inputs = p.in
	for _, out := range first {
		if out.err == nil {
			res.VirtMakespanS += out.elapsed
			res.VirtTwinS += twins[out.twin].elapsed
		}
	}

	var tr *tracer
	var firstSpans []span
	var stats spanStats
	var lastTraced []outcome
	var profile bytes.Buffer
	var before runtime.MemStats
	var cpuBefore float64
	if o.traced {
		res.check(p.run(newTracer()), twins, first) // warm the traced path
		tr = newTracer()
		if p.noAdapt != nil {
			plain, err := p.noAdapt()
			if err != nil {
				return nil, fmt.Errorf("%s: run without adaptation: %w", w.name, err)
			}
			adaptGain = 100 * (plain - res.VirtMakespanS) / plain
		}
		runtime.ReadMemStats(&before)
		cpuBefore = cpuSeconds()
		if err := pprof.StartCPUProfile(&profile); err != nil {
			return nil, err
		}
	}

	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	minReps := 1
	if o.traced {
		minReps = 2 // one of each kind
	}
	var m0, m1 runtime.MemStats
	for i := 0; ; i++ {
		if o.reps > 0 {
			if len(res.Samples) == o.reps && (!o.traced || len(res.TracedWallS) == o.reps) {
				break
			}
		} else if i >= minReps && !time.Now().Before(deadline) {
			break
		}
		var rep *tracer
		if o.traced && i%2 == 1 {
			rep = tr
			tr.ring = telemetry.NewRing(1 << 16)
		}
		runtime.ReadMemStats(&m0)
		start := time.Now()
		outs := p.run(rep)
		wall := time.Since(start).Seconds()
		runtime.ReadMemStats(&m1)
		res.check(outs, twins, first)
		if rep == nil {
			res.Samples = append(res.Samples, sample{wall, m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc})
			continue
		}
		res.TracedWallS = append(res.TracedWallS, wall)
		lastTraced = outs
		spans := tr.spans.take()
		stats.add(spans)
		if firstSpans == nil {
			firstSpans = spans
		}
	}
	if !o.traced {
		return res, nil
	}

	pprof.StopCPUProfile()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	cpu := cpuSeconds() - cpuBefore

	// The same repetitions on two Ps, for the record: up to ten, untraced.
	var walls2 []float64
	runtime.GOMAXPROCS(2)
	for i := 0; i < len(res.Samples) && i < 10; i++ {
		start := time.Now()
		outs := p.run(nil)
		walls2 = append(walls2, time.Since(start).Seconds())
		res.check(outs, twins, first)
	}
	runtime.GOMAXPROCS(procs)
	shares, err := cpuShares(profile.Bytes())
	if err != nil {
		return nil, fmt.Errorf("%s: CPU profile: %w", w.name, err)
	}
	if o.dir != "" {
		if err := os.WriteFile(filepath.Join(o.dir, w.name+".pprof"), profile.Bytes(), 0o644); err != nil {
			return nil, err
		}
		if len(firstSpans) > 0 {
			if err := writeSpans(filepath.Join(o.dir, w.name+".spans.jsonl"), firstSpans); err != nil {
				return nil, err
			}
		}
	}

	l := map[string]float64{}
	for name := range stats.us {
		l[name+"_us"] = stats.p50(name)
	}
	for _, k := range collKinds {
		l["mpi.coll."+k+"_n1024_us"] = quantile(tr.coll.us[k], 0.5)
	}
	l["mpi.world_spawn_n1024_ms"] = quantile(tr.coll.spawnMs, 0.5)
	l["sweep.cell_ms"] = quantile(tr.sweep.cellMs, 0.5)
	l["sweep.round_us"] = quantile(tr.sweep.roundUs, 0.5)
	l["sweep.steps"] = float64(tr.sweep.steps)
	for name, ns := range runProbes(o.probeScale) {
		l[name] = ns
	}
	for _, out := range lastTraced {
		l["mpi.msgs"] += float64(out.msgs)
		l["mpi.bytes"] += float64(out.bytes)
		l["mpi.coll.ops"] += float64(out.collOps)
		l["core.redists"] += float64(out.redists)
		l["core.lost_rows"] += float64(out.lostRows)
		l["core.refresh_stall_virt_s"] += out.refreshStallS
		l["virt.hidden_wire_s"] += out.hiddenWireS
		l["telemetry.records"] += float64(out.records)
	}
	// Summarize adds each node's records in that node's own emission order,
	// so the float sums do not depend on how the ranks interleaved.
	sum := telemetry.Summarize(tr.ring.Records())
	for _, n := range sum.Nodes {
		l["virt.compute_s"] += n.ComputeS
		l["virt.comm_s"] += n.CommS
		l["virt.wait_s"] += n.WaitS
		l["virt.hidden_wire_s"] += n.HiddenWireS
	}
	l["core.redist_bytes"] = float64(sum.BytesSent)
	l["telemetry.records"] += float64(tr.ring.Len() + tr.ring.Dropped())
	l["core.adapt_gain_pct"] = adaptGain

	walls := wallsOf(res.Samples)
	l["run.wall_p50_s"] = quantile(walls, 0.5)
	l["run.wall_p90_s"] = quantile(walls, 0.9)
	l["run.wall_iqr_frac"] = (quantile(walls, 0.75) - quantile(walls, 0.25)) / quantile(walls, 0.5)
	l["run.wall_procs2_s"] = quantile(walls2, 0.1)
	l["run.trace_overhead_frac"] = (quantile(res.TracedWallS, 0.1) - quantile(walls, 0.1)) / quantile(walls, 0.1)
	l["go.cpu_s"] = cpu
	l["go.gc_cycles"] = float64(after.NumGC - before.NumGC)
	l["go.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	l["go.peak_sys_mb"] = float64(after.Sys) / 1e6
	for _, k := range cpuShareKeys {
		l["cpu_share."+k] = shares[k]
	}
	res.Layer = l
	return res, nil
}

func wallsOf(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.WallS
	}
	return out
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// endToEndOf takes each end-to-end metric from a result's repetitions, by
// the estimator the catalogue names.
func endToEndOf(w workload, r *runResult) map[string]float64 {
	allocs := make([]float64, len(r.Samples))
	mb := make([]float64, len(r.Samples))
	for i, s := range r.Samples {
		allocs[i], mb[i] = float64(s.Allocs), float64(s.Bytes)/1e6
	}
	// The work of a repetition is fixed and interference on a shared host
	// only ever adds time, so the lower decile is the steady estimator.
	wall := quantile(wallsOf(r.Samples), 0.1)
	return map[string]float64{
		"wall_s":            wall,
		"rank_cycles_per_s": float64(w.rankCycles) / wall,
		"allocs_per_op":     quantile(allocs, 0.5),
		"alloc_mb_per_op":   quantile(mb, 0.5),
		"virt_makespan_s":   r.VirtMakespanS,
		"virt_slowdown":     r.VirtMakespanS / r.VirtTwinS,
		"setup_s":           quantile(r.SetupS, 0.5),
	}
}

// quantile interpolates the q-quantile of v (0 when v is empty).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
