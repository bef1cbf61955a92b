package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"

	"repro/internal/apps/jacobi"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/exp"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// Every workload runs one untraced and one traced repetition, verifies, and
// reports every metric of the catalogue under a well-formed name.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	known := map[string]bool{}
	for _, d := range perLayer {
		if !metricName.MatchString(d.name) {
			t.Errorf("per-layer metric name %q is malformed", d.name)
		}
		if known[d.name] {
			t.Errorf("per-layer metric %q listed twice", d.name)
		}
		known[d.name] = true
	}
	for _, w := range workloads {
		res, err := measure(w, runOpts{seed: 1, reps: 1, setups: 1, traced: true, probeScale: 1000})
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d world runs failed: %v", w.name, res.Failed, res.Attempted, res.Failures)
		}
		line := driverLine(w, res, false)
		if len(line.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics, want %d", w.name, len(line.Metrics), len(endToEnd))
		}
		for _, d := range endToEnd {
			m, ok := line.Metrics[d.name]
			if !metricName.MatchString(d.name) || !ok || m.Unit != d.unit || !(m.Value > 0) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: end-to-end metric %s = %+v (present %v)", w.name, d.name, m, ok)
			}
		}
		if got := layerMetrics(res); len(got) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", w.name, len(got), len(perLayer))
		}
		var shares float64
		for name, v := range res.Layer {
			if !known[name] {
				t.Errorf("%s: measured %q, which the catalogue does not list", w.name, name)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v", w.name, name, v)
			}
			if len(name) > 10 && name[:10] == "cpu_share." {
				shares += v
			}
		}
		if shares != 0 && math.Abs(shares-1) > 1e-9 {
			t.Errorf("%s: CPU shares sum to %v", w.name, shares)
		}
		if _, err := json.Marshal(line); err != nil {
			t.Errorf("%s: result does not encode: %v", w.name, err)
		}
	}
}

// The bench-owned stencil body is jacobi.Run bit for bit, with and without
// the overlapped halo, through a redistribution and under replication.
func TestStencilMatchesJacobi(t *testing.T) {
	spec := cluster.Uniform(4).With(cluster.CycleEvent(1, 10, +1))
	for _, overlap := range []bool{false, true} {
		for _, replicate := range []bool{false, true} {
			cfg := jacobi.DefaultConfig()
			cfg.Rows, cfg.Cols, cfg.Iters, cfg.CostPerElem = 96, 32, 60, 40e3
			cfg.Overlap = overlap
			cfg.Core.Drop = core.DropNever
			cfg.Core.Replicate, cfg.Core.ReplicaRMA = replicate, replicate
			if replicate {
				cfg.Core.ReplicaEvery = 1
			}
			want, err := jacobi.Run(cluster.New(spec), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if want.Redists == 0 {
				t.Fatal("the scenario did not redistribute")
			}
			log := newSpanLog()
			got, _, err := runStencil(cluster.New(spec), cfg, log)
			if err != nil {
				t.Fatal(err)
			}
			a, b := appOutcome("jacobi", want, nil, 0, true), appOutcome("stencil", got, nil, 0, true)
			a.name = b.name
			if a != b {
				t.Errorf("overlap=%v replicate=%v: stencil body %+v, jacobi.Run %+v", overlap, replicate, b, a)
			}
			var stats spanStats
			stats.add(log.take())
			for _, s := range []string{spanCycle, spanCommit, spanBegin, spanBeginRedist, spanEnd, spanKernel, spanHalo} {
				if !(stats.p50(s) > 0) {
					t.Errorf("overlap=%v: span %s never recorded", overlap, s)
				}
			}
			if n := len(stats.us[spanCycle]); n != 4*cfg.Iters {
				t.Errorf("overlap=%v: %d cycle spans, want %d", overlap, n, 4*cfg.Iters)
			}
		}
	}
}

// On a dedicated cluster the bench-owned collective body is exp.RunScale.
func TestCollectiveMatchesRunScale(t *testing.T) {
	want, err := exp.RunScale(exp.ScaleOptions{Sizes: []int{64}, Cycles: 6, VecLen: 64})
	if err != nil {
		t.Fatal(err)
	}
	tm := &collTimes{us: map[string][]float64{}}
	got, err := runCollective(cluster.Uniform(64), 6, 64, tm)
	if err != nil {
		t.Fatal(err)
	}
	if got.checksum != want.Sizes[0].Checksum || got.finishS != want.Sizes[0].FinishS {
		t.Errorf("collective body: checksum %v finish %v, exp.RunScale: %v %v",
			got.checksum, got.finishS, want.Sizes[0].Checksum, want.Sizes[0].FinishS)
	}
	for _, k := range collKinds {
		if len(tm.us[k]) != 6 {
			t.Errorf("%d timed %s calls, want 6", len(tm.us[k]), k)
		}
	}
}

// The checker can fail: a corrupted checksum, an error and a repetition that
// differs from the first are each counted.
func TestVerifyCountsFailures(t *testing.T) {
	twins := []outcome{{name: "twin", sum: 1.5, sumInt: 7}}
	good := outcome{name: "run", sum: 1.5, sumInt: 7, elapsed: 2, exact: true}
	if failed, _ := verify([]outcome{good, good}, twins, []outcome{good, good}); failed != 0 {
		t.Fatalf("clean repetition: %d failures", failed)
	}
	corrupt := good
	corrupt.sum = math.Nextafter(corrupt.sum, 2)
	slow := good
	slow.elapsed = 2.5
	broken := good
	broken.err = os.ErrDeadlineExceeded
	failed, why := verify([]outcome{corrupt, slow, broken, good}, twins, []outcome{good, good, good, good})
	if failed != 3 || len(why) != 3 {
		t.Fatalf("%d failures (%v), want 3", failed, why)
	}
	res := &runResult{}
	res.check([]outcome{corrupt, good}, twins, nil)
	if res.Attempted != 2 || res.Failed != 1 {
		t.Fatalf("fail_frac %d/%d, want 1/2", res.Failed, res.Attempted)
	}
}

// Two seeds give different load timelines; one seed gives the same inputs
// and the same virtual results.
func TestSeedDrivesTheTimeline(t *testing.T) {
	for _, w := range workloads {
		a, b := w.build(1), w.build(1)
		if !reflect.DeepEqual(a.in, b.in) {
			t.Errorf("%s: seed 1 generated %+v and %+v", w.name, a.in, b.in)
		}
		if len(a.in.Timeline) == 0 {
			t.Errorf("%s: empty timeline", w.name)
		}
		differs := false
		for seed := uint64(2); seed < 6; seed++ {
			differs = differs || !reflect.DeepEqual(w.build(seed).in.Timeline, a.in.Timeline)
		}
		if !differs {
			t.Errorf("%s: seeds 1 to 5 all generated %+v", w.name, a.in.Timeline)
		}
	}
	w, _ := findWorkload("adapt_dense")
	x, y := w.build(3).run(nil), w.build(3).run(nil)
	if failed, why := verify(y, x, x); failed != 0 {
		t.Errorf("seed 3 twice: %v", why)
	}
	if z := w.build(4).run(nil); z[0].elapsed == x[0].elapsed {
		t.Errorf("seeds 3 and 4 gave the same virtual makespan %v", z[0].elapsed)
	}
}

func TestCompare(t *testing.T) {
	set := func(wall, virt float64, failed int) *setDoc {
		doc := &setDoc{Seed: 1}
		for _, w := range workloads {
			m := map[string]metricValue{}
			for _, d := range endToEnd {
				m[d.name] = metricValue{1, d.unit}
			}
			m["wall_s"] = metricValue{wall, "s"}
			m["rank_cycles_per_s"] = metricValue{1 / wall, "1/s"}
			m["virt_makespan_s"] = metricValue{virt, "s"}
			doc.Workloads = append(doc.Workloads, workloadDoc{Name: w.name, Metrics: m, Attempted: 10, Failed: failed, FailFrac: float64(failed) / 10})
		}
		return doc
	}
	base := set(1, 5, 0)
	for _, c := range []struct {
		name string
		b    *setDoc
		want int
	}{
		{"identical", set(1, 5, 0), 0},
		{"wall within bound", set(1.2, 5, 0), 0},
		{"wall better", set(0.5, 5, 0), 0},
		{"wall beyond bound", set(1.4, 5, 0), 1},
		{"virtual time moved", set(1, 5.0000001, 0), 1},
		{"a run failed", set(1, 5, 1), 1},
	} {
		if got := compareSets(io.Discard, base, c.b); got != c.want {
			t.Errorf("%s: exit code %d, want %d", c.name, got, c.want)
		}
	}
	other := set(1, 5, 0)
	other.Seed = 2
	if got := compareSets(io.Discard, base, other); got != 2 {
		t.Errorf("different seeds: exit code %d, want 2", got)
	}
}

// BENCHMARK.json repeats the catalogue; the two must not drift apart.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", doc.Command, doc.Paths)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, want %s: %s", i, doc.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why has %d characters", w.name, len(w.why))
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, want %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		m := doc.EndToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound == nil || *m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: %+v, want %+v", i, m, d)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, want %d", len(doc.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		m := doc.PerLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != nil {
			t.Errorf("per-layer metric %d: %+v, want %+v", i, m, d)
		}
	}
}
