// Command bench is the repository's benchmark: five workloads, the
// end-to-end metrics a user of the reproduction sees, a traced run that
// attributes them to layers, and an A/A comparer. README.md in this
// directory is the catalogue; BENCHMARK.json at the repository root is the
// contract a driver runs it by.
//
//	go run ./bench [-seed N] [-traced] [-out set.json] [-dir traces/]
//	go run ./bench compare A.json B.json
//	go run ./bench --workload NAME --seed N --seconds S --trace 0|1
//
// The first form runs a full set: every workload for its fixed number of
// repetitions, in rounds interleaved across workloads, each round of each
// workload in a fresh child process. The last form measures one workload
// in this process for S seconds and prints one JSON line, for a driver.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
)

// procs is the GOMAXPROCS every gated measurement runs under. One, not the
// reference host's two CPUs: on two Ps the wall time of one commit moved by
// up to 77% between runs minutes apart, as the host's second hardware thread
// came and went, and two of the five workloads are faster on one P anyway
// (README.md has the numbers). The traced run reports the two-P wall time
// as run.wall_procs2_s, unbounded.
const procs = 1

// rounds is how many child processes a workload's repetitions are split
// over in a full set.
const rounds = 5

func main() {
	runtime.GOMAXPROCS(procs)
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	name := fs.String("workload", "", "measure only this workload, in this process, and print one JSON line")
	seed := fs.Uint64("seed", 1, "seed of the workload generator")
	seconds := fs.Float64("seconds", 10, "with -workload: how long to measure")
	trace := fs.Int("trace", 0, "with -workload: 1 reports the per-layer metrics instead of the end-to-end ones")
	traced := fs.Bool("traced", false, "full set: add the traced per-layer run")
	reps := fs.Int("reps", 0, "full set: repetitions per workload, overriding the catalogue's counts")
	out := fs.String("out", "", "full set: write the set's JSON document here")
	dir := fs.String("dir", "", "write span JSONL and CPU profiles of traced runs into this directory")
	child := fs.Bool("child", false, "internal: one round of one workload, result as JSON on stdout")
	fs.Parse(os.Args[1:])
	if fs.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	}
	if *dir != "" {
		if err := os.MkdirAll(*dir, 0o755); err != nil {
			fatal(err)
		}
	}

	if *name == "" {
		fatal(runSet(*seed, *reps, *traced, *out, *dir))
		return
	}
	w, ok := findWorkload(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if *child {
		res, err := measure(w, runOpts{seed: *seed, reps: *reps, setups: 1, traced: *traced, probeScale: 1, dir: *dir})
		if err != nil {
			fatal(err)
		}
		fatal(json.NewEncoder(os.Stdout).Encode(res))
		return
	}
	res, err := measure(w, runOpts{seed: *seed, seconds: *seconds, setups: 5, traced: *trace == 1, probeScale: 1, dir: *dir})
	if err != nil {
		fatal(err)
	}
	fatal(json.NewEncoder(os.Stdout).Encode(driverLine(w, res, *trace == 1)))
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverResult is the one JSON line a driver reads.
type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func driverLine(w workload, r *runResult, traced bool) driverResult {
	d := driverResult{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed}
	if traced {
		d.Metrics = layerMetrics(r)
	} else {
		d.Metrics = endToEndMetrics(w, r)
	}
	for _, f := range r.Failures {
		fmt.Fprintln(os.Stderr, "bench: failed:", f)
	}
	return d
}

func endToEndMetrics(w workload, r *runResult) map[string]metricValue {
	vals := endToEndOf(w, r)
	m := map[string]metricValue{}
	for _, d := range endToEnd {
		m[d.name] = metricValue{vals[d.name], d.unit}
	}
	return m
}

// layerMetrics reports every per-layer metric of the catalogue; one the
// workload never exercises reads 0.
func layerMetrics(r *runResult) map[string]metricValue {
	m := map[string]metricValue{}
	for _, d := range perLayer {
		m[d.name] = metricValue{r.Layer[d.name], d.unit}
	}
	return m
}

// --- full set ---------------------------------------------------------------

// hostFacts records where a set was measured; numbers from a two-CPU box
// are not comparable with an eight-CPU one.
type hostFacts struct {
	CPUs       int    `json:"cpus"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	Commit     string `json:"commit"`
}

// workloadDoc is one workload's part of a set document.
type workloadDoc struct {
	Name       string                 `json:"name"`
	Reps       int                    `json:"reps"`
	RankCycles int                    `json:"rank_cycles"`
	Inputs     inputs                 `json:"inputs"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	FailFrac   float64                `json:"fail_frac"`
	Failures   []string               `json:"failures,omitempty"`
	Metrics    map[string]metricValue `json:"metrics"`
	Layer      map[string]metricValue `json:"layer,omitempty"`
	SetupS     []float64              `json:"setup_s"`
	Samples    []sample               `json:"samples"`
}

// setDoc is the JSON document of one full set.
type setDoc struct {
	Host      hostFacts     `json:"host"`
	Seed      uint64        `json:"seed"`
	Traced    bool          `json:"traced"`
	Workloads []workloadDoc `json:"workloads"`
}

func host() hostFacts {
	h := hostFacts{
		CPUs: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		OSArch: runtime.GOOS + "/" + runtime.GOARCH, Commit: "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// runChild measures one round of one workload in a fresh process, so heap
// state never carries from one workload to the next.
func runChild(w workload, seed uint64, reps int, traced bool, dir string) (*runResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", "-workload", w.name, "-seed", fmt.Sprint(seed), "-reps", fmt.Sprint(reps)}
	if traced {
		args = append(args, "-traced")
	}
	if dir != "" {
		args = append(args, "-dir", dir)
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output() // waits for the child to end
	if err != nil {
		return nil, fmt.Errorf("%s: child process: %w", w.name, err)
	}
	var res runResult
	if err := json.Unmarshal(stdout, &res); err != nil {
		return nil, fmt.Errorf("%s: child output: %w", w.name, err)
	}
	return &res, nil
}

func runSet(seed uint64, repsOverride int, traced bool, out, dir string) error {
	merged := make([]*runResult, len(workloads))
	perRound := func(w workload) int {
		reps := w.reps
		if repsOverride > 0 {
			reps = repsOverride
		}
		return (reps + rounds - 1) / rounds
	}
	// Rounds are interleaved round-robin across workloads, so a noisy
	// neighbour never lands on one workload only.
	for round := 0; round < rounds; round++ {
		for i, w := range workloads {
			fmt.Fprintf(os.Stderr, "round %d/%d %s\n", round+1, rounds, w.name)
			r, err := runChild(w, seed, perRound(w), false, "")
			if err != nil {
				return err
			}
			if merged[i] == nil {
				merged[i] = r
				continue
			}
			m := merged[i]
			m.Attempted += r.Attempted
			m.Failed += r.Failed
			m.Failures = append(m.Failures, r.Failures...)
			m.SetupS = append(m.SetupS, r.SetupS...)
			m.Samples = append(m.Samples, r.Samples...)
			if r.VirtMakespanS != m.VirtMakespanS || r.VirtTwinS != m.VirtTwinS {
				m.Failed++
				m.Failures = append(m.Failures, "virtual makespan differs between rounds")
			}
		}
	}
	doc := setDoc{Host: host(), Seed: seed, Traced: traced}
	for i, w := range workloads {
		m := merged[i]
		wd := workloadDoc{
			Name: w.name, Reps: len(m.Samples), RankCycles: w.rankCycles, Inputs: m.Inputs,
			Attempted: m.Attempted, Failed: m.Failed, Failures: m.Failures,
			Metrics: endToEndMetrics(w, m), SetupS: m.SetupS, Samples: m.Samples,
		}
		if traced {
			fmt.Fprintf(os.Stderr, "traced %s\n", w.name)
			t, err := runChild(w, seed, perRound(w), true, dir)
			if err != nil {
				return err
			}
			wd.Attempted += t.Attempted
			wd.Failed += t.Failed
			wd.Failures = append(wd.Failures, t.Failures...)
			wd.Layer = layerMetrics(t)
		}
		wd.FailFrac = float64(wd.Failed) / float64(wd.Attempted)
		doc.Workloads = append(doc.Workloads, wd)
	}
	printSet(&doc)
	if out != "" {
		b, err := json.MarshalIndent(&doc, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	for _, wd := range doc.Workloads {
		if wd.Failed > 0 {
			return fmt.Errorf("%s: %d of %d world runs failed: %s", wd.Name, wd.Failed, wd.Attempted, strings.Join(wd.Failures, "; "))
		}
	}
	return nil
}

// printSet renders the human table: one row per metric, one column per
// workload.
func printSet(doc *setDoc) {
	h := doc.Host
	fmt.Printf("# bench set: seed=%d cpus=%d gomaxprocs=%d %s %s commit=%s\n", doc.Seed, h.CPUs, h.GoMaxProcs, h.GoVersion, h.OSArch, h.Commit)
	for _, wd := range doc.Workloads {
		fmt.Printf("# %s: reps=%d rank_cycles=%d timeline=%v\n", wd.Name, wd.Reps, wd.RankCycles, wd.Inputs.Timeline)
	}
	row := func(name, unit string, cell func(wd *workloadDoc) float64) {
		fmt.Printf("%-34s %-6s", name, unit)
		for i := range doc.Workloads {
			fmt.Printf(" %16.6g", cell(&doc.Workloads[i]))
		}
		fmt.Println()
	}
	fmt.Printf("%-34s %-6s", "metric", "unit")
	for _, wd := range doc.Workloads {
		fmt.Printf(" %16s", wd.Name)
	}
	fmt.Println()
	for _, d := range endToEnd {
		row(d.name, d.unit, func(wd *workloadDoc) float64 { return wd.Metrics[d.name].Value })
	}
	row("fail_frac", "ratio", func(wd *workloadDoc) float64 { return wd.FailFrac })
	if doc.Traced {
		for _, d := range perLayer {
			row(d.name, d.unit, func(wd *workloadDoc) float64 { return wd.Layer[d.name].Value })
		}
	}
}
