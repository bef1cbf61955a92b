// Command dynexp regenerates every table and figure of the Dyn-MPI paper's
// evaluation (§5) on the simulated non dedicated cluster, plus the design
// ablations from §4. Each subcommand prints one experiment:
//
//	dynexp fig4        — four applications × {2,4,8} nodes, normalised times
//	dynexp cg-table    — the §5.1 four-node CG case study
//	dynexp fig5        — Jacobi with multiple redistribution points
//	dynexp fig6        — SOR node removal vs keeping the loaded node
//	dynexp fig7        — particle simulation, grace period 1 vs 5
//	dynexp alloc       — §4.1 projection vs contiguous allocation
//	dynexp microbench  — §4.3 pair-fraction table and method comparison
//	dynexp virt        — virtualisation ablation (scheduler floor calibration)
//	dynexp trace       — canonical loaded-4-node run with structured telemetry
//	dynexp scale       — large-world collective soak (64/256/1024 ranks)
//	dynexp overlap     — nonblocking halo overlap study
//	dynexp rma         — one-sided (RMA) replica refresh vs paired send/recv
//	dynexp resize      — elastic world resizing vs drop-all+restart
//	dynexp sweep       — multi-world parameter sweep on a pool of independent worlds
//	dynexp all         — everything above (except trace, scale and sweep)
//
// The -paper flag runs the paper's own inputs (slower) for the five studies
// that have them — fig4, cg-table, fig5, fig6 and fig7 — and -paper all runs
// those five; the default scaled inputs preserve the
// computation/communication ratios (see EXPERIMENTS.md). -nodes sets the
// node counts of fig4, fig6, overlap and rma. Any flag set on a subcommand
// that does not read it is an error (exit status 2).
//
// The trace subcommand attaches a telemetry sink to the runtime: -trace
// out.jsonl writes the structured record stream (iteration, decision,
// redist, membership, failure) as JSON lines in deterministic order, and
// -summary prints an aggregation table. With neither flag, the summary is
// printed.
//
// The -fault flag injects deterministic failures into the trace run, as a
// ';'-separated list of specs (see internal/fault.ParseSpecs):
//
//	-fault 'crash:node=2,cycle=12'             crash rank 2 entering cycle 12
//	-fault 'crash:node=1,t=0.5'                crash rank 1 at 0.5s virtual time
//	-fault 'stall:node=0,cycle=3,dur=200ms'    stall rank 0 for 200ms
//	-fault 'drop:node=0,to=1,after=10'         drop (retransmit) one 0→1 message
//	-fault 'delay:node=0,to=1,after=4,count=3,dur=5ms'
//
// -replicate enables dense-array buddy replication so a crashed rank's rows
// are reconstructed instead of lost; -replica-every refreshes the replicas
// every N cycles.
//
// The sweep subcommand runs one independent world per grid cell (see
// internal/sweep): -smoke runs the CI-sized 96-cell grid, -grid overlays a
// custom axis/workload spec onto it, -jobs sets how many worlds run at
// once, and -out writes the per-cell results as JSONL. The text report on
// stdout is deterministic apart from lines prefixed "# wall-time:"; strip
// those and two runs byte-compare equal regardless of -jobs or GOMAXPROCS.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/fault"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// parseNodes reads the -nodes list: comma-separated positive integers, each
// a whole number (strconv, not Sscanf — "%d" stops at the first non-digit and
// would read "8x" as 8). Empty means the experiment's own default.
func parseNodes(list string) ([]int, error) {
	if list == "" {
		return nil, nil
	}
	var nodes []int
	for _, part := range strings.Split(list, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -nodes value %q", part)
		}
		nodes = append(nodes, n)
	}
	return nodes, nil
}

// checkCounts rejects negative -replica-every and -scale-n values (0 selects
// each flag's default) and a -jobs below 1: a pool needs a worker, and the
// flag's default is 4, so 0 has no "default" meaning to fall back to.
func checkCounts(replicaEvery, scaleN, jobs int) error {
	if replicaEvery < 0 {
		return fmt.Errorf("bad -replica-every value %d (want >= 0)", replicaEvery)
	}
	if scaleN < 0 {
		return fmt.Errorf("bad -scale-n value %d (want >= 0)", scaleN)
	}
	if jobs < 1 {
		return fmt.Errorf("bad -jobs value %d (want >= 1)", jobs)
	}
	return nil
}

// command is one subcommand: the flags it reads besides the profile flags
// (-cpuprofile, -memprofile), which every subcommand reads, and for a study
// that prints one table, how to run it.
type command struct {
	name  string
	flags []string
	run   func(nodes []int, size exp.Size) (*exp.Table, error) // nil for trace, scale, sweep and all
}

// table returns a study result's table, or the study's error.
func table[R interface{ Table() *exp.Table }](r R, err error) (*exp.Table, error) {
	if err != nil {
		return nil, err
	}
	return r.Table(), nil
}

// commands lists every subcommand, the studies in the order all runs them.
// A set flag its subcommand does not read is an error.
var commands = []command{
	{"fig4", []string{"paper", "nodes"}, func(nodes []int, size exp.Size) (*exp.Table, error) { return table(exp.RunFig4(nodes, size)) }},
	{"cg-table", []string{"paper"}, func(_ []int, size exp.Size) (*exp.Table, error) { return table(exp.RunCGTable(size)) }},
	{"fig5", []string{"paper"}, func(_ []int, size exp.Size) (*exp.Table, error) { return table(exp.RunFig5(size)) }},
	{"fig6", []string{"paper", "nodes"}, func(nodes []int, size exp.Size) (*exp.Table, error) { return table(exp.RunFig6(nodes, size)) }},
	{"fig7", []string{"paper"}, func(_ []int, size exp.Size) (*exp.Table, error) { return table(exp.RunFig7(size)) }},
	{"alloc", nil, func([]int, exp.Size) (*exp.Table, error) { return table(exp.RunAlloc()) }},
	{"microbench", nil, func([]int, exp.Size) (*exp.Table, error) { return table(exp.RunMicrobench()) }},
	{"virt", nil, func([]int, exp.Size) (*exp.Table, error) { return table(exp.RunVirt()) }},
	{"overlap", []string{"nodes"}, func(nodes []int, _ exp.Size) (*exp.Table, error) { return table(exp.RunOverlap(nodes)) }},
	{"rma", []string{"nodes"}, func(nodes []int, _ exp.Size) (*exp.Table, error) { return table(exp.RunRMA(nodes)) }},
	{"resize", nil, func([]int, exp.Size) (*exp.Table, error) { return table(exp.RunResize()) }},
	{"trace", []string{"trace", "summary", "fault", "replicate", "replica-every"}, nil},
	{"scale", []string{"scale-n", "trace"}, nil},
	{"sweep", []string{"smoke", "grid", "jobs", "out"}, nil},
	// all passes -nodes on to the studies that read it.
	{"all", []string{"paper", "nodes"}, nil},
}

// reads reports whether subcommand c reads flag f.
func (c command) reads(f string) bool {
	return f == "cpuprofile" || f == "memprofile" || slices.Contains(c.flags, f)
}

// names returns the names of the commands keep selects, in list order.
func names(keep func(command) bool) []string {
	var out []string
	for _, c := range commands {
		if keep(c) {
			out = append(out, c.name)
		}
	}
	return out
}

// study reports whether c prints one table.
func study(c command) bool { return c.run != nil }

// readers returns the studies that read flag f.
func readers(f string) []string {
	return names(func(c command) bool { return study(c) && c.reads(f) })
}

// find returns the subcommand named name.
func find(name string) command {
	i := slices.IndexFunc(commands, func(c command) bool { return c.name == name })
	return commands[i]
}

// selectStudies returns the subcommands target runs, and rejects a set flag
// target does not read, naming it: all runs every study (with -paper,
// every study that has paper inputs).
func selectStudies(target string, set []string) ([]string, error) {
	c := find(target)
	for _, f := range set {
		if !c.reads(f) {
			return nil, fmt.Errorf("-%s: %s does not read it (read by: %s)", f, target,
				strings.Join(names(func(c command) bool { return c.reads(f) }), ", "))
		}
	}
	switch {
	case target != "all":
		return []string{target}, nil
	case slices.Contains(set, "paper"):
		return readers("paper"), nil
	}
	return names(study), nil
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: dynexp [-paper] [-nodes n,n,...] [-trace out.jsonl] [-summary] [-fault specs] [-replicate] [-replica-every n] [-scale-n n] [-smoke] [-grid spec] [-jobs n] [-out f.jsonl] [-cpuprofile f] [-memprofile f] {%s}\n",
		strings.Join(names(func(command) bool { return true }), "|"))
	os.Exit(2)
}

func main() {
	paper := flag.Bool("paper", false, "run the paper's own inputs ("+strings.Join(readers("paper"), "/")+" only)")
	nodesFlag := flag.String("nodes", "", "comma-separated node counts ("+strings.Join(readers("nodes"), "/")+" only)")
	traceFile := flag.String("trace", "", "write the telemetry record stream as JSONL to this file (trace subcommand)")
	summary := flag.Bool("summary", false, "print a telemetry aggregation table (trace subcommand)")
	faultSpecs := flag.String("fault", "", "';'-separated fault specs to inject, e.g. 'crash:node=2,cycle=12' (trace subcommand)")
	replicate := flag.Bool("replicate", false, "enable dense-array buddy replication for crash recovery (trace subcommand)")
	replicaEvery := flag.Int("replica-every", 0, "refresh buddy replicas every n cycles (0 = only at redistributions)")
	scaleN := flag.Int("scale-n", 0, "run the scale soak at this single world size (0 = the default 64/256/1024 ladder)")
	smoke := flag.Bool("smoke", false, "run the CI-sized smoke grid (sweep subcommand)")
	gridSpec := flag.String("grid", "", "overlay a grid spec, e.g. 'scen=jacobi;ranks=4,8;gp=3' (sweep subcommand)")
	jobs := flag.Int("jobs", 4, "worker-pool width: worlds run at once (sweep subcommand)")
	outFile := flag.String("out", "", "write per-cell sweep results as JSONL to this file (sweep subcommand)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the selected experiment(s) to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (taken at exit) to this file")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() != 1 {
		usage()
	}

	// stopProfiles flushes any requested profiles; it must run on the error
	// exit path too (os.Exit skips defers), so it is called explicitly.
	stopProfiles := func() {}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dynexp: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "dynexp: start cpu profile: %v\n", err)
			os.Exit(1)
		}
		stopProfiles = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	if *memProfile != "" {
		stopCPU := stopProfiles
		stopProfiles = func() {
			stopCPU()
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dynexp: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live-heap accounting before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "dynexp: write heap profile: %v\n", err)
			}
		}
	}

	target := flag.Arg(0)
	if !slices.ContainsFunc(commands, func(c command) bool { return c.name == target }) {
		usage()
	}
	nodes, err := parseNodes(*nodesFlag)
	if err == nil {
		err = checkCounts(*replicaEvery, *scaleN, *jobs)
	}
	var set, selected []string
	flag.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	if err == nil {
		selected, err = selectStudies(target, set)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dynexp: %v\n", err)
		os.Exit(2)
	}

	size := exp.Scaled
	if *paper {
		size = exp.Paper
	}
	run := func(name string) error {
		start := time.Now()
		defer func() {
			if name == "sweep" {
				// The sweep report carries its own segregated "# wall-time:"
				// line; a free-floating timing line would break the report's
				// strip-and-compare contract.
				return
			}
			fmt.Printf("  [%s completed in %.1fs wall time]\n\n", name, time.Since(start).Seconds())
		}()
		switch name {
		case "trace":
			o := exp.TraceOptions{Replicate: *replicate, ReplicaEvery: *replicaEvery}
			if *faultSpecs != "" {
				fs, err := fault.ParseSpecs(*faultSpecs)
				if err != nil {
					return err
				}
				o.Faults = fs
			}
			r, err := exp.RunTrace(o)
			if err != nil {
				return err
			}
			if *traceFile != "" {
				f, err := os.Create(*traceFile)
				if err != nil {
					return err
				}
				if err := telemetry.WriteJSONL(f, r.Records); err != nil {
					f.Close()
					return err
				}
				if err := f.Close(); err != nil {
					return err
				}
				fmt.Printf("  wrote %d records to %s\n", len(r.Records), *traceFile)
			}
			if *summary || *traceFile == "" {
				telemetry.Summarize(r.Records).WriteTable(os.Stdout)
			}
			fmt.Printf("  elapsed %.3fs virtual, %d redistributions\n", r.Res.Elapsed, r.Res.Redists)
		case "sweep":
			o := sweep.Options{Grid: sweep.Smoke(), Jobs: *jobs}
			if !*smoke && *gridSpec == "" {
				return fmt.Errorf("sweep needs -smoke and/or -grid")
			}
			if *gridSpec != "" {
				if err := o.Grid.ParseSpec(*gridSpec); err != nil {
					return err
				}
			}
			r, err := sweep.Run(o)
			if err != nil {
				return err
			}
			r.WriteText(os.Stdout)
			if *outFile != "" {
				f, err := os.Create(*outFile)
				if err != nil {
					return err
				}
				if err := r.WriteJSONL(f); err != nil {
					f.Close()
					return err
				}
				if err := f.Close(); err != nil {
					return err
				}
			}
		case "scale":
			o := exp.DefaultScaleOptions()
			if *scaleN > 0 {
				o.Sizes = []int{*scaleN}
			}
			r, err := exp.RunScale(o)
			if err != nil {
				return err
			}
			r.Table().Render(os.Stdout)
			if *traceFile != "" {
				f, err := os.Create(*traceFile)
				if err != nil {
					return err
				}
				if err := telemetry.WriteJSONL(f, r.Records); err != nil {
					f.Close()
					return err
				}
				if err := f.Close(); err != nil {
					return err
				}
				fmt.Printf("  wrote %d records to %s\n", len(r.Records), *traceFile)
			}
		default:
			t, err := find(name).run(nodes, size)
			if err != nil {
				return err
			}
			t.Render(os.Stdout)
		}
		return nil
	}

	for _, name := range selected {
		if err := run(name); err != nil {
			fmt.Fprintf(os.Stderr, "dynexp %s: %v\n", name, err)
			stopProfiles()
			os.Exit(1)
		}
	}
	stopProfiles()
}
