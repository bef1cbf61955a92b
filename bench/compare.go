package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareMain implements `bench compare A.json B.json`: B (the change) is
// held against A (the parent, or a second set of the same commit) on every
// pairing of end-to-end metric and workload. It returns the exit code: 0
// when every pairing is within its bound, 1 on any violation, 2 on misuse.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json")
		return 2
	}
	a, err := readSet(args[0])
	if err == nil {
		var b *setDoc
		if b, err = readSet(args[1]); err == nil {
			return compareSets(os.Stdout, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "bench compare:", err)
	return 2
}

func readSet(path string) (*setDoc, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc setDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// worsening is how much worse b reads than a, as a share of a; negative
// when b is better.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		a = b // no base to take a share of: any move from 0 counts in full
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareSets writes the comparison table to w and returns the exit code.
func compareSets(w io.Writer, a, b *setDoc) int {
	if a.Seed != b.Seed {
		// The virt_* metrics and the counts are only exact on equal inputs.
		fmt.Fprintf(os.Stderr, "bench compare: sets of different seeds (%d, %d) cannot be compared\n", a.Seed, b.Seed)
		return 2
	}
	if a.Host.CPUs != b.Host.CPUs || a.Host.GoMaxProcs != b.Host.GoMaxProcs || a.Host.GoVersion != b.Host.GoVersion {
		fmt.Fprintf(w, "# warning: sets measured on different hosts: %+v vs %+v\n", a.Host, b.Host)
	}
	byName := map[string]*workloadDoc{}
	for i := range b.Workloads {
		byName[b.Workloads[i].Name] = &b.Workloads[i]
	}
	violations := 0
	fmt.Fprintf(w, "%-18s %-28s %16s %16s %9s %7s  %s\n", "workload", "metric", "A", "B", "worse", "bound", "verdict")
	line := func(wl, m string, av, bv, worse, bound float64, ok bool) {
		verdict := "ok"
		if !ok {
			verdict = "VIOLATION"
			violations++
		}
		fmt.Fprintf(w, "%-18s %-28s %16.9g %16.9g %+8.2f%% %6.1f%%  %s\n", wl, m, av, bv, 100*worse, 100*bound, verdict)
	}
	for i := range a.Workloads {
		wa := &a.Workloads[i]
		wb := byName[wa.Name]
		if wb == nil {
			fmt.Fprintf(w, "%-18s missing from B\n", wa.Name)
			violations++
			continue
		}
		for _, d := range endToEnd {
			av, bv := wa.Metrics[d.name].Value, wb.Metrics[d.name].Value
			worse := worsening(av, bv, d.better)
			if d.exact {
				// Simulated time on equal inputs: any difference is a model
				// change and must be claimed as one.
				line(wa.Name, d.name, av, bv, worse, 0, av == bv)
			} else {
				line(wa.Name, d.name, av, bv, worse, d.bound, worse <= d.bound)
			}
		}
		line(wa.Name, "fail_frac", wa.FailFrac, wb.FailFrac, wb.FailFrac-wa.FailFrac, 0, wb.FailFrac <= wa.FailFrac)
		if wa.Layer == nil || wb.Layer == nil {
			continue
		}
		for _, d := range perLayer {
			if av, bv := wa.Layer[d.name].Value, wb.Layer[d.name].Value; d.exact && av != bv {
				line(wa.Name, d.name, av, bv, worsening(av, bv, d.better), 0, false)
			}
		}
	}
	if violations > 0 {
		fmt.Fprintf(w, "# %d violation(s)\n", violations)
		return 1
	}
	fmt.Fprintln(w, "# every pairing of metric and workload is within its bound")
	return 0
}
