package exp

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// Fig5Run is one bar of the figure.
type Fig5Run struct {
	Test    string // "no-redist", "redist-once", "redist-twice"
	Period  int
	Total   float64 // seconds
	Redist  float64 // seconds spent redistributing (all ranks' max)
	Redists int
	// PeriodEnds are the virtual times at the three period boundaries
	// (slowest rank), reconstructing the paper's stacked breakdown.
	PeriodEnds [3]float64
}

// Fig5Result groups runs by period length.
type Fig5Result struct {
	Short []Fig5Run
	Long  []Fig5Run
}

// fig5Tests are the three policies; a test's index is the redistributions
// it may make, and no-redist does not adapt at all.
var fig5Tests = []string{"no-redist", "redist-once", "redist-twice"}

// fig5Worlds returns one world per bar, the short execution's three first:
// Jacobi on 4 nodes over three periods of one of size's period lengths,
// with a CP on node 1 during the second, making at most as many
// redistributions as the bar's test allows (none at all for no-redist).
func fig5Worlds(size Size) (worlds []sweep.World) {
	in := size.inputs()
	for _, period := range in.fig5Periods {
		for maxRedists := range fig5Tests {
			w := in.fig5
			w.Iters = 3 * period
			w.Trace = true
			w.Core = core.DefaultConfig()
			w.Core.Adapt = maxRedists > 0
			w.Core.Drop = core.DropNever
			w.Core.MaxRedists = maxRedists
			w.Spec = cluster.Uniform(4).
				With(cluster.CycleEvent(1, period, +1)).
				With(cluster.CycleEvent(1, 2*period, -1))
			worlds = append(worlds, w)
		}
	}
	return worlds
}

// RunFig5 executes the multiple-redistribution-points experiment (§5.2) at
// size: three policies — No Redist, Redist Once, Redist Twice — at two
// period lengths (Short and Long).
func RunFig5(size Size) (*Fig5Result, error) {
	worlds := fig5Worlds(size)
	runs := make([]Fig5Run, len(worlds))
	if _, err := runWorlds(worlds, func(i int, w sweep.Outcome) error {
		period := worlds[i].Iters / 3
		// A period ends when its last cycle's slowest node emits that
		// cycle's iteration record.
		var boundaries [3]float64
		w.Ring.Walk(telemetry.Visitor{Iteration: func(v *telemetry.IterationRecord) {
			for k := 1; k <= 3; k++ {
				if v.Cycle == k*period-1 && v.Time > boundaries[k-1] {
					boundaries[k-1] = v.Time
				}
			}
		}})
		runs[i] = Fig5Run{Test: fig5Tests[i%len(fig5Tests)], Period: period, Total: w.Res.Elapsed,
			Redist: totalRedistSeconds(redistsOf(w.Ring)), Redists: w.Res.Redists, PeriodEnds: boundaries}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("fig5: %w", err)
	}
	n := len(fig5Tests)
	return &Fig5Result{Short: runs[:n], Long: runs[n:]}, nil
}

// Find returns the run with the given test name from a period group.
func Find(runs []Fig5Run, test string) Fig5Run {
	for _, r := range runs {
		if r.Test == test {
			return r
		}
	}
	return Fig5Run{}
}

// Table renders both period lengths.
func (r *Fig5Result) Table() *Table {
	t := &Table{
		Caption: "Figure 5: Jacobi with multiple redistribution points (4 nodes; CP active during the middle period only)",
		Header:  []string{"execution", "test", "total(s)", "p1(s)", "p2(s)", "p3(s)", "redist(s)", "redists"},
	}
	add := func(label string, runs []Fig5Run) {
		for _, run := range runs {
			p1 := run.PeriodEnds[0]
			p2 := run.PeriodEnds[1] - run.PeriodEnds[0]
			p3 := run.PeriodEnds[2] - run.PeriodEnds[1]
			t.Rows = append(t.Rows, []string{
				label, run.Test, f2(run.Total), f2(p1), f2(p2), f2(p3), f3(run.Redist), fmt.Sprint(run.Redists),
			})
		}
	}
	add("short", r.Short)
	add("long", r.Long)
	return t
}
