package exp

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// Fig5Options parameterises the multiple-redistribution-points experiment
// (§5.2): Jacobi on 4 nodes, three equal periods, a competing process
// active only during the second, and three policies — No Redist, Redist
// Once, Redist Twice — at two period lengths (Short and Long).
type Fig5Options struct {
	Nodes int
	// ShortPeriod and LongPeriod are the per-period cycle counts (the
	// paper uses 50 and 500; the scaled defaults preserve the
	// redistribution-cost-to-period ratio).
	ShortPeriod, LongPeriod int
	Paper                   bool
}

// DefaultFig5Options returns the scaled configuration.
func DefaultFig5Options() Fig5Options {
	return Fig5Options{Nodes: 4, ShortPeriod: 30, LongPeriod: 150}
}

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

// fig5World is one bar's world: Jacobi over three periods of period cycles
// with a CP on node 1 during the second, making at most maxRedists
// redistributions (none at all when 0).
func fig5World(nodes, period, maxRedists int, paper bool) sweep.World {
	w := sweep.World{App: "jacobi", Rows: 2048, Cols: 2048, Cost: 40, Iters: 3 * period, RingCap: traceCap}
	if !paper {
		// Wide rows keep redistribution expensive relative to a cycle, the
		// property that makes the second redistribution unprofitable for
		// short periods (see EXPERIMENTS.md).
		w.Rows, w.Cols, w.Cost = 512, 2048, 150
	}
	w.Core = core.DefaultConfig()
	w.Core.Adapt = maxRedists > 0
	w.Core.Drop = core.DropNever
	w.Core.MaxRedists = maxRedists
	w.Spec = cluster.Uniform(nodes).
		With(cluster.CycleEvent(1, period, +1)).
		With(cluster.CycleEvent(1, 2*period, -1))
	return w
}

// RunFig5 executes the short and long variants of all three policies.
func RunFig5(o Fig5Options) (*Fig5Result, error) {
	if o.Nodes == 0 {
		o.Nodes = 4
	}
	if o.ShortPeriod == 0 {
		o.ShortPeriod = 30
	}
	if o.LongPeriod == 0 {
		o.LongPeriod = 150
	}
	periods := []int{o.ShortPeriod, o.LongPeriod}
	var worlds []sweep.World
	for _, period := range periods {
		for maxRedists := range fig5Tests {
			worlds = append(worlds, fig5World(o.Nodes, period, maxRedists, o.Paper))
		}
	}
	runs := make([]Fig5Run, len(worlds))
	if _, err := runWorlds(worlds, func(i int, w sweep.Outcome) error {
		period := periods[i/len(fig5Tests)]
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
