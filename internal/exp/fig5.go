package exp

import (
	"fmt"

	"repro/internal/apps/jacobi"
	"repro/internal/cluster"
	"repro/internal/core"
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

func runFig5Case(nodes, period int, maxRedists int, adapt bool, paper bool) (Fig5Run, error) {
	cfg := jacobi.DefaultConfig()
	if paper {
		cfg.Rows, cfg.Cols, cfg.CostPerElem = 2048, 2048, 40
	} else {
		// Wide rows keep redistribution expensive relative to a cycle, the
		// property that makes the second redistribution unprofitable for
		// short periods (see EXPERIMENTS.md).
		cfg.Rows, cfg.Cols, cfg.CostPerElem = 512, 2048, 150
	}
	cfg.Iters = 3 * period
	cfg.Core = core.DefaultConfig()
	cfg.Core.Adapt = adapt
	cfg.Core.Drop = core.DropNever
	cfg.Core.MaxRedists = maxRedists
	ring := traced(&cfg.Core)

	spec := cluster.Uniform(nodes).
		With(cluster.CycleEvent(1, period, +1)).
		With(cluster.CycleEvent(1, 2*period, -1))
	res, err := jacobi.Run(cluster.New(spec), cfg)
	if err != nil {
		return Fig5Run{}, err
	}
	redists, err := redistsOf(ring)
	if err != nil {
		return Fig5Run{}, err
	}
	// A period ends when its last cycle's slowest node emits that cycle's
	// iteration record.
	var boundaries [3]float64
	ring.Walk(telemetry.Visitor{Iteration: func(v *telemetry.IterationRecord) {
		for i := 1; i <= 3; i++ {
			if v.Cycle == i*period-1 && v.Time > boundaries[i-1] {
				boundaries[i-1] = v.Time
			}
		}
	}})
	name := "no-redist"
	if adapt {
		if maxRedists == 1 {
			name = "redist-once"
		} else {
			name = "redist-twice"
		}
	}
	return Fig5Run{
		Test:       name,
		Period:     period,
		Total:      res.Elapsed,
		Redist:     totalRedistSeconds(redists),
		Redists:    res.Redists,
		PeriodEnds: boundaries,
	}, nil
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
	out := &Fig5Result{}
	for _, period := range []int{o.ShortPeriod, o.LongPeriod} {
		var runs []Fig5Run
		for _, c := range []struct {
			adapt bool
			max   int
		}{{false, 0}, {true, 1}, {true, 2}} {
			r, err := runFig5Case(o.Nodes, period, c.max, c.adapt, o.Paper)
			if err != nil {
				return nil, fmt.Errorf("fig5 period %d: %w", period, err)
			}
			runs = append(runs, r)
		}
		if period == o.ShortPeriod {
			out.Short = runs
		} else {
			out.Long = runs
		}
	}
	return out, nil
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
