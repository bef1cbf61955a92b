package exp

import (
	"fmt"

	"repro/internal/apps/particles"
	"repro/internal/cluster"
	"repro/internal/core"
)

// Fig7Options parameterises the unbalanced-computation experiment (§5.4):
// the particle simulation on 8 nodes with the top half of P0's rows seeded
// with Part extra particles per cell, comparing grace periods of 1 and 5
// phase cycles. Iterations run well under the 10 ms /PROC granularity, so
// the runtime must rely on min-filtered wallclock timing; a 1-cycle grace
// period keeps context-switch spikes in the estimates and mis-sizes the
// distribution.
type Fig7Options struct {
	Nodes int
	Parts []int // paper: 10 and 50
	Paper bool
}

// DefaultFig7Options returns the paper's configuration at laptop scale.
func DefaultFig7Options() Fig7Options {
	return Fig7Options{Nodes: 8, Parts: []int{10, 50}}
}

// Fig7Row is one Part value's pair of bars.
type Fig7Row struct {
	Part    int
	GP1Avg  float64 // avg post-redistribution cycle seconds with GP=1
	GP5Avg  float64 // with GP=5
	Benefit float64 // (GP1-GP5)/GP1 — the paper reports 13% and 16%
}

// Fig7Result holds all Part values.
type Fig7Result struct {
	Rows []Fig7Row
}

func runFig7Case(nodes, part, gp int, paper bool) (float64, error) {
	cfg := particles.DefaultConfig()
	if paper {
		cfg.Rows, cfg.Cols, cfg.Steps = 256, 256, 200
	} else {
		// CostPerParticle keeps even Part=50 rows under the 10 ms /PROC
		// granularity, the experiment's premise.
		cfg.Rows, cfg.Cols, cfg.Steps, cfg.CostPerParticle = 128, 96, 250, 1500
	}
	cfg.ExtraTopP0 = part
	cfg.Core = core.DefaultConfig()
	cfg.Core.Drop = core.DropNever
	cfg.Core.GracePeriod = gp
	ring := traced(&cfg.Core)
	spec := cluster.Uniform(nodes).With(cluster.CycleEvent(0, 10, +1))
	res, err := particles.Run(cluster.New(spec), cfg)
	if err != nil {
		return 0, err
	}
	redists, err := redistsOf(ring)
	if err != nil {
		return 0, err
	}
	avg, ok := avgCycleAfterRedist(redists, res.Elapsed, cfg.Steps)
	if !ok {
		return 0, fmt.Errorf("fig7 part=%d gp=%d: no redistribution occurred", part, gp)
	}
	return avg, nil
}

// RunFig7 executes the GP=1 vs GP=5 comparison for every Part value.
func RunFig7(o Fig7Options) (*Fig7Result, error) {
	if o.Nodes == 0 {
		o.Nodes = 8
	}
	if len(o.Parts) == 0 {
		o.Parts = []int{10, 50}
	}
	out := &Fig7Result{}
	for _, part := range o.Parts {
		g1, err := runFig7Case(o.Nodes, part, 1, o.Paper)
		if err != nil {
			return nil, err
		}
		g5, err := runFig7Case(o.Nodes, part, 5, o.Paper)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, Fig7Row{
			Part: part, GP1Avg: g1, GP5Avg: g5, Benefit: (g1 - g5) / g1,
		})
	}
	return out, nil
}

// Table renders the comparison.
func (r *Fig7Result) Table() *Table {
	t := &Table{
		Caption: "Figure 7: particle simulation, average post-redistribution cycle time — grace period 1 vs 5 (8 nodes, CP on P0 at step 10)",
		Header:  []string{"Part", "GP=1 (ms)", "GP=5 (ms)", "GP=5 benefit"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(row.Part), f2(row.GP1Avg * 1000), f2(row.GP5Avg * 1000), pct(row.Benefit),
		})
	}
	return t
}
