package exp

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/distribution"
	"repro/internal/sweep"
)

// The §4.3 study: the two-node micro-benchmark table of effective
// loaded-node work fractions across computation/communication ratios, the
// analytic model's predictions, and an end-to-end comparison of successive
// balancing against the naive relative-power method. Its competing-process
// counts and ratios cover the paper's regimes.
var (
	microbenchCPs    = []int{1, 2, 3}
	microbenchRatios = []float64{1, 2, 4, 8, 16, 64, 256}
)

// MicrobenchResult holds the measured and analytic fractions plus the
// end-to-end method comparison.
type MicrobenchResult struct {
	CPs      []int
	Ratios   []float64
	Measured map[int][]float64
	Analytic map[int][]float64
	Naive    map[int]float64 // relative-power fraction per CP count

	// SBTime / RPTime compare adaptive Jacobi with the two methods in a
	// communication-heavy configuration (total virtual seconds).
	SBTime, RPTime float64
	// SBCycle / RPCycle are the average post-redistribution phase-cycle
	// times — the steady-state quality of each method's distribution.
	SBCycle, RPCycle float64
}

// RunMicrobench measures the table and the method comparison.
func RunMicrobench() (*MicrobenchResult, error) {
	res := &MicrobenchResult{
		CPs: microbenchCPs, Ratios: microbenchRatios,
		Measured: map[int][]float64{}, Analytic: map[int][]float64{}, Naive: map[int]float64{},
	}
	model := distribution.AnalyticModel{}
	for _, k := range microbenchCPs {
		ms := make([]float64, len(microbenchRatios))
		as := make([]float64, len(microbenchRatios))
		for i, r := range microbenchRatios {
			ms[i] = distribution.MeasurePairFraction(k, r)
			as[i] = model.Fraction(k, r)
		}
		res.Measured[k] = ms
		res.Analytic[k] = as
		res.Naive[k] = 1.0 / float64(2+k)
	}

	// End to end: the two methods on methodComparison's world.
	avgs, out, err := steadyCycles([]sweep.World{methodComparison(core.SuccessiveBalancing), methodComparison(core.RelativePower)})
	if err != nil {
		return nil, fmt.Errorf("microbench end-to-end: %w", err)
	}
	res.SBTime, res.SBCycle = out[0].Elapsed, avgs[0]
	res.RPTime, res.RPCycle = out[1].Elapsed, avgs[1]
	return res, nil
}

// methodComparison is the end-to-end world of the method comparison: Jacobi
// in the regime where the method choice matters — communication CPU is
// comparable to per-node compute (pair ratio ≈ 2), so the naive method
// overloads the loaded node with work it cannot complete once its
// communication CPU is inflated.
func methodComparison(method core.Method) sweep.World {
	w := sweep.World{App: "jacobi", Rows: 256, Cols: 2048, Iters: 200, Cost: 10, Trace: true}
	w.Core = core.DefaultConfig()
	w.Core.Drop = core.DropNever
	w.Core.Method = method
	w.Spec = cluster.Uniform(4).With(cluster.TimeEvent(1, 0, +1))
	return w
}

// Table renders the fraction table and the method comparison.
func (r *MicrobenchResult) Table() *Table {
	t := &Table{
		Caption: "§4.3 micro-benchmarks: loaded-node work fraction vs comp/comm ratio (measured by simulation; naive = relative power)",
		Header:  []string{"CPs", "ratio", "measured", "analytic", "naive"},
	}
	for _, k := range r.CPs {
		for i, ratio := range r.Ratios {
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(k), fmt.Sprint(ratio),
				f3(r.Measured[k][i]), f3(r.Analytic[k][i]), f3(r.Naive[k]),
			})
		}
	}
	t.Rows = append(t.Rows,
		[]string{"", "", "", "", ""},
		[]string{"jacobi", "succ-balance", f2(r.SBTime) + "s", f2(r.SBCycle*1000) + "ms/cyc", ""},
		[]string{"jacobi", "rel-power", f2(r.RPTime) + "s", f2(r.RPCycle*1000) + "ms/cyc", ""},
		[]string{"jacobi", "SB benefit", pct((r.RPTime - r.SBTime) / r.RPTime), pct((r.RPCycle - r.SBCycle) / r.RPCycle), ""},
	)
	return t
}
