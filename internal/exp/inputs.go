package exp

import "repro/internal/sweep"

// Size selects the column of the input table that the five paper studies
// (fig4, cg-table, fig5, fig6, fig7) run.
type Size int

const (
	// Scaled is the laptop-friendly column, calibrated to keep the
	// paper's computation/communication ratios.
	Scaled Size = iota
	// Paper is the paper's own inputs: its array sizes, iteration counts
	// and Fig. 5's periods.
	Paper
)

// inputs is one column of the input table: the worlds a paper study builds
// its runs from, before the study adds its scenario (nodes, competing
// processes, policy, ring).
type inputs struct {
	fig4        [4]sweep.World // one per application, in Figure 4's row order
	cgTable     sweep.World
	fig5        sweep.World // Iters is three periods, set per period
	fig5Periods [2]int      // cycles per period: the short and the long execution
	fig6        sweep.World
	fig7        sweep.World
}

// table is the input table, both columns. The scaled column is calibrated,
// not derived from the paper's: CG runs 150 iterations in Figure 4 but 100
// in the case study, and Jacobi costs 600 ns per element in Figure 4 but
// 150 in Figure 5 (EXPERIMENTS.md, "Calibration of the scaled inputs"). A
// zero Cost is the application's default.
var table = [...]inputs{
	Scaled: {
		fig4: [4]sweep.World{
			{App: "jacobi", Rows: 512, Cols: 512, Iters: 250, Cost: 600},
			{App: "sor", Rows: 512, Cols: 512, Iters: 250, Cost: 600},
			{App: "cg", N: 2000, Iters: 150, Cost: 4600},
			{App: "particles", Rows: 128, Cols: 128, Iters: 250, Cost: 5000},
		},
		cgTable: sweep.World{App: "cg", N: 2000, Iters: 100, Cost: 4600},
		// Wide rows keep redistribution expensive relative to a cycle, the
		// property that makes the second redistribution unprofitable for
		// short periods.
		fig5:        sweep.World{App: "jacobi", Rows: 512, Cols: 2048, Cost: 150},
		fig5Periods: [2]int{30, 150},
		// Per-node cycles are much longer than the scheduler quantum on 8
		// nodes (competitor spikes average out within a cycle and keeping
		// the loaded node pays off) but comparable to it on 32 (lumpy
		// inflation and communication costs make dropping win): the
		// crossover §5.3 demonstrates.
		fig6: sweep.World{App: "sor", Rows: 512, Cols: 1024, Iters: 120, Cost: 1500},
		// The cost keeps even Part=50 rows under the 10 ms /PROC
		// granularity, the experiment's premise.
		fig7: sweep.World{App: "particles", Rows: 128, Cols: 96, Iters: 250, Cost: 1500},
	},
	Paper: {
		fig4: [4]sweep.World{
			{App: "jacobi", Rows: 2048, Cols: 2048, Iters: 250, Cost: 40},
			{App: "sor", Rows: 2048, Cols: 2048, Iters: 250, Cost: 40},
			{App: "cg", N: 14000, Iters: 75, Cost: 2750},
			{App: "particles", Rows: 256, Cols: 256, Iters: 200},
		},
		cgTable:     sweep.World{App: "cg", N: 14000, Iters: 75, Cost: 2750},
		fig5:        sweep.World{App: "jacobi", Rows: 2048, Cols: 2048, Cost: 40},
		fig5Periods: [2]int{50, 500},
		// Ultra-Sparc 5 (360MHz) scale.
		fig6: sweep.World{App: "sor", Rows: 1024, Cols: 1024, Iters: 200, Cost: 1500},
		fig7: sweep.World{App: "particles", Rows: 256, Cols: 256, Iters: 200},
	},
}

// inputs returns the column s selects.
func (s Size) inputs() inputs { return table[s] }
