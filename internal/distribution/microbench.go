package distribution

import (
	"math"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/vclock"
)

// This file implements the paper's §4.3 micro-benchmarks: "our approach is
// to determine effective distributions by executing micro-benchmarks. We
// executed several synthetic programs for different computation to
// communication ratios." The runtime balances with AnalyticModel; the
// measured fractions are the check on it that `dynexp microbench` prints
// beside the analytic column.

// pairMakespan runs a synthetic two-node phase program for `cycles` phase
// cycles: node 1 carries k competing processes and fraction f of the
// compute; each cycle both nodes exchange one message whose per-side CPU
// cost is commCPU/2 (so each node spends commCPU per cycle on
// communication). It returns the later finish time in seconds.
func pairMakespan(k int, f, totalComp, commCPU float64, cycles int) float64 {
	spec := cluster.Uniform(2)
	for i := 0; i < k; i++ {
		spec = spec.With(cluster.TimeEvent(1, 0, +1))
	}
	// Tune the network so one zero-byte message costs exactly commCPU/2 of
	// CPU per side with negligible wire time.
	spec.Net = cluster.NetParams{
		Latency:       vclock.Microsecond,
		BytesPerSec:   1e12,
		CPUPerMsg:     vclock.FromSeconds(commCPU / 2),
		CPUPerByte:    0,
		MemBandwidth:  1e12,
		DiskBandwidth: 1e12,
	}
	work := [2]vclock.Duration{
		vclock.FromSeconds(totalComp * (1 - f)),
		vclock.FromSeconds(totalComp * f),
	}
	var finish [2]vclock.Time
	err := mpi.Run(cluster.New(spec), func(c *mpi.Comm) error {
		me, peer := c.Rank(), 1-c.Rank()
		for t := 0; t < cycles; t++ {
			c.Node().Compute(work[me])
			c.Send(peer, t, nil, 0)
			c.Recv(peer, t)
		}
		finish[me] = c.Now()
		return nil
	})
	if err != nil {
		panic(err) // synthetic program cannot fail
	}
	return vclock.Max(finish[0], finish[1]).Seconds()
}

// MeasurePairFraction grid-searches the loaded node's work fraction that
// minimises the makespan of the synthetic pair program, for k competing
// processes at the given computation/communication ratio (pair compute
// divided by per-node comm CPU).
func MeasurePairFraction(k int, ratio float64) float64 {
	const (
		totalComp = 1.0 // seconds of pair compute per cycle
		cycles    = 4
		points    = 60
	)
	commCPU := totalComp / ratio
	bestF, bestT := 0.0, math.Inf(1)
	for i := 0; i <= points; i++ {
		f := 0.5 * float64(i) / points
		t := pairMakespan(k, f, totalComp, commCPU, cycles)
		if t < bestT {
			bestT, bestF = t, f
		}
	}
	return bestF
}
