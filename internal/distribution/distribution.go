// Package distribution implements Dyn-MPI's data-distribution decision
// machinery (paper §4.3): the relative-power baseline, the successive
// balancing algorithm driven by a two-node pair model, weighted
// partitioning of (possibly nonuniform) iterations into variable blocks,
// execution-time prediction for unloaded configurations, and the node-drop
// decision (§4.4). Decide (decide.go) is the whole policy as one pure
// function of the measured inputs.
package distribution

import (
	"fmt"
	"math"
)

// Node is one candidate participant as seen by the balancer.
type Node struct {
	Rank  int     // world rank
	Power float64 // static relative CPU speed
	Load  int     // competing processes currently runnable (from the load monitor)
}

// PairModel answers the two-node question underlying successive balancing:
// if a node with k competing processes shares a workload with an identical
// unloaded node, what fraction of the work should the loaded node receive?
// ratio is the computation/communication ratio: total per-cycle compute
// time divided by the per-node per-cycle communication CPU time.
type PairModel interface {
	Fraction(k int, ratio float64) float64
}

// AnalyticModel is the closed-form pair model for the quantum-sharing cost
// model: a node with k CPs computes (1+k)x slower and pays its per-cycle
// communication CPU (1+k)x slower too. Equalising completion times of
//
//	loaded:   w·(1+k) + C·(1+k)
//	unloaded: (W−w)    + C
//
// gives w/W = (1 − k/R) / (2+k) with R = W/C, clamped to [0, 1/(2+k)].
// As R→∞ this converges to the naive relative-power fraction 1/(2+k);
// for small R the loaded node should receive strictly less — the paper's
// central observation about why relative power misdistributes.
type AnalyticModel struct{}

// Fraction implements PairModel.
func (AnalyticModel) Fraction(k int, ratio float64) float64 {
	if k <= 0 {
		return 0.5
	}
	naive := 1.0 / float64(2+k)
	if ratio <= 0 || math.IsInf(ratio, 1) {
		return naive
	}
	f := (1.0 - float64(k)/ratio) / float64(2+k)
	if f < 0 {
		return 0
	}
	if f > naive {
		return naive
	}
	return f
}

// RelativePowerFractions is the baseline from CRAUL [2]: each node's share
// is proportional to power/(1+load), ignoring communication.
func RelativePowerFractions(nodes []Node) []float64 {
	return RelativePowerFractionsInto(nil, nodes)
}

// RelativePowerFractionsInto is RelativePowerFractions with the result in
// buf's array when that is large enough: callers that decide at every
// membership change keep one buffer.
func RelativePowerFractionsInto(buf []float64, nodes []Node) []float64 {
	caps := sized(buf, len(nodes))
	var sum float64
	for i, n := range nodes {
		caps[i] = n.Power / float64(1+n.Load)
		sum += caps[i]
	}
	for i := range caps {
		caps[i] /= sum
	}
	return caps
}

// SuccessiveBalancingFractions implements the paper's algorithm: reduce the
// multi-node problem to loaded/unloaded pairs. Each loaded node's share comes
// from the pair model at the workload's comp/comm ratio, and the remainder is
// balanced across the unloaded nodes by power. The pair ratio depends only on
// the workload shape, never on the fractions, so one round is the fixpoint.
//
// totalComp is the whole workload's per-cycle compute time on a power-1
// node; commCPU is one node's per-cycle communication CPU time. Both only
// matter through their ratio and scale. A nil model is AnalyticModel.
func SuccessiveBalancingFractions(nodes []Node, totalComp, commCPU float64, model PairModel) []float64 {
	if model == nil {
		model = AnalyticModel{}
	}
	return successiveBalancingInto(nil, nodes, totalComp, commCPU, model)
}

// successiveBalancingInto is SuccessiveBalancingFractions into buf's array.
func successiveBalancingInto(buf []float64, nodes []Node, totalComp, commCPU float64, model PairModel) []float64 {
	if !hasUnloaded(nodes) {
		return RelativePowerFractionsInto(buf, nodes) // nothing to pair against; relative power is the best guess
	}
	// The pair model is calibrated on a two-node split of the node's
	// neighbourhood workload: the loaded node plus one unloaded peer share
	// 2/p of the total compute.
	ratio := math.Inf(1)
	if commCPU > 0 {
		ratio = totalComp * 2 / float64(len(nodes)) / commCPU
	}
	caps := sized(buf, len(nodes))
	var capSum float64
	for i, n := range nodes {
		caps[i] = n.Power
		if n.Load != 0 {
			phi := model.Fraction(n.Load, ratio)
			if phi >= 0.5 {
				phi = 0.499
			}
			// A pair fraction φ means capacity φ/(1−φ) relative to one
			// unloaded node of the same power.
			caps[i] = n.Power * phi / (1 - phi)
		}
		capSum += caps[i]
	}
	for i := range caps {
		caps[i] /= capSum
	}
	return caps
}

func hasUnloaded(nodes []Node) bool {
	for _, n := range nodes {
		if n.Load == 0 {
			return true
		}
	}
	return false
}

// PartitionWeighted splits the iteration space into contiguous blocks whose
// summed iteration costs best match the target fractions. iterCosts[g] is
// the unloaded cost of iteration g (uniform apps pass all-equal costs);
// fractions must sum to ~1. The result is per-node counts in order.
func PartitionWeighted(iterCosts []float64, fractions []float64) []int {
	return PartitionWeightedInto(nil, iterCosts, fractions)
}

// PartitionWeightedInto is PartitionWeighted with the counts in buf's array
// when that is large enough.
func PartitionWeightedInto(buf []int, iterCosts []float64, fractions []float64) []int {
	n, p := len(iterCosts), len(fractions)
	counts := sized(buf, p)
	if n == 0 {
		return counts
	}
	var total float64
	for _, w := range iterCosts {
		if w < 0 {
			panic(fmt.Sprintf("distribution: negative iteration cost %v", w))
		}
		total += w
	}
	if total == 0 {
		// Degenerate: treat iterations as uniform.
		return PartitionWeightedInto(counts, ones(n), fractions)
	}
	// Walk the prefix sums, cutting at the cumulative targets; each block
	// boundary goes to whichever side is closer to its target.
	cum := 0.0
	target := 0.0
	g := 0
	for i := 0; i < p; i++ {
		target += fractions[i] * total
		start := g
		for g < n && cum < target {
			// Assign iteration g to block i if its midpoint is before the
			// target (closest-cut rule).
			if cum+iterCosts[g]/2 > target {
				break
			}
			cum += iterCosts[g]
			g++
		}
		counts[i] = g - start
	}
	// Remainder (rounding) goes to the last non-empty-capable node.
	if g < n {
		counts[p-1] += n - g
	}
	return counts
}

// sized returns a zeroed slice of length n, buf's array when it holds n.
func sized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

func ones(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

// PredictCycleTime estimates one phase-cycle's wall time for a candidate
// assignment: the slowest node's compute plus its communication, with load
// inflation applied to CPU components. counts are iterations per node
// (aligned with nodes); iterCosts are per-iteration unloaded costs on a
// power-1 node; commCPU and commWire are per-node per-cycle communication
// costs in seconds. A node's compute is the difference of the running cost
// sum at its block's ends, so nothing is allocated.
func PredictCycleTime(nodes []Node, counts []int, iterCosts []float64, commCPU, commWire float64) float64 {
	if len(nodes) != len(counts) {
		panic("distribution: nodes/counts mismatch")
	}
	worst, cum, g := 0.0, 0.0, 0
	for i, n := range nodes {
		start := cum
		for end := g + counts[i]; g < end; g++ {
			cum += iterCosts[g]
		}
		inflate := float64(1+n.Load) / n.Power
		t := (cum-start)*inflate + commCPU*inflate + commWire
		if t > worst {
			worst = t
		}
	}
	return worst
}
