package core

import "repro/internal/distribution"

// Rank-owned scratch for what a rank computes at every adaptation event and
// nothing retains: the balancer's node view, fractions and partition counts.
// A result in scratch is valid until the next call of the same helper.

// nodesOf fills the node scratch with the balancer's view of ranks: each
// one's static power and its entry of loads (nil: all unloaded).
func (rt *Runtime) nodesOf(ranks, loads []int) []distribution.Node {
	cl := rt.comm.World().Cluster()
	if rt.nodesBuf == nil {
		// Sized once for the largest membership the world can hold.
		rt.nodesBuf = make([]distribution.Node, 0, cl.MaxN())
		rt.fracBuf = make([]float64, 0, cl.MaxN())
		rt.countBuf = make([]int, 0, cl.MaxN())
	}
	nodes := rt.nodesBuf[:0]
	for i, r := range ranks {
		n := distribution.Node{Rank: r, Power: cl.Node(r).Power()}
		if loads != nil {
			n.Load = loads[i]
		}
		nodes = append(nodes, n)
	}
	rt.nodesBuf = nodes
	return nodes
}

// costs returns the measured iteration costs, uniform ones before any grace
// period measured them.
func (rt *Runtime) costs() []float64 {
	if rt.iterCosts != nil {
		return rt.iterCosts
	}
	if rt.unitCosts == nil {
		rt.unitCosts = make([]float64, rt.n)
		for i := range rt.unitCosts {
			rt.unitCosts[i] = 1
		}
	}
	return rt.unitCosts
}

// powerCounts partitions the iterations costed by costs over nodes by
// relative power, into scratch.
func (rt *Runtime) powerCounts(nodes []distribution.Node, costs []float64) []int {
	rt.fracBuf = distribution.RelativePowerFractionsInto(rt.fracBuf, nodes)
	rt.countBuf = distribution.PartitionWeightedInto(rt.countBuf, costs, rt.fracBuf)
	return rt.countBuf
}

// atLeast returns buf emptied, with room for n elements before it grows.
func atLeast[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, 0, n)
	}
	return buf[:0]
}
