package core

import (
	"strconv"

	"repro/internal/distribution"
)

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

// admitted returns the membership that takes in extra (joiners or rejoiners,
// unloaded by definition) beside the active ranks carrying loads: the new
// active list and the load baseline it adopts, in rank order and fresh (both
// are installed and shipped), and its node view in scratch.
func (rt *Runtime) admitted(extra, loads []int) (newActive, newBase []int, nodes []distribution.Node) {
	nodes = rt.nodesOf(rt.active, loads)
	for _, r := range extra {
		nodes = append(nodes, distribution.Node{Rank: r, Power: rt.comm.World().Cluster().Node(r).Power()})
		// Insertion by rank: the active list is in rank order already.
		for i := len(nodes) - 1; i > 0 && nodes[i].Rank < nodes[i-1].Rank; i-- {
			nodes[i], nodes[i-1] = nodes[i-1], nodes[i]
		}
	}
	rt.nodesBuf = nodes
	both := make([]int, 2*len(nodes))
	newActive, newBase = both[:len(nodes):len(nodes)], both[len(nodes):]
	for i, n := range nodes {
		newActive[i], newBase[i] = n.Rank, n.Load
	}
	return newActive, newBase, nodes
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

// rebase installs the load baseline a membership change leaves behind and
// returns the state machine to normal: what was being measured is void.
func (rt *Runtime) rebase(base []int) {
	rt.baseLoads = base
	rt.state = stNormal
	rt.collector = nil
	rt.cycTimer = nil
	rt.cycOpen = false
}

// appendInts appends key and then xs as fmt's %v renders an int slice
// ("[1 0 2]"), without boxing every element.
func appendInts(b []byte, key string, xs []int) []byte {
	b = append(append(b, key...), '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return append(b, ']')
}
