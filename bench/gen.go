package main

import (
	"hash/fnv"

	"repro/internal/cluster"
	"repro/internal/vclock"
)

// loadEvent is one generated competing-process change. The timeline is
// echoed in every output document so a run is reproducible from its JSON.
type loadEvent struct {
	World string `json:"world"`
	Node  int    `json:"node"`
	Cycle int    `json:"cycle"`
	Delta int    `json:"delta"`
}

// inputs is what the seed generated for one workload. The program under
// measurement only ever receives the cluster specs and configs built from
// it, never the seed itself.
type inputs struct {
	Workload    string      `json:"workload"`
	Seed        uint64      `json:"seed"`
	ClusterSeed uint64      `json:"cluster_seed"`
	Timeline    []loadEvent `json:"timeline"`
}

// Generator sub-streams: one per concern, so adding a concern never
// reshuffles what an existing seed generated for the others.
const (
	streamNode = iota + 1
	streamCycle
)

// gen draws a workload's load timeline from the seed. Every draw stays
// inside a fixed window, and a competing process always stays for a fixed
// number of cycles: the seed moves where and when the load lands, not how
// much of it there is, so runs of different seeds do comparable work.
type gen struct {
	in          inputs
	node, cycle *vclock.PRNG
}

func newGen(workload string, seed uint64) *gen {
	// Mixing the name in gives two workloads of one seed different timelines.
	h := fnv.New64a()
	h.Write([]byte(workload))
	root := vclock.NewPRNG(seed ^ h.Sum64())
	return &gen{
		in:    inputs{Workload: workload, Seed: seed, ClusterSeed: cluster.Uniform(1).Seed + seed},
		node:  root.Fork(streamNode),
		cycle: root.Fork(streamCycle),
	}
}

// uniform builds the workload's cluster: n identical nodes with the
// seed-offset master seed (it drives timeslice jitter and wake-up delays on
// loaded nodes).
func (g *gen) uniform(n int) cluster.Spec {
	spec := cluster.Uniform(n)
	spec.Seed = g.in.ClusterSeed
	return spec
}

// nodeIn picks a node in [lo, hi).
func (g *gen) nodeIn(lo, hi int) int { return lo + g.node.Intn(hi-lo) }

// cycleIn picks a cycle in [lo, hi).
func (g *gen) cycleIn(lo, hi int) int { return lo + g.cycle.Intn(hi-lo) }

// visit records a competing process arriving on node at cycle and, when
// stay > 0, leaving stay cycles later; it returns the cluster events.
func (g *gen) visit(world string, node, cycle, stay int) []cluster.Event {
	g.in.Timeline = append(g.in.Timeline, loadEvent{world, node, cycle, +1})
	evs := []cluster.Event{cluster.CycleEvent(node, cycle, +1)}
	if stay > 0 {
		g.in.Timeline = append(g.in.Timeline, loadEvent{world, node, cycle + stay, -1})
		evs = append(evs, cluster.CycleEvent(node, cycle+stay, -1))
	}
	return evs
}
