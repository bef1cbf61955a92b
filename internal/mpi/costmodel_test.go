package mpi

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/vclock"
)

// TestGatherCheaperThanAllgather pins the gather pricing bug this engine
// fixes: Gather used to be priced as a full Allgather, but the modelled
// root-terminated binomial gather moves only n-1 contribution blocks in
// total (recursive halving toward the root), so for any group of at least 4
// members with a non-empty payload it must be strictly cheaper on both the
// wire and the per-member CPU charge.
func TestGatherCheaperThanAllgather(t *testing.T) {
	net := cluster.DefaultNet()
	for _, n := range []int{4, 5, 8, 16, 64, 256, 1024} {
		for _, bytes := range []int{8, 1024, 1 << 20} {
			ga := gatherCost(net, n, bytes)
			ag := allgatherCost(net, n, bytes)
			if ga.wire >= ag.wire {
				t.Errorf("n=%d bytes=%d: gather wire %v >= allgather wire %v", n, bytes, ga.wire, ag.wire)
			}
			if ga.cpuEach >= ag.cpuEach {
				t.Errorf("n=%d bytes=%d: gather cpu %v >= allgather cpu %v", n, bytes, ga.cpuEach, ag.cpuEach)
			}
		}
	}
}

// TestGatherFinishBeatsAllgatherInWorld is the world-level counterpart:
// identical groups running one Gather and one Allgather of the same payload
// must observe the gather completing strictly earlier in virtual time, and
// non-root members must receive nil from the gather (no free copy of the
// gathered slice).
func TestGatherFinishBeatsAllgatherInWorld(t *testing.T) {
	const n, bytes = 8, 4096
	err := Run(cluster.New(cluster.Uniform(n)), func(c *Comm) error {
		g := c.World().AllGroup()
		start := c.Now()
		res := c.Gather(g, 0, c.Rank(), bytes)
		gatherT := c.Now().Sub(start)
		if c.Rank() == 0 {
			if len(res) != n {
				t.Errorf("root gathered %d contributions, want %d", len(res), n)
			}
		} else if res != nil {
			t.Errorf("rank %d: non-root gather result non-nil", c.Rank())
		}
		start = c.Now()
		if err := c.AllgatherF64sIntoErr(g, make([]float64, bytes/8), make([]float64, n*bytes/8)); err != nil {
			return err
		}
		allgatherT := c.Now().Sub(start)
		if gatherT >= allgatherT {
			t.Errorf("rank %d: gather took %v, allgather %v — gather must be strictly cheaper", c.Rank(), gatherT, allgatherT)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCollectiveCostMonotone is the cost-model property test: for every
// collective shape, both the wire time (which extends the group finish time)
// and the per-member CPU charge must be monotone non-decreasing in the group
// size and in the payload bytes. A dip in either direction would let a
// *larger* problem finish earlier, which breaks the adaptation logic's
// predicted-time comparisons.
func TestCollectiveCostMonotone(t *testing.T) {
	net := cluster.DefaultNet()
	sizes := make([]int, 0, 140)
	for n := 1; n <= 130; n++ {
		sizes = append(sizes, n)
	}
	sizes = append(sizes, 256, 511, 512, 513, 1024)
	payloads := []int{0, 8, 64, 512, 4096, 1 << 16, 1 << 20}

	models := []struct {
		name string
		cost func(n, bytes int) collCost
	}{
		{"barrier", func(n, _ int) collCost { return barrierCost(net, n) }},
		{"bcast", func(n, b int) collCost { return bcastCost(net, n, b) }},
		{"allreduce", func(n, b int) collCost { return allreduceCost(net, n, b) }},
		{"allgather", func(n, b int) collCost { return allgatherCost(net, n, b) }},
		{"gather", func(n, b int) collCost { return gatherCost(net, n, b) }},
	}
	for _, m := range models {
		// Monotone in group size for every fixed payload.
		for _, b := range payloads {
			prev := m.cost(sizes[0], b)
			for _, n := range sizes[1:] {
				cur := m.cost(n, b)
				if cur.wire < prev.wire || cur.cpuEach < prev.cpuEach {
					t.Errorf("%s: cost not monotone in n at n=%d bytes=%d: %v/%v after %v/%v",
						m.name, n, b, cur.wire, cur.cpuEach, prev.wire, prev.cpuEach)
				}
				prev = cur
			}
		}
		// Monotone in payload for every fixed group size.
		for _, n := range sizes {
			prev := m.cost(n, payloads[0])
			for _, b := range payloads[1:] {
				cur := m.cost(n, b)
				if cur.wire < prev.wire || cur.cpuEach < prev.cpuEach {
					t.Errorf("%s: cost not monotone in bytes at n=%d bytes=%d: %v/%v after %v/%v",
						m.name, n, b, cur.wire, cur.cpuEach, prev.wire, prev.cpuEach)
				}
				prev = cur
			}
		}
	}
}

// TestCollectiveFinishMonotoneInWorld spot-checks the property at world
// level: the virtual time a barrier+allreduce pair takes must not decrease
// when the group grows or the vector lengthens.
func TestCollectiveFinishMonotoneInWorld(t *testing.T) {
	elapsed := func(n, elems int) vclock.Duration {
		var d vclock.Duration
		err := Run(cluster.New(cluster.Uniform(n)), func(c *Comm) error {
			g := c.World().AllGroup()
			buf := make([]float64, elems)
			c.Barrier(g)
			c.AllreduceF64sInto(g, buf, Sum)
			if c.Rank() == 0 {
				d = c.Now().Sub(0)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	prev := elapsed(2, 16)
	for _, n := range []int{3, 4, 8, 17, 32} {
		cur := elapsed(n, 16)
		if cur < prev {
			t.Errorf("finish time decreased growing group to %d: %v after %v", n, cur, prev)
		}
		prev = cur
	}
	prev = elapsed(8, 1)
	for _, elems := range []int{16, 64, 1024} {
		cur := elapsed(8, elems)
		if cur < prev {
			t.Errorf("finish time decreased growing vector to %d: %v after %v", elems, cur, prev)
		}
		prev = cur
	}
}
