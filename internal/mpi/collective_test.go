package mpi

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/alloctest"
	"repro/internal/cluster"
)

// TestAllreduceFoldsInSlotOrder pins the reduction's association: every
// member's result is the sequential left fold over group slots 0…n−1, bit
// for bit, whatever order the members physically arrive in. A
// non-associative operator makes any other association visible in the first
// element; Sum over values spread across sixty binary orders of magnitude
// makes it visible in the rounding.
func TestAllreduceFoldsInSlotOrder(t *testing.T) {
	const vecLen, rounds = 64, 3
	n := 1024
	if testing.Short() {
		n = 64
	}
	contrib := func(slot, i int) float64 {
		v := math.Ldexp(1+float64((slot*31+i*17)%97)/97, (slot*13+i)%60-30)
		if (slot+i)%3 == 0 {
			v = -v
		}
		return v
	}
	ops := []struct {
		name string
		fn   func(a, b float64) float64
	}{
		{"halve-and-add", func(a, b float64) float64 { return 0.5*a + b }},
		{"sum", Sum},
	}
	want := make([][]float64, len(ops))
	for k, op := range ops {
		want[k] = make([]float64, vecLen)
		for i := range want[k] {
			acc := contrib(0, i)
			for s := 1; s < n; s++ {
				acc = op.fn(acc, contrib(s, i))
			}
			want[k][i] = acc
		}
	}
	run(t, n, func(c *Comm) error {
		g := c.World().AllGroup()
		slot, _ := g.Slot(c.Rank())
		buf := make([]float64, vecLen)
		for r := 0; r < rounds; r++ {
			for k, op := range ops {
				for i := range buf {
					buf[i] = contrib(slot, i)
				}
				// Scramble the physical arrival order, differently each time.
				for y := (slot*7919 + (r*len(ops)+k)*104729) % 23; y > 0; y-- {
					runtime.Gosched()
				}
				c.AllreduceF64sInto(g, buf, op.fn)
				for i, v := range buf {
					if math.Float64bits(v) != math.Float64bits(want[k][i]) {
						return fmt.Errorf("%s, round %d, slot %d: element %d = %v, slot-order fold %v", op.name, r, slot, i, v, want[k][i])
					}
				}
			}
		}
		return nil
	})
}

// TestShortDestinationFailsRun: a []float64 result never lands truncated. An
// allgather destination shorter than the group fails at entry, and a
// broadcast destination shorter than the root's buffer fails at copy-out;
// either way the run's error names the op and both lengths.
func TestShortDestinationFailsRun(t *testing.T) {
	cases := []struct {
		op   string
		body func(c *Comm, g *Group)
	}{
		{"allgather-f64", func(c *Comm, g *Group) {
			c.AllgatherF64sInto(g, float64(c.Rank()), make([]float64, 2))
		}},
		{"bcast", func(c *Comm, g *Group) {
			buf := make([]float64, 2)
			if c.Rank() == 0 {
				buf = []float64{1, 2, 3, 4}
			}
			c.BcastF64sInto(g, 0, buf)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.op, func(t *testing.T) {
			err := Run(cluster.New(cluster.Uniform(4)), func(c *Comm) error {
				tc.body(c, c.World().AllGroup())
				return nil
			})
			if want := tc.op + " destination has length 2, want 4"; err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("err = %v, want one containing %q", err, want)
			}
		})
	}
}

// TestCollectiveCycleAllocFree holds the collective engine's steady state
// allocation-free: a run of 2K cycles at 64 ranks allocates what a run of K
// cycles does — world set-up, the ring slots' first result vectors and
// teardown are common to both — so the difference is what K extra cycles
// cost. One cycle runs each vector collective and the two scalar ones; a
// single object per cycle would already cost K. On one P the difference
// read 0 on each of 200 runs, -race included; slack is left for the
// runtime's own.
func TestCollectiveCycleAllocFree(t *testing.T) {
	const (
		ranks  = 64
		cycles = 200
		slack  = 64
	)
	extra := alloctest.Extra(cycles, func(k int) {
		run(t, ranks, func(c *Comm) error {
			g := c.World().AllGroup()
			row, vec, all := make([]float64, 64), make([]float64, 64), make([]float64, ranks)
			for i := 0; i < k; i++ {
				c.BcastF64sInto(g, 0, row)
				c.AllreduceF64sInto(g, vec, Sum)
				c.AllreduceSum(g, 1)
				c.AllgatherF64sInto(g, float64(c.Rank()), all)
				c.Barrier(g)
			}
			return nil
		})
	})
	t.Logf("%d extra cycles: %d mallocs", cycles, extra)
	if extra > slack {
		t.Errorf("%d extra cycles on %d ranks cost %d mallocs, want at most %d", cycles, ranks, extra, slack)
	}
}
