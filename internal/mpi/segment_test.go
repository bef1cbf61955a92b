package mpi

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/alloctest"
	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/vclock"
)

// segBounds cuts a length-37 vector over six members raggedly, two of them
// with empty segments.
var segBounds = []int{0, 0, 9, 10, 10, 25, 37}

// segValue is row g's value: signs and magnitudes spread so that any fold
// other than adding into zero would show in the bits.
func segValue(g int) float64 {
	v := math.Ldexp(1+float64(g*17%31)/31, g%40-20)
	if g%3 == 0 {
		v = -v
	}
	return v
}

// segOf returns member slot's segment of segBounds and its offset.
func segOf(slot int) (off int, seg []float64) {
	lo, hi := segBounds[slot], segBounds[slot+1]
	seg = make([]float64, hi-lo)
	for g := lo; g < hi; g++ {
		seg[g-lo] = segValue(g)
	}
	return lo, seg
}

// TestSegmentCollectivesPriceAsTheCallsTheyReplace runs each segment
// collective beside the call it replaces, in one group: the boxed allgather
// of (offset, segment) pairs for AllgatherSegErr, and the sum-allreduce of
// zero-padded vectors for AllreduceSumSegErr. Before each call every member
// computes for a time of its own, so the deposits are staggered alike. Each
// member's clock must advance by the same amount across the pair, each
// shape's CollectiveStats must grow by the same count and bytes, and the
// results must be equal bit for bit.
func TestSegmentCollectivesPriceAsTheCallsTheyReplace(t *testing.T) {
	n := segBounds[len(segBounds)-1]
	type chunk struct {
		Lo  int
		Est []float64
	}
	cases := []struct {
		name string
		old  func(c *Comm, g *Group, off int, seg []float64) ([]float64, error)
		seg  func(c *Comm, g *Group, off int, seg []float64) ([]float64, error)
	}{
		{"allgather",
			func(c *Comm, g *Group, off int, seg []float64) ([]float64, error) {
				parts, err := c.AllgatherErr(g, chunk{Lo: off, Est: seg}, 8*len(seg)+8)
				if err != nil {
					return nil, err
				}
				out := make([]float64, n)
				for _, p := range parts {
					ch := p.(chunk)
					copy(out[ch.Lo:], ch.Est)
				}
				return out, nil
			},
			func(c *Comm, g *Group, off int, seg []float64) ([]float64, error) {
				return c.AllgatherSegErr(g, n, off, seg)
			}},
		{"allreduce",
			func(c *Comm, g *Group, off int, seg []float64) ([]float64, error) {
				buf := make([]float64, n)
				copy(buf[off:], seg)
				return buf, c.AllreduceF64sIntoErr(g, buf, Sum)
			},
			func(c *Comm, g *Group, off int, seg []float64) ([]float64, error) {
				return c.AllreduceSumSegErr(g, n, off, seg)
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run(t, len(segBounds)-1, func(c *Comm) error {
				g := c.World().AllGroup()
				slot, _ := g.Slot(c.Rank())
				off, seg := segOf(slot)
				step := func(call func(*Comm, *Group, int, []float64) ([]float64, error)) ([]float64, vclock.Duration, []CollectiveShape, error) {
					c.Node().Compute(vclock.Duration(slot+1) * vclock.Millisecond)
					t0 := c.Now()
					res, err := call(c, g, off, seg)
					return res, c.Now().Sub(t0), g.CollectiveStats(), err
				}
				before := g.CollectiveStats()
				want, oldAdv, oldStats, err := step(tc.old)
				if err != nil {
					return err
				}
				got, adv, stats, err := step(tc.seg)
				if err != nil {
					return err
				}
				if adv != oldAdv {
					return fmt.Errorf("slot %d: clock advanced %v, the replaced call %v", slot, adv, oldAdv)
				}
				for k := range stats {
					dc, dOld := stats[k].Count-oldStats[k].Count, oldStats[k].Count-before[k].Count
					db, dbOld := stats[k].Bytes-oldStats[k].Bytes, oldStats[k].Bytes-before[k].Bytes
					if dc != dOld || db != dbOld {
						return fmt.Errorf("slot %d: %s grew by %d ops, %d bytes; the replaced call by %d, %d", slot, stats[k].Op, dc, db, dOld, dbOld)
					}
				}
				if len(got) != len(want) {
					return fmt.Errorf("slot %d: result length %d, want %d", slot, len(got), len(want))
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						return fmt.Errorf("slot %d: element %d = %v, the replaced call %v", slot, i, got[i], want[i])
					}
				}
				return nil
			})
		})
	}
}

// TestSegmentResultSharedAllocBudget: every member of a segment collective
// gets the same slice, so an op costs its one result vector and the
// interface box it is published in, not a vector per member.
func TestSegmentResultSharedAllocBudget(t *testing.T) {
	const ranks, n, ops = 16, 64, 100
	calls := []struct {
		name string
		call func(c *Comm, g *Group, off int, seg []float64) ([]float64, error)
	}{
		{"allgather", func(c *Comm, g *Group, off int, seg []float64) ([]float64, error) {
			return c.AllgatherSegErr(g, n, off, seg)
		}},
		{"allreduce", func(c *Comm, g *Group, off int, seg []float64) ([]float64, error) {
			return c.AllreduceSumSegErr(g, n, off, seg)
		}},
	}
	for _, tc := range calls {
		t.Run(tc.name, func(t *testing.T) {
			var firsts [ranks]*float64
			run(t, ranks, func(c *Comm) error {
				g := c.World().AllGroup()
				seg := []float64{float64(c.Rank()), 1, 2, 3}
				res, err := tc.call(c, g, 4*c.Rank(), seg)
				if err != nil {
					return err
				}
				firsts[c.Rank()] = &res[0]
				return nil
			})
			for r, p := range firsts {
				if p != firsts[0] {
					t.Fatalf("rank %d's result is not rank 0's slice", r)
				}
			}
			extra := alloctest.Extra(ops, func(k int) {
				run(t, ranks, func(c *Comm) error {
					g := c.World().AllGroup()
					seg := []float64{1, 2, 3, 4}
					for i := 0; i < k; i++ {
						if _, err := tc.call(c, g, 4*c.Rank(), seg); err != nil {
							return err
						}
					}
					return nil
				})
			})
			t.Logf("%d extra ops on %d ranks: %d mallocs", ops, ranks, extra)
			// Two objects per op, with slack for the runtime's own (see
			// alloctest.Extra); a vector per member would be 16.
			if limit := int64(2*ops + 16); extra > limit {
				t.Errorf("%d extra ops cost %d mallocs, want at most %d", ops, extra, limit)
			}
		})
	}
}

// TestSegmentCollectiveWithDeadMember: a member that died before depositing
// fails the op on every survivor with a *RankFailedError naming it; nothing
// is published or counted, the retry over the survivors assembles their
// segments with the dead member's reading zero, and no slot leaks.
func TestSegmentCollectiveWithDeadMember(t *testing.T) {
	const victim = 2
	members := len(segBounds) - 1
	n := segBounds[members]
	spec := cluster.Uniform(members)
	spec.Faults = []fault.Fault{fault.CrashAtCycle(victim, 0)}
	w := NewWorld(cluster.New(spec))
	err := w.Run(func(c *Comm) error {
		if c.Rank() == victim {
			c.InjectCycleFaults(0)
			return errors.New("crash fault did not fire")
		}
		g := c.World().AllGroup()
		off, seg := segOf(c.Rank())
		for _, call := range []func(*Group) ([]float64, error){
			func(g *Group) ([]float64, error) { return c.AllgatherSegErr(g, n, off, seg) },
			func(g *Group) ([]float64, error) { return c.AllreduceSumSegErr(g, n, off, seg) },
		} {
			before := g.CollectiveStats()
			res, err := call(g)
			var rf *RankFailedError
			if !errors.As(err, &rf) || len(rf.Ranks) != 1 || rf.Ranks[0] != victim {
				return fmt.Errorf("rank %d: want a RankFailedError naming %d, got %v", c.Rank(), victim, err)
			}
			if res != nil {
				return fmt.Errorf("rank %d: a failed op returned %v", c.Rank(), res)
			}
			for k, s := range g.CollectiveStats() {
				if s != before[k] {
					return fmt.Errorf("rank %d: the failed op was counted: %+v, was %+v", c.Rank(), s, before[k])
				}
			}
			var live []int
			for r := 0; r < members; r++ {
				if r != victim {
					live = append(live, r)
				}
			}
			res, err = call(c.World().NewGroup(live))
			if err != nil {
				return err
			}
			for i, v := range res {
				want := segValue(i)
				if i >= segBounds[victim] && i < segBounds[victim+1] {
					want = 0
				}
				if v != want {
					return fmt.Errorf("rank %d: element %d = %v after the retry, want %v", c.Rank(), i, v, want)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if leaked := w.LeakedOps(); leaked != 0 {
		t.Fatalf("%d operations leaked", leaked)
	}
}

// TestSegmentOutsideVectorFailsRun: a segment that does not fit the vector
// fails the world naming it, and the members already waiting in the op
// unwind instead of hanging.
func TestSegmentOutsideVectorFailsRun(t *testing.T) {
	for _, bad := range []struct{ off, len int }{{-1, 2}, {7, 2}, {9, 0}} {
		var entered sync.WaitGroup
		entered.Add(3)
		err := Run(cluster.New(cluster.Uniform(4)), func(c *Comm) error {
			g := c.World().AllGroup()
			off, seg := 2*c.Rank(), []float64{1, 2}
			if c.Rank() == 3 {
				entered.Wait() // the others are in the op, or about to be
				off, seg = bad.off, make([]float64, bad.len)
			} else {
				entered.Done()
			}
			_, err := c.AllreduceSumSegErr(g, 8, off, seg)
			return err
		})
		want := fmt.Sprintf("segment [%d,%d) outside a length-8 vector", bad.off, bad.off+bad.len)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("offset %d, length %d: err = %v, want one containing %q", bad.off, bad.len, err, want)
		}
	}
}
