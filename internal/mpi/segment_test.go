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

// segOutcome is what one call of a test collective gave a member: its result,
// how far its clock advanced, and how far each shape's CollectiveStats grew.
type segOutcome struct {
	res  []float64
	adv  vclock.Duration
	grew []CollectiveShape
}

// TestSegmentCollectivesPriceAsTheCallsTheyReplace holds each segment
// collective to what it replaces, in one group. AllreduceSumSegErr runs
// beside the sum-allreduce of zero-padded vectors. AllgatherSegErr, whose
// boxed allgather of (offset, segment) pairs is gone, is held to that call's
// closed form: the assembled vector, priced at allgatherCost of the longest
// segment and its offset, 8·len(seg)+8 bytes. Before each call every member
// computes for a time of its own, so the deposits are staggered alike: slot
// s deposits s+1 ms after a clock all members share. Each member's clock
// must advance by the same amount, each shape's CollectiveStats must grow by
// the same count and bytes, and the results must be equal bit for bit.
func TestSegmentCollectivesPriceAsTheCallsTheyReplace(t *testing.T) {
	n, members := segBounds[len(segBounds)-1], len(segBounds)-1
	longest := 0
	for s := 0; s < members; s++ {
		longest = max(longest, segBounds[s+1]-segBounds[s])
	}
	// step runs call after the slot's stagger and reports what it gave.
	step := func(c *Comm, g *Group, slot int, call func(c *Comm, g *Group, off int, seg []float64) ([]float64, error)) (segOutcome, error) {
		off, seg := segOf(slot)
		c.Node().Compute(vclock.Duration(slot+1) * vclock.Millisecond)
		before, t0 := g.CollectiveStats(), c.Now()
		res, err := call(c, g, off, seg)
		o := segOutcome{res: res, adv: c.Now().Sub(t0), grew: g.CollectiveStats()}
		for k := range o.grew {
			o.grew[k].Count -= before[k].Count
			o.grew[k].Bytes -= before[k].Bytes
		}
		return o, err
	}
	cases := []struct {
		name string
		old  func(c *Comm, g *Group, slot int) (segOutcome, error)
		seg  func(c *Comm, g *Group, off int, seg []float64) ([]float64, error)
	}{
		{"allgather",
			func(c *Comm, g *Group, slot int) (segOutcome, error) {
				bytes := 8*longest + 8
				cost := allgatherCost(c.World().Cluster().Net(), members, bytes)
				o := segOutcome{
					res:  make([]float64, n),
					adv:  vclock.Duration(members-1-slot)*vclock.Millisecond + cost.wire + cost.cpuEach,
					grew: g.CollectiveStats(),
				}
				for i := range o.res {
					o.res[i] = segValue(i)
				}
				for k := range o.grew {
					o.grew[k].Count, o.grew[k].Bytes = 0, 0
					if o.grew[k].Op == "allgather" {
						o.grew[k].Count, o.grew[k].Bytes = 1, int64(bytes*members)
					}
				}
				return o, nil
			},
			func(c *Comm, g *Group, off int, seg []float64) ([]float64, error) {
				return c.AllgatherSegErr(g, n, off, seg)
			}},
		{"allreduce",
			func(c *Comm, g *Group, slot int) (segOutcome, error) {
				return step(c, g, slot, func(c *Comm, g *Group, off int, seg []float64) ([]float64, error) {
					buf := make([]float64, n)
					copy(buf[off:], seg)
					return buf, c.AllreduceF64sIntoErr(g, buf, Sum)
				})
			},
			func(c *Comm, g *Group, off int, seg []float64) ([]float64, error) {
				return c.AllreduceSumSegErr(g, n, off, seg)
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run(t, members, func(c *Comm) error {
				g := c.World().AllGroup()
				slot, _ := g.Slot(c.Rank())
				want, err := tc.old(c, g, slot)
				if err != nil {
					return err
				}
				got, err := step(c, g, slot, tc.seg)
				if err != nil {
					return err
				}
				if got.adv != want.adv {
					return fmt.Errorf("slot %d: clock advanced %v, the replaced call %v", slot, got.adv, want.adv)
				}
				for k := range got.grew {
					if gs, ws := got.grew[k], want.grew[k]; gs.Count != ws.Count || gs.Bytes != ws.Bytes {
						return fmt.Errorf("slot %d: %s grew by %d ops, %d bytes; the replaced call by %d, %d", slot, gs.Op, gs.Count, gs.Bytes, ws.Count, ws.Bytes)
					}
				}
				if len(got.res) != len(want.res) {
					return fmt.Errorf("slot %d: result length %d, want %d", slot, len(got.res), len(want.res))
				}
				for i := range want.res {
					if math.Float64bits(got.res[i]) != math.Float64bits(want.res[i]) {
						return fmt.Errorf("slot %d: element %d = %v, the replaced call %v", slot, i, got.res[i], want.res[i])
					}
				}
				return nil
			})
		})
	}
}

// TestRaggedAllgatherF64s: AllgatherF64sIntoErr over segments of different
// lengths (segBounds', two of them empty) lands their concatenation, in slot
// order, on every member. It is priced as every typed collective is, at the
// longest segment: with deposits staggered as in the test above, each member
// leaves at the last deposit plus allgatherCost's wire and CPU at 8 bytes a
// value of the longest, and the allgather-f64 shape grows by one op of that
// many bytes per member. A dst shorter than the concatenation fails the run;
// a dead member fails the op on every survivor, with dst untouched and no
// slot leaked.
func TestRaggedAllgatherF64s(t *testing.T) {
	n, members := segBounds[len(segBounds)-1], len(segBounds)-1
	longest := 0
	for s := 0; s < members; s++ {
		longest = max(longest, segBounds[s+1]-segBounds[s])
	}
	t.Run("concatenates", func(t *testing.T) {
		run(t, members, func(c *Comm) error {
			g := c.World().AllGroup()
			slot, _ := g.Slot(c.Rank())
			_, seg := segOf(slot)
			c.Node().Compute(vclock.Duration(slot+1) * vclock.Millisecond)
			before, t0 := g.CollectiveStats(), c.Now()
			dst := make([]float64, n)
			if err := c.AllgatherF64sIntoErr(g, seg, dst); err != nil {
				return err
			}
			cost := allgatherCost(c.World().Cluster().Net(), members, 8*longest)
			if adv, want := c.Now().Sub(t0), vclock.Duration(members-1-slot)*vclock.Millisecond+cost.wire+cost.cpuEach; adv != want {
				return fmt.Errorf("slot %d: clock advanced %v, the closed form %v", slot, adv, want)
			}
			for k, st := range g.CollectiveStats() {
				dc, db := st.Count-before[k].Count, st.Bytes-before[k].Bytes
				var wc, wb int64
				if st.Op == "allgather-f64" {
					wc, wb = 1, int64(8*longest*members)
				}
				if dc != wc || db != wb {
					return fmt.Errorf("slot %d: %s grew by %d ops, %d bytes, want %d, %d", slot, st.Op, dc, db, wc, wb)
				}
			}
			for i, v := range dst {
				if math.Float64bits(v) != math.Float64bits(segValue(i)) {
					return fmt.Errorf("slot %d: element %d = %v, want %v", slot, i, v, segValue(i))
				}
			}
			return nil
		})
	})
	t.Run("short destination", func(t *testing.T) {
		err := Run(cluster.New(cluster.Uniform(members)), func(c *Comm) error {
			g := c.World().AllGroup()
			slot, _ := g.Slot(c.Rank())
			_, seg := segOf(slot)
			return c.AllgatherF64sIntoErr(g, seg, make([]float64, n-1))
		})
		if want := fmt.Sprintf("allgather-f64 destination has length %d, want %d", n-1, n); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("err = %v, want one containing %q", err, want)
		}
	})
	t.Run("dead member", func(t *testing.T) {
		const victim = 5 // the longest segment
		spec := cluster.Uniform(members)
		spec.Faults = []fault.Fault{fault.CrashAtCycle(victim, 0)}
		w := NewWorld(cluster.New(spec))
		err := w.Run(func(c *Comm) error {
			if c.Rank() == victim {
				c.InjectCycleFaults(0)
				return nil
			}
			g := c.World().AllGroup()
			slot, _ := g.Slot(c.Rank())
			_, seg := segOf(slot)
			dst := make([]float64, n)
			for i := range dst {
				dst[i] = -1
			}
			err := c.AllgatherF64sIntoErr(g, seg, dst)
			var rf *RankFailedError
			if !errors.As(err, &rf) || len(rf.Ranks) != 1 || rf.Ranks[0] != victim {
				return fmt.Errorf("slot %d: err = %v, want a RankFailedError naming rank %d", slot, err, victim)
			}
			for i, v := range dst {
				if v != -1 {
					return fmt.Errorf("slot %d: failed op wrote %v at %d", slot, v, i)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if k := w.LeakedOps(); k != 0 {
			t.Fatalf("%d collective slots leaked, want 0", k)
		}
	})
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
