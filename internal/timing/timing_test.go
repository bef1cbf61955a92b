package timing

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/vclock"
)

func loadedNode(k int) *cluster.Node {
	spec := cluster.Uniform(1)
	for i := 0; i < k; i++ {
		spec = spec.With(cluster.TimeEvent(0, 0, +1))
	}
	return cluster.New(spec).Node(0)
}

// newCollector returns a collector Reset for [lo,hi) on node, as the runtime
// readies its own.
func newCollector(node *cluster.Node, lo, hi int) *Collector {
	c := new(Collector)
	c.Reset(node, lo, hi)
	return c
}

// newCycleTimer returns a cycle timer Reset for node.
func newCycleTimer(node *cluster.Node) *CycleTimer {
	t := new(CycleTimer)
	t.Reset(node)
	return t
}

// measure runs `cycles` phase cycles of `iters` iterations of cost `cost`
// on node and returns the per-iteration estimates.
func measure(node *cluster.Node, lo, hi, cycles int, cost vclock.Duration) []float64 {
	c := newCollector(node, lo, hi)
	for cy := 0; cy < cycles; cy++ {
		for g := lo; g < hi; g++ {
			c.BeginIter()
			node.Compute(cost)
			c.EndIter(g)
		}
		c.EndCycle()
	}
	return estimates(c)
}

func TestLongIterationsUseProcAndIgnoreLoad(t *testing.T) {
	// 50ms iterations on a node with 2 CPs: /PROC resolves them and is
	// immune to the load, so estimates must be ~50ms despite 3x wall slowdown.
	n := loadedNode(2)
	est := measure(n, 0, 10, 1, 50*vclock.Millisecond)
	for g, e := range est {
		if e < 0.039 || e > 0.061 {
			t.Fatalf("iter %d estimate %v, want ~0.05 (10ms granularity)", g, e)
		}
	}
}

func TestShortIterationsGP1IsNoisy(t *testing.T) {
	// 1ms iterations under load with one measured cycle: some estimates
	// carry a context-switch spike.
	n := loadedNode(1)
	est := measure(n, 0, 100, 1, vclock.Millisecond)
	spiked := 0
	for _, e := range est {
		if e > 0.005 {
			spiked++
		}
	}
	if spiked == 0 {
		t.Fatal("GP=1 produced no spiked estimates; the Figure-7 effect would vanish")
	}
}

func TestShortIterationsGP5Recovers(t *testing.T) {
	// With a 5-cycle grace period the min filter removes the spikes.
	n := loadedNode(1)
	est := measure(n, 0, 100, DefaultGracePeriod, vclock.Millisecond)
	for g, e := range est {
		if math.Abs(e-0.001) > 1e-9 {
			t.Fatalf("iter %d estimate %v, want exactly 0.001 after min filter", g, e)
		}
	}
}

func TestEstimatesScaleByPower(t *testing.T) {
	spec := cluster.Uniform(1)
	spec.Nodes[0].Power = 2
	n := cluster.New(spec).Node(0)
	est := measure(n, 0, 4, 3, 40*vclock.Millisecond) // 40ms reference = 20ms local
	for _, e := range est {
		if math.Abs(e-0.04) > 0.011 {
			t.Fatalf("estimate %v, want ~0.04 reference seconds", e)
		}
	}
}

func TestNonuniformIterations(t *testing.T) {
	n := loadedNode(0)
	c := newCollector(n, 0, 3)
	costs := []vclock.Duration{20 * vclock.Millisecond, 40 * vclock.Millisecond, 80 * vclock.Millisecond}
	for cy := 0; cy < 2; cy++ {
		for g := 0; g < 3; g++ {
			c.BeginIter()
			n.Compute(costs[g])
			c.EndIter(g)
		}
		c.EndCycle()
	}
	est := estimates(c)
	if !(est[0] < est[1] && est[1] < est[2]) {
		t.Fatalf("estimates %v lost the imbalance", est)
	}
}

func TestCollectorStateMachine(t *testing.T) {
	n := loadedNode(0)
	c := newCollector(n, 0, 1)
	c.BeginIter()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("double BeginIter did not panic")
			}
		}()
		c.BeginIter()
	}()
	c.EndIter(0)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("EndIter without BeginIter did not panic")
			}
		}()
		c.EndIter(0)
	}()
	c.BeginIter()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("out-of-range EndIter did not panic")
			}
		}()
		c.EndIter(5)
	}()
}

func TestBadRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	newCollector(loadedNode(0), 5, 2)
}

func TestRangeAndCycles(t *testing.T) {
	n := loadedNode(0)
	c := newCollector(n, 3, 7)
	if lo, hi := c.Range(); lo != 3 || hi != 7 {
		t.Fatal("Range")
	}
	c.EndCycle()
	c.EndCycle()
	if c.Cycles() != 2 {
		t.Fatal("Cycles")
	}
}

func TestCycleTimerAverage(t *testing.T) {
	n := loadedNode(0)
	ct := newCycleTimer(n)
	for i := 0; i < 4; i++ {
		ct.Begin()
		n.Compute(vclock.Duration(100 * vclock.Millisecond))
		ct.End()
	}
	if ct.Cycles() != 4 {
		t.Fatal("Cycles")
	}
	if math.Abs(ct.Average()-0.1) > 1e-9 {
		t.Fatalf("Average = %v", ct.Average())
	}
}

func TestCycleTimerLoadInflation(t *testing.T) {
	n := loadedNode(1)
	ct := newCycleTimer(n)
	ct.Begin()
	n.Compute(vclock.Duration(vclock.Second))
	ct.End()
	if ct.Average() < 1.9 {
		t.Fatalf("loaded cycle average %v, want ~2s", ct.Average())
	}
}

func TestCycleTimerStateMachine(t *testing.T) {
	ct := newCycleTimer(loadedNode(0))
	if ct.Average() != 0 || ct.Open() {
		t.Fatal("empty timer average or open cycle")
	}
	ct.Begin()
	if !ct.Open() {
		t.Fatal("Begin did not open a cycle")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("double Begin did not panic")
			}
		}()
		ct.Begin()
	}()
	ct.End()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("End without Begin did not panic")
			}
		}()
		ct.End()
	}()
	// Reset closes an open cycle and forgets every measured one.
	ct.Begin()
	ct.Reset(loadedNode(0))
	if ct.Open() || ct.Cycles() != 0 || ct.Average() != 0 {
		t.Fatalf("reset timer: open %v, %d cycles, average %v", ct.Open(), ct.Cycles(), ct.Average())
	}
}

func TestQuantize(t *testing.T) {
	if quantize(25*vclock.Millisecond) != 20*vclock.Millisecond {
		t.Fatal("quantize 25ms")
	}
	if quantize(9*vclock.Millisecond) != 0 {
		t.Fatal("quantize 9ms")
	}
	if quantize(10*vclock.Millisecond) != 10*vclock.Millisecond {
		t.Fatal("quantize 10ms")
	}
}

// A reset collector is a fresh one: after measuring one range it must report,
// over a different range — smaller (its array is reused) and larger (it is
// regrown) — exactly what a new collector measuring only that range reports
// on an identical node, with nothing of the earlier grace period left: no
// minimum, no /PROC sum, no cycle count, no open iteration.
func TestResetCollectorMatchesFresh(t *testing.T) {
	run := func(c *Collector, node *cluster.Node, lo, hi, cycles int, cost vclock.Duration) []float64 {
		for cy := 0; cy < cycles; cy++ {
			for g := lo; g < hi; g++ {
				c.BeginIter()
				node.Compute(cost * vclock.Duration(1+g%3))
				c.EndIter(g)
			}
			c.EndCycle()
		}
		return estimates(c)
	}
	for _, second := range [][2]int{{20, 31}, {3, 90}} {
		lo, hi := second[0], second[1]
		// Two identical loaded nodes run the same history: the first range
		// leaves their clocks, timeslices and PRNG streams in the same state.
		used, fresh := loadedNode(1), loadedNode(1)
		reused := newCollector(used, 10, 50)
		run(reused, used, 10, 50, 4, vclock.Millisecond) // short: a stale minimum would win later
		run(newCollector(fresh, 10, 50), fresh, 10, 50, 4, vclock.Millisecond)

		reused.BeginIter() // left open: Reset must close it
		reused.Reset(used, lo, hi)
		got := run(reused, used, lo, hi, 2, 6*vclock.Millisecond)
		want := run(newCollector(fresh, lo, hi), fresh, lo, hi, 2, 6*vclock.Millisecond)
		if rlo, rhi := reused.Range(); rlo != lo || rhi != hi || reused.Cycles() != 2 {
			t.Fatalf("reset collector covers [%d,%d) after %d cycles, want [%d,%d) after 2", rlo, rhi, reused.Cycles(), lo, hi)
		}
		if len(got) != len(want) {
			t.Fatalf("[%d,%d): %d estimates from the reset collector, %d from a fresh one", lo, hi, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("[%d,%d): estimate %d is %v from the reset collector, %v from a fresh one", lo, hi, i, got[i], want[i])
			}
		}
	}
}

// estimates returns c's estimates in a fresh slice.
func estimates(c *Collector) []float64 {
	lo, hi := c.Range()
	est := make([]float64, hi-lo)
	c.EstimatesInto(est)
	return est
}
