// Package timing implements Dyn-MPI's computation-timing machinery
// (paper §4.2). To choose a good distribution the runtime needs the *true,
// unloaded* execution time of every iteration, measured while the node may
// be loaded. Two mechanisms exist:
//
//   - /PROC: per-process CPU time. Immune to competing processes but only
//     10 ms granular, so useless for short iterations.
//   - gethrtime: high-resolution wallclock. Arbitrarily fine, but includes
//     time stolen by other processes; an iteration that spans a
//     context-switch boundary absorbs a whole competing timeslice. The
//     cure is to measure the same iteration over several phase cycles (the
//     grace period) and take the minimum.
//
// Collector implements both, selecting per iteration exactly as the paper
// does: /PROC when the iteration runs 10 ms or longer, min-filtered
// wallclock otherwise.
package timing

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/vclock"
)

// ProcGranularity is the /PROC CPU-time resolution.
const ProcGranularity = 10 * vclock.Millisecond

// DefaultGracePeriod is the number of phase cycles measured before
// computing a distribution ("five phase cycle iterations").
const DefaultGracePeriod = 5

// PostRedistGrace is the monitoring period after a redistribution used by
// the drop decision ("currently ten phase cycle iterations").
const PostRedistGrace = 10

// quantize truncates d to the /PROC granularity.
func quantize(d vclock.Duration) vclock.Duration {
	return d - d%ProcGranularity
}

// Collector accumulates per-iteration timing for a node across the grace
// period, for the iteration range [lo,hi) currently assigned to it. Its
// owner keeps one and Resets it at every grace period: the per-iteration
// array is reused whenever the new range fits.
type Collector struct {
	node   *cluster.Node
	lo, hi int

	cycles int
	iters  []iterTiming // per local iteration

	iterWallStart vclock.Time
	iterProcStart vclock.Duration
	inIter        bool
}

// iterTiming is what the grace period has measured of one iteration.
type iterTiming struct {
	wallMin   vclock.Duration // min over cycles
	procSum   vclock.Duration
	procCount int
}

// Reset discards everything measured and starts collecting for iterations
// [lo,hi) on node. The zero Collector is ready for its first Reset.
func (c *Collector) Reset(node *cluster.Node, lo, hi int) {
	if lo > hi {
		panic(fmt.Sprintf("timing: bad iteration range [%d,%d)", lo, hi))
	}
	iters := c.iters[:0]
	if cap(iters) < hi-lo {
		iters = make([]iterTiming, 0, hi-lo)
	}
	*c = Collector{node: node, lo: lo, hi: hi, iters: iters[:hi-lo]}
	for i := range c.iters {
		c.iters[i] = iterTiming{wallMin: vclock.Duration(1) << 62}
	}
}

// BeginIter marks the start of one iteration's computation.
func (c *Collector) BeginIter() {
	if c.inIter {
		panic("timing: BeginIter while an iteration is open")
	}
	c.inIter = true
	c.iterWallStart = c.node.Now()
	c.iterProcStart = quantize(c.node.CPUTime())
}

// EndIter records global iteration g's measurements for this cycle.
func (c *Collector) EndIter(g int) {
	if !c.inIter {
		panic("timing: EndIter without BeginIter")
	}
	c.inIter = false
	if g < c.lo || g >= c.hi {
		panic(fmt.Sprintf("timing: iteration %d outside [%d,%d)", g, c.lo, c.hi))
	}
	it := &c.iters[g-c.lo]
	wall := c.node.Now().Sub(c.iterWallStart)
	proc := quantize(c.node.CPUTime()) - c.iterProcStart
	if wall < it.wallMin {
		it.wallMin = wall
	}
	it.procSum += proc
	it.procCount++
}

// EndCycle marks the end of one measured phase cycle.
func (c *Collector) EndCycle() { c.cycles++ }

// Cycles reports how many complete cycles have been measured.
func (c *Collector) Cycles() int { return c.cycles }

// EstimatesInto computes the unloaded *per-phase-cycle* cost of each
// iteration, in seconds of reference CPU (multiplied back by the node's power
// so estimates from different nodes are comparable). An application may
// bracket the same iteration several times per cycle (SOR measures each
// half-phase); the estimate is the iteration's total cost per cycle.
//
// Mechanism choice per sample follows the paper: /PROC when even the
// best-case wall time is at least one granule, min-filtered wallclock
// otherwise (with the min multiplied back by the samples-per-cycle count).
//
// The estimates go into dst, which must have length hi-lo (see Range):
// iteration lo+i's into dst[i].
func (c *Collector) EstimatesInto(dst []float64) {
	if len(dst) != len(c.iters) {
		panic(fmt.Sprintf("timing: estimates destination has length %d, want %d", len(dst), len(c.iters)))
	}
	cycles := c.cycles
	if cycles == 0 {
		cycles = 1
	}
	for i, it := range c.iters {
		samplesPerCycle := it.procCount / cycles
		if samplesPerCycle == 0 {
			samplesPerCycle = 1
		}
		var local vclock.Duration
		if it.procCount > 0 && it.wallMin >= ProcGranularity && it.procSum > 0 {
			local = it.procSum / vclock.Duration(cycles)
		} else {
			local = it.wallMin * vclock.Duration(samplesPerCycle)
		}
		dst[i] = local.Seconds() * c.node.Power()
	}
}

// Range reports the iteration range being collected.
func (c *Collector) Range() (lo, hi int) { return c.lo, c.hi }

// CycleTimer measures average wall time per phase cycle (used during the
// post-redistribution grace period for the drop decision). Like a Collector,
// its owner keeps one and Resets it whenever a measurement starts.
type CycleTimer struct {
	node   *cluster.Node
	start  vclock.Time
	total  vclock.Duration
	cycles int
	open   bool
}

// Reset discards everything measured and starts timing cycles on node, with
// no cycle open.
func (t *CycleTimer) Reset(node *cluster.Node) { *t = CycleTimer{node: node} }

// Open reports whether a cycle has begun and not yet ended.
func (t *CycleTimer) Open() bool { return t.open }

// Begin marks the start of a phase cycle.
func (t *CycleTimer) Begin() {
	if t.open {
		panic("timing: Begin while a cycle is open")
	}
	t.open = true
	t.start = t.node.Now()
}

// End marks the end of a phase cycle.
func (t *CycleTimer) End() {
	if !t.open {
		panic("timing: End without Begin")
	}
	t.open = false
	t.total += t.node.Now().Sub(t.start)
	t.cycles++
}

// Cycles reports completed cycles.
func (t *CycleTimer) Cycles() int { return t.cycles }

// Average reports the mean cycle wall time in seconds (0 if none measured).
func (t *CycleTimer) Average() float64 {
	if t.cycles == 0 {
		return 0
	}
	return (t.total / vclock.Duration(t.cycles)).Seconds()
}
