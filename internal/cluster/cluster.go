// Package cluster models a non dedicated cluster: a set of nodes with
// (possibly different) CPU powers and memories, each time-shared between the
// monitored parallel application and a scenario-driven set of competing
// processes (CPs).
//
// The model is deliberately mechanistic rather than statistical. Each node
// runs a quantum round-robin scheduler: the application consumes CPU in
// slices of Quantum; whenever a slice boundary is crossed while k competing
// processes are runnable, the wall clock additionally advances k*Quantum
// (each CP receives its own slice). Two properties of real time-shared
// systems that the Dyn-MPI paper depends on fall out of this directly:
//
//   - over long intervals the application receives a 1/(1+k) share of the
//     CPU, so a node with one competing process computes half as fast, and
//   - a *short* interval (an iteration shorter than the quantum) usually
//     runs to completion inside the application's own slice, but
//     occasionally absorbs a full k*Quantum "context-switch spike" — the
//     exact noise that makes single-sample gethrtime measurements
//     unreliable (paper §4.2, Figure 7).
//
// Process (/PROC-style) CPU time is tracked separately from wall time, so
// the timing package can reproduce the paper's choice between the two
// mechanisms.
package cluster

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/fault"
	"repro/internal/telemetry"
	"repro/internal/vclock"
)

// NodeSpec describes the static properties of one node.
type NodeSpec struct {
	// Power is the node's relative CPU speed. A node of power p executes a
	// reference cost c in c/p nanoseconds of its own CPU time.
	Power float64
	// MemBytes is the physical memory available to the application. Resident
	// data beyond this spills to "disk" and is charged at DiskBandwidth.
	// Zero means unlimited.
	MemBytes int64
}

// NetParams describes the interconnect and memory-system cost model.
//
// A message of b bytes sent at time t becomes available to the receiver at
// t' = t + Latency + b/BytesPerSec (wire component, unaffected by node
// load). In addition the sender and receiver each spend
// CPUPerMsg + b*CPUPerByte of CPU (reference cost) on the transfer; this
// component *is* inflated by competing processes, which is precisely why
// relative-power distributions are suboptimal (paper §4.3).
type NetParams struct {
	Latency       vclock.Duration
	BytesPerSec   float64
	CPUPerMsg     vclock.Duration
	CPUPerByte    float64 // reference CPU ns per byte, charged to each side
	MemBandwidth  float64 // bytes/sec for local memcpy (allocation model)
	DiskBandwidth float64 // bytes/sec once resident data exceeds MemBytes
}

// DefaultNet returns parameters resembling the paper's testbed: switched
// 100 Mb/s Ethernet (≈12.5 MB/s, ~100 µs latency) with a per-byte CPU copy
// cost and late-1990s memory bandwidth.
func DefaultNet() NetParams {
	return NetParams{
		Latency:       100 * vclock.Microsecond,
		BytesPerSec:   12.5e6,
		CPUPerMsg:     30 * vclock.Microsecond,
		CPUPerByte:    20, // ns/byte: 50 MB/s of CPU copy/checksum work per side
		MemBandwidth:  400e6,
		DiskBandwidth: 20e6,
	}
}

// Event changes the number of competing processes on one node. Exactly one
// of At / AtCycle selects the trigger: a virtual wall time, or a phase-cycle
// index on that node (materialised when the application reports reaching the
// cycle, matching "we introduce the competing process on the 10th
// iteration" in the paper's experiments).
type Event struct {
	Node    int
	Delta   int         // +1 to start a competing process, -1 to stop one
	At      vclock.Time // used when AtCycle < 0
	AtCycle int         // cycle-triggered when >= 0
}

// Arrival describes a node that is not part of the seed world but whose
// capacity can join mid-run (elastic resizing). Arrival nodes are built up
// front — their clocks, PRNG streams and fault state exist from the start,
// which keeps grown runs deterministic — but no rank runs on them until the
// runtime spawns one. AtCycle >= 0 grows the world automatically when the
// active ranks reach that phase cycle; AtCycle < 0 marks reserve capacity
// claimed only by an explicit Runtime.Resize call.
type Arrival struct {
	Node    NodeSpec
	AtCycle int
}

// Spec is the full description of a simulated cluster run.
type Spec struct {
	Nodes    []NodeSpec
	Arrivals []Arrival // capacity that can join mid-run; empty = fixed world
	Events   []Event
	Faults   []fault.Fault // injected faults (crash/stall/drop/delay); empty = none
	Net      NetParams
	Quantum  vclock.Duration // scheduler timeslice; 0 means 10ms
	Seed     uint64          // master seed for all derived PRNGs
}

// Uniform returns a Spec with n identical nodes of power 1.0, default
// network parameters and no competing processes.
func Uniform(n int) Spec {
	nodes := make([]NodeSpec, n)
	for i := range nodes {
		nodes[i] = NodeSpec{Power: 1.0}
	}
	return Spec{Nodes: nodes, Net: DefaultNet(), Quantum: 10 * vclock.Millisecond, Seed: 1}
}

// TimeEvent builds a CP change triggered at a virtual wall time.
func TimeEvent(node int, at vclock.Time, delta int) Event {
	return Event{Node: node, Delta: delta, At: at, AtCycle: -1}
}

// CycleEvent builds a CP change triggered when the application on node
// reports starting phase-cycle `cycle`.
func CycleEvent(node, cycle, delta int) Event {
	return Event{Node: node, Delta: delta, AtCycle: cycle}
}

// With returns a copy of s with extra events appended.
func (s Spec) With(events ...Event) Spec {
	out := s
	out.Events = append(append([]Event(nil), s.Events...), events...)
	return out
}

// WithArrival returns a copy of s with one arrival node of the given power
// appended (joining at atCycle; negative = reserve capacity).
func (s Spec) WithArrival(power float64, atCycle int) Spec {
	out := s
	out.Arrivals = append(append([]Arrival(nil), s.Arrivals...),
		Arrival{Node: NodeSpec{Power: power}, AtCycle: atCycle})
	return out
}

// segment is one piece of a node's piecewise-constant CP timeline.
type segment struct {
	start vclock.Time
	count int
}

// Cluster is the shared, immutable-per-run state of a simulation. Node
// handles (one per rank goroutine) mutate only their own fields, except for
// the CP timeline which is guarded by each node owning its own timeline and
// only its own goroutine appending to it (cycle-triggered events affect only
// the node that reports the cycle).
type Cluster struct {
	spec    Spec
	quantum vclock.Duration
	seed    int        // number of seed nodes; nodes[seed:] are arrivals
	nodes   []Node     // seed nodes followed by arrival nodes; never reallocated
	due     []int      // scheduled arrivals' node IDs, by AtCycle, then node
	faults  *fault.Set // nil when the scenario injects no faults
}

// Validate reports what is wrong with s, or nil: a spec needs a node, a
// finite positive Power on every node and arrival (any other runs its
// computations in zero or unbounded virtual time), no negative MemBytes,
// and a consistent fault list.
func (s Spec) Validate() error { _, err := s.faultSet(); return err }

// faultSet is Validate, handing New the fault set its last check builds.
func (s Spec) faultSet() (*fault.Set, error) {
	if len(s.Nodes) == 0 {
		return nil, fmt.Errorf("cluster: no nodes")
	}
	for i := 0; i < len(s.Nodes)+len(s.Arrivals); i++ {
		ns := s.node(i)
		if !(ns.Power > 0) || math.IsInf(ns.Power, 1) {
			return nil, fmt.Errorf("cluster: node %d has non-positive or non-finite power %v", i, ns.Power)
		}
		if ns.MemBytes < 0 {
			return nil, fmt.Errorf("cluster: node %d has negative memory %d", i, ns.MemBytes)
		}
	}
	fs, err := fault.NewSet(len(s.Nodes)+len(s.Arrivals), s.Faults)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	return fs, nil
}

// node returns the description of node i: seed nodes, then arrivals.
func (s Spec) node(i int) NodeSpec {
	if i < len(s.Nodes) {
		return s.Nodes[i]
	}
	return s.Arrivals[i-len(s.Nodes)].Node
}

// New builds a cluster and its node handles from spec. It panics with
// spec.Validate's error: validate a spec from outside the program first, or
// call Build.
func New(spec Spec) *Cluster {
	c, err := Build(spec)
	if err != nil {
		panic(err.Error())
	}
	return c
}

// Build is New returning spec.Validate's error instead of panicking.
func Build(spec Spec) (*Cluster, error) {
	fs, err := spec.faultSet()
	if err != nil {
		return nil, err
	}
	q := spec.Quantum
	if q == 0 {
		q = 10 * vclock.Millisecond
	}
	if spec.Net.BytesPerSec == 0 {
		spec.Net = DefaultNet()
	}
	c := &Cluster{spec: spec, quantum: q, seed: len(spec.Nodes), faults: fs}
	for i, a := range spec.Arrivals {
		if a.AtCycle >= 0 {
			c.due = append(c.due, c.seed+i)
		}
	}
	slices.SortStableFunc(c.due, func(a, b int) int { return cmp.Compare(c.atCycle(a), c.atCycle(b)) })
	master := vclock.NewPRNG(spec.Seed)
	c.nodes = make([]Node, len(spec.Nodes)+len(spec.Arrivals))
	for i := range c.nodes {
		ns := spec.node(i)
		n := &c.nodes[i]
		*n = Node{id: i, power: ns.Power, mem: ns.MemBytes, cl: c, rng: *master.Fork(uint64(i))}
		n.segs = n.segs0[:1] // unloaded from time zero
		// Time-triggered events are known up front; install them sorted.
		var evs []Event
		for _, ev := range spec.Events {
			if ev.Node == i {
				if ev.AtCycle >= 0 {
					n.pendingCycle = append(n.pendingCycle, ev)
				} else {
					evs = append(evs, ev)
				}
			}
		}
		sort.SliceStable(evs, func(a, b int) bool { return evs[a].At < evs[b].At })
		for _, ev := range evs {
			n.appendEvent(ev.At, ev.Delta)
		}
	}
	return c, nil
}

// N reports the number of seed nodes — the world size a run starts with.
func (c *Cluster) N() int { return c.seed }

// MaxN reports the total node count including arrival capacity; it bounds
// the rank IDs a grown world can reach. Equal to N when no arrivals exist.
func (c *Cluster) MaxN() int { return len(c.nodes) }

// ArrivalsDue returns the node IDs of arrivals scheduled to join at or
// before the given phase cycle, by cycle and then node order; the caller
// skips those it has claimed already, so an arrival whose cycle the world
// could not act on is admitted at the next one it can. The runtime's resize
// step consults it at every cycle boundary; every active rank reads the same
// static table, which is what makes automatic growth deterministic. The
// slice is the cluster's own: do not modify it.
func (c *Cluster) ArrivalsDue(cycle int) []int {
	n := 0
	for n < len(c.due) && c.atCycle(c.due[n]) <= cycle {
		n++
	}
	return c.due[:n:n]
}

// atCycle is the cycle arrival node id is scheduled to join at.
func (c *Cluster) atCycle(id int) int { return c.spec.Arrivals[id-c.seed].AtCycle }

// HasArrivals reports whether any arrival capacity exists (scheduled or
// reserve), letting hot paths skip the per-cycle table scan entirely.
func (c *Cluster) HasArrivals() bool { return len(c.spec.Arrivals) > 0 }

// Reserves returns the node IDs of reserve arrivals (AtCycle < 0) in node
// order — the capacity an explicit Runtime.Resize grow claims.
func (c *Cluster) Reserves() []int {
	var out []int
	for i, a := range c.spec.Arrivals {
		if a.AtCycle < 0 {
			out = append(out, c.seed+i)
		}
	}
	return out
}

// Node returns the handle for node id.
func (c *Cluster) Node(id int) *Node { return &c.nodes[id] }

// Net returns the interconnect parameters.
func (c *Cluster) Net() NetParams { return c.spec.Net }

// Quantum returns the scheduler timeslice.
func (c *Cluster) Quantum() vclock.Duration { return c.quantum }

// FaultSet returns the scenario's validated fault set, or nil when the
// scenario injects no faults.
func (c *Cluster) FaultSet() *fault.Set { return c.faults }

// Node is one simulated machine as seen by the rank running on it. All
// methods must be called only from that rank's goroutine.
type Node struct {
	id    int
	power float64
	mem   int64
	cl    *Cluster
	rng   vclock.PRNG

	clock     vclock.Clock
	cpuUsed   vclock.Duration // application CPU time (the /PROC view)
	sliceUsed vclock.Duration // CPU consumed in the current timeslice
	curSlice  vclock.Duration // length of the current timeslice (jittered)
	debt      vclock.Duration // CPU owed to competitors before the app runs again
	resident  int64           // bytes of registered application data

	// One-entry memos of the charge path's float conversions (need: cost →
	// CPU time; ChargeTouch: bytes → reference cost while not paging). Power
	// and the network never change, so the key is the whole input.
	lastCost, lastNeed vclock.Duration
	touchBytes         int64
	touchRef           vclock.Duration

	segs         []segment // CP timeline, sorted by start; starts on segs0
	segs0        [2]segment
	segIdx       int     // index of the segment containing the clock
	pendingCycle []Event // cycle-triggered events not yet materialised

	sink    telemetry.Sink     // nil: no emission
	stamper *telemetry.Stamper // shared with the rank runtime on this node
}

// AttachTelemetry routes this node's scenario events (cycle-triggered
// competing-process changes materialising) into sink. The stamper must be
// the one owned by the rank goroutine running on this node.
func (n *Node) AttachTelemetry(sink telemetry.Sink, stamper *telemetry.Stamper) {
	n.sink = sink
	n.stamper = stamper
}

// Telemetry returns the sink and stamper attached to this node (both nil
// when telemetry is off). The fault layer uses it to emit FailureRecords
// from the faulting rank's own goroutine.
func (n *Node) Telemetry() (telemetry.Sink, *telemetry.Stamper) { return n.sink, n.stamper }

// ID reports the node's index in the cluster.
func (n *Node) ID() int { return n.id }

// Power reports the node's static relative CPU speed.
func (n *Node) Power() float64 { return n.power }

// Now reports the node's current virtual wall time.
func (n *Node) Now() vclock.Time { return n.clock.Now() }

// CPUTime reports the application's accumulated CPU time on this node —
// the quantity a /PROC read returns (before granularity quantisation, which
// the timing package applies).
func (n *Node) CPUTime() vclock.Duration { return n.cpuUsed }

func (n *Node) appendEvent(at vclock.Time, delta int) {
	last := n.segs[len(n.segs)-1]
	if at < last.start {
		panic(fmt.Sprintf("cluster: event at %v before last segment %v on node %d", at, last.start, n.id))
	}
	count := last.count + delta
	if count < 0 {
		panic(fmt.Sprintf("cluster: negative CP count on node %d at %v", n.id, at))
	}
	if at == last.start {
		n.segs[len(n.segs)-1].count = count
		return
	}
	n.segs = append(n.segs, segment{start: at, count: count})
}

// OnCycle reports that the application on this node is starting phase-cycle
// `cycle`; any CP events scheduled for that cycle take effect now.
func (n *Node) OnCycle(cycle int) {
	kept := n.pendingCycle[:0]
	for _, ev := range n.pendingCycle {
		if ev.AtCycle == cycle {
			n.appendEvent(n.clock.Now(), ev.Delta)
			if n.sink != nil {
				n.sink.Emit(telemetry.LoadEventRecord{
					Base:  n.stamper.Stamp(telemetry.KindLoadEvent, cycle, n.clock.Now().Seconds()),
					Delta: ev.Delta,
					Count: n.segs[len(n.segs)-1].count,
				})
			}
		} else {
			kept = append(kept, ev)
		}
	}
	n.pendingCycle = kept
}

// cpAt returns the competing-process count in effect at time t, advancing
// the cached segment index (t must be >= the last query, which holds because
// callers query at the monotone node clock).
func (n *Node) cpAt(t vclock.Time) int {
	for n.segIdx+1 < len(n.segs) && n.segs[n.segIdx+1].start <= t {
		n.segIdx++
	}
	return n.segs[n.segIdx].count
}

// nextChangeAfter returns the time of the next CP change strictly after t,
// or ok=false if the timeline is constant from t on.
func (n *Node) nextChangeAfter(t vclock.Time) (vclock.Time, bool) {
	for i := n.segIdx; i < len(n.segs); i++ {
		if n.segs[i].start > t {
			return n.segs[i].start, true
		}
	}
	return 0, false
}

// CPCount reports the number of competing processes runnable right now.
// This is the ground truth; the load monitor adds sampling delay on top.
func (n *Node) CPCount() int { return n.cpAt(n.clock.Now()) }

// CPCountAt reports the competing-process count at an arbitrary time t
// without advancing the cache. Used by the load monitor's sampling model.
func (n *Node) CPCountAt(t vclock.Time) int {
	idx := sort.Search(len(n.segs), func(i int) bool { return n.segs[i].start > t }) - 1
	if idx < 0 {
		idx = 0
	}
	return n.segs[idx].count
}

// nextSliceLen returns the length of a fresh timeslice: uniform in
// [0.5q, 1.5q] (mean q), deterministically drawn from the node's PRNG.
// Real schedulers do not preempt on an exact period — timeslices depend on
// dynamic priorities, timer skew and unrelated wakeups — and the variation
// matters here: it is what moves context-switch spikes onto *different*
// iterations in different phase cycles, which the paper's
// min-over-grace-period filter depends on. The long-run CPU share is
// unaffected (the mean slice is exactly q).
func (n *Node) nextSliceLen() vclock.Duration {
	q := n.cl.quantum
	return q/2 + vclock.Duration(n.rng.Float64()*float64(q))
}

// Compute executes `cost` of reference CPU work on this node, advancing the
// wall clock according to the round-robin model and accumulating /PROC CPU
// time. It returns the wall duration that elapsed.
func (n *Node) Compute(cost vclock.Duration) vclock.Duration {
	need := n.need(cost)
	if n.debt == 0 && need < n.curSlice-n.sliceUsed {
		// Nothing owed and no slice boundary reached: wall time is CPU time.
		n.clock.Advance(need)
		n.cpuUsed += need
		n.sliceUsed += need
		return need
	}
	return n.run(need)
}

// ComputeN is k successive Compute(cost) calls — same clock, /PROC time,
// slice state, competitor debt and PRNG draws — at the price of one call per
// timeslice crossed: the calls that cannot reach a slice boundary are
// skipped in integer arithmetic and only the one that does walks the slices.
func (n *Node) ComputeN(cost vclock.Duration, k int) vclock.Duration {
	start := n.clock.Now()
	need := n.need(cost)
	for need > 0 && k > 0 {
		room := n.curSlice - n.sliceUsed - 1
		if n.debt > 0 || room < need {
			n.run(need) // the call that pays the debt or reaches the boundary
			k--
			continue
		}
		// Call i (from 1) stays inside the slice iff i*need <= room.
		m := min(vclock.Duration(k), room/need)
		n.clock.Advance(m * need)
		n.cpuUsed += m * need
		n.sliceUsed += m * need
		k -= int(m)
	}
	return n.clock.Now().Sub(start)
}

// need converts a reference cost to this node's CPU time. Charges come in
// runs of one cost (a row, an appended element), so the last conversion —
// the same float expression, not an approximation — is remembered.
func (n *Node) need(cost vclock.Duration) vclock.Duration {
	if cost != n.lastCost {
		if cost < 0 {
			panic("cluster: negative compute cost")
		}
		n.lastCost, n.lastNeed = cost, vclock.Duration(float64(cost)/n.power)
	}
	return n.lastNeed
}

// run consumes need of this node's CPU time slice by slice: the one place
// the round-robin model lives.
func (n *Node) run(need vclock.Duration) vclock.Duration {
	start := n.clock.Now()
	q := n.cl.quantum
	for need > 0 {
		if n.debt > 0 {
			// A slice boundary was crossed: each competing process receives
			// its timeslice before the application runs again. Wall time the
			// application spent blocked has already serviced part of this
			// debt (see WaitUntil); the remainder is paid here. The CP count
			// may change during the delay; advanceLoaded charges piecewise
			// and stops early if every competitor exits.
			d := n.debt
			n.debt = 0
			n.advanceLoaded(d)
		}
		if n.curSlice == 0 {
			n.curSlice = n.nextSliceLen()
		}
		run := n.curSlice - n.sliceUsed
		if need < run {
			run = need
		}
		// While the app runs, wall time passes 1:1 with its CPU time; a CP
		// change mid-run only matters at the next slice boundary, so no
		// further splitting is needed here.
		n.clock.Advance(run)
		n.cpuUsed += run
		n.sliceUsed += run
		need -= run
		if n.sliceUsed >= n.curSlice {
			n.sliceUsed = 0
			n.curSlice = 0
			if k := n.cpAt(n.clock.Now()); k > 0 {
				n.debt += vclock.Duration(k) * q
			}
		}
	}
	return n.clock.Now().Sub(start)
}

// advanceLoaded advances the wall clock by d of "other processes running"
// time, re-reading the CP count across timeline changes. A CP stop during
// the delay truncates it proportionally.
func (n *Node) advanceLoaded(d vclock.Duration) {
	for d > 0 {
		now := n.clock.Now()
		k := n.cpAt(now)
		if k == 0 {
			return // all competitors vanished; app resumes immediately
		}
		step := d
		if next, ok := n.nextChangeAfter(now); ok {
			if until := next.Sub(now); until < step {
				step = until
			}
		}
		n.clock.Advance(step)
		d -= step
	}
}

// WaitUntil blocks the application until virtual time t (e.g. waiting for a
// message). The scheduling quota persists across short sleeps (the
// epoch-based accounting of 2.4-era schedulers), but wall time spent
// blocked services any outstanding competitor debt: if the application
// sleeps long enough for every competitor to receive its slice, it resumes
// immediately on wake.
//
// Independently, if competing processes are runnable when the application
// becomes ready, it occasionally does not run immediately: a CPU-bound
// competitor holds the processor until the next scheduler tick. This
// wakeup latency is the mechanism that makes a loaded node poison every
// communication step it participates in — the reason physical node removal
// beats logical dropping (§2.2) and the reason dropping wins as the
// computation/communication ratio shrinks (§5.3).
func (n *Node) WaitUntil(t vclock.Time) {
	if t <= n.clock.Now() {
		return
	}
	waited := t.Sub(n.clock.Now())
	n.clock.AdvanceTo(t)
	if waited >= n.debt {
		n.debt = 0
	} else {
		n.debt -= waited
	}
	if k := n.cpAt(n.clock.Now()); k > 0 {
		// A waking sleeper usually preempts a CPU-bound competitor at once
		// (its dynamic priority is boosted), but when its scheduling quota
		// is exhausted it must wait out the hog's timeslice. Each runnable
		// competitor adds an independent chance of hitting that window.
		if n.rng.Float64() < wakeDelayProb*float64(k) {
			n.clock.Advance(vclock.Duration(n.rng.Float64() * float64(n.cl.quantum)))
		}
	}
}

// wakeDelayProb is the per-competitor probability that a wakeup finds the
// application out of scheduling quota and stuck behind a full competitor
// timeslice. Calibrated so that keeping a loaded node is profitable on
// small clusters but increasingly poisonous as the per-node compute share
// shrinks — the paper's Figure 6 crossover.
const wakeDelayProb = 0.01

// --- memory cost model -------------------------------------------------

// ChargeTouch charges the cost of writing (or copying into) `bytes` of
// memory: bytes/MemBandwidth of CPU, plus a disk penalty for the fraction of
// resident data beyond physical memory. Used by the allocator comparison.
// While the node is not paging the charge depends on bytes alone, so the
// last one is remembered; the paging charge follows resident.
func (n *Node) ChargeTouch(bytes int64) {
	if bytes <= 0 {
		return
	}
	paging := n.mem > 0 && n.resident > n.mem
	if paging || bytes != n.touchBytes {
		net := &n.cl.spec.Net
		cost := vclock.FromSeconds(float64(bytes) / net.MemBandwidth)
		n.touchBytes = bytes
		if paging {
			over := float64(n.resident-n.mem) / float64(n.resident)
			cost += vclock.FromSeconds(over * float64(bytes) / net.DiskBandwidth)
			n.touchBytes = 0 // not a charge to remember
		}
		n.touchRef = vclock.Duration(float64(cost) * n.power) // cost is wall-ish; express as reference
	}
	n.Compute(n.touchRef)
}

// ChargeGrowN is k × {AdjustResident(bytes); ChargeTouch(bytes)}: a run of k
// equal elements joining registered data. A node that cannot page (mem == 0)
// prices every touch alike, so the first fixes touchRef and the rest are one
// ComputeN; with mem > 0 any element may cross the paging threshold and
// reprice the next, so the loop stays literal.
func (n *Node) ChargeGrowN(bytes int64, k int) {
	if n.mem == 0 && bytes > 0 && k > 0 {
		n.AdjustResident(bytes * int64(k))
		n.ChargeTouch(bytes)
		n.ComputeN(n.touchRef, k-1)
		return
	}
	for ; k > 0; k-- {
		n.AdjustResident(bytes)
		n.ChargeTouch(bytes)
	}
}

// AdjustResident records allocation (positive) or release (negative) of
// application data bytes, for the paging model.
func (n *Node) AdjustResident(delta int64) {
	n.resident += delta
	if n.resident < 0 {
		n.resident = 0
	}
}

// Resident reports currently registered application data bytes.
func (n *Node) Resident() int64 { return n.resident }
