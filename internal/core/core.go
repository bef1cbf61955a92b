// Package core implements the Dyn-MPI runtime system — the paper's primary
// contribution. It extends the message-passing substrate with:
//
//   - registration of redistributable dense and sparse arrays (§2.2, §4.1),
//   - phases with deferred regular section descriptors describing every
//     array reference in the partitioned loop (§2.2),
//   - per-cycle load monitoring and grace-period timing (§4.2),
//   - automatic selection of a new data distribution via successive
//     balancing (§4.3) and its execution (§4.4), and
//   - physical (and logical) removal of nodes whose participation degrades
//     performance, with relative ranks and send-out-only collectives (§4.4).
//
// The programming model mirrors Figure 2 of the paper: the application
// registers its arrays and accesses once, then asks the runtime for its
// loop bounds every phase cycle, brackets each cycle with BeginCycle and
// EndCycle, and communicates using relative ranks.
package core

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/distribution"
	"repro/internal/drsd"
	"repro/internal/loadmon"
	"repro/internal/matrix"
	"repro/internal/mpi"
	"repro/internal/telemetry"
	"repro/internal/timing"
	"repro/internal/vclock"
)

// Method and DropPolicy select the adaptation policy, distribution.Decide.
type (
	Method     = distribution.Method
	DropPolicy = distribution.DropPolicy
)

const (
	SuccessiveBalancing = distribution.SuccessiveBalancing // the default
	RelativePower       = distribution.RelativePower
	DropAuto            = distribution.DropAuto // the default
	DropNever           = distribution.DropNever
	DropAlways          = distribution.DropAlways
	DropLogical         = distribution.DropLogical
)

// Reserved tag space: user tags must stay below tagBase.
const (
	tagBase       = 1 << 20
	tagRedist     = tagBase        // + array registration index
	tagOut        = tagBase + 512  // the send-out stream to removed ranks (colls.go)
	tagLoadReply  = tagBase + 513  // a removed rank's answer to a rejoin ping
	tagMembership = tagBase + 514  // membership packet to spawned ranks (membership.go)
	tagReplica    = tagBase + 1024 // + array registration index (buddy-replica refresh)
	tagServe      = tagBase + 1536 // + array registration index (a holder serving a dead rank's rows)
)

// Config parameterises the runtime (the DMPI_init arguments plus the
// tuning knobs the paper fixes at defaults).
type Config struct {
	// Adapt enables the Dyn-MPI machinery. False reproduces a plain MPI
	// program: no monitoring, no redistribution, no overhead.
	Adapt bool
	// Method selects successive balancing (default) or relative power.
	Method Method
	// Drop selects the node-removal policy.
	Drop DropPolicy
	// GracePeriod is the number of phase cycles measured after a load
	// change before redistributing (paper default 5).
	GracePeriod int
	// MaxRedists caps the number of redistributions (0 = unlimited). The
	// Figure 5 "Redist Once" configuration uses 1.
	MaxRedists int
	// Alloc selects the dense allocation scheme (Projection by default;
	// Contiguous reproduces the baseline of the §4.1 comparison).
	Alloc matrix.Alloc
	// AllowRejoin enables re-addition of physically removed nodes once
	// their competing processes vanish (the capability §2.2 mentions and
	// the paper leaves to future work). Removed nodes are polled once per
	// phase cycle by the send-out root; a rejoin rebuilds the group and
	// redistributes.
	AllowRejoin bool
	// Replicate enables buddy replication of dense arrays: each rank ships
	// a copy of its owned rows to its ring successor in the current
	// distribution at every (re)distribution point, so a crashed rank's rows
	// can be reconstructed during failure recovery instead of being declared
	// lost. Sparse arrays are never replicated.
	Replicate bool
	// ReplicaEvery additionally refreshes replicas every N phase cycles
	// (0 = only at distribution points). A replica restores the state it
	// captured, so a smaller interval means fresher recovered data.
	ReplicaEvery int
	// ReplicaRMA switches the replica refresh from paired send/recv to
	// one-sided Puts into the buddy's replica window with a deferred
	// epoch close (rma.go): the holder no longer stalls in a paired receive
	// during the refresh cycle, because the epoch opened at one refresh
	// point is not settled until the next one — a full cycle of computation
	// hides the wire. Recovery content is identical to the paired path at
	// the same ReplicaEvery staleness.
	ReplicaRMA bool
	// RedistMode selects how redistribution Phase 3 moves and commits
	// incoming slabs; see the constants.
	RedistMode RedistMode
	// Telemetry, when non-nil, receives a structured record for every
	// adaptation action: per-cycle iteration breakdowns, distribution
	// decisions with the candidates considered, redistribution volumes and
	// membership changes. It is the runtime's only trace: with a nil sink
	// (the default) nothing is recorded. The sink is shared by all ranks and
	// must be safe for concurrent use; it never moves virtual time.
	Telemetry telemetry.Sink
}

// DefaultConfig returns the paper's default configuration.
func DefaultConfig() Config {
	return Config{
		Adapt:       true,
		Method:      SuccessiveBalancing,
		Drop:        DropAuto,
		GracePeriod: timing.DefaultGracePeriod,
		Alloc:       matrix.Projection,
	}
}

// RedistMode selects the Phase 3 strategy of applyDistribution.
type RedistMode int

const (
	// RedistPipelined (default): post all Irecvs up front, Isend the
	// outgoing slabs, then wait on and commit each receive in schedule order
	// with replay-priced Waits — virtual clocks, traces and checksums are
	// those of one blocking receive per transfer in schedule order, whatever
	// physical order the slabs arrive in.
	RedistPipelined RedistMode = iota
	// RedistRMA commits dense transfers through one-sided windows
	// (rma.go): after the resident windows resize, each receiver exposes
	// its new window to the ranks the schedule has sending to it, and they
	// Put packed row slabs directly at destination offsets computed from
	// the schedule, collapsing the Phase-3 receive/commit into one pairwise
	// epoch per (sender, receiver). The receiver pays no per-message CPU
	// and no commit touches (the deposit is a modelled DMA). Sparse arrays
	// and failure recoveries go through the pipelined drain. Opt-in: the
	// virtual timeline differs from the pipelined one.
	RedistRMA
)

type adaptState int

const (
	stNormal adaptState = iota
	stGrace
	stPost
)

// regArray is one registered redistributable array and what the runtime keeps
// per array: accesses, buddy replica, and the windows that move its rows.
type regArray struct {
	name     string
	dense    *matrix.Dense
	sparse   *matrix.Sparse
	accesses []drsd.Access // sized for a stencil's three at registration
	index    int           // registration index: tag offset, position in Runtime.arrays

	rep    *replica    // the ring predecessor's rows; nil until one is stored or staged
	wins   [2]*mpi.Win // by winKind (rma.go); dense arrays only
	winMem denseWinMem // the redistribution window's memory, attached by pointer
}

// Runtime is one rank's Dyn-MPI runtime instance.
type Runtime struct {
	comm *mpi.Comm
	node *cluster.Node
	cfg  Config

	n      int        // distributed iteration space size
	phase  Phase      // the handle InitPhase returns
	arrays []regArray // in registration order, identical on every rank

	membership // who computes, and what they agreed on (membership.go)

	group   *mpi.Group // the collective group over active
	isOut   bool       // this rank is not in active: it has been physically removed
	outSeq  int        // send-out stream position: of the next message sent, or awaited when removed (colls.go)
	outLog  []outEntry // stream messages since the last collective the root completed (non-root active ranks)
	dist    *drsd.Block
	monitor loadmon.Monitor

	committed  bool
	cycle      int
	state      adaptState
	graceLoads []int
	grace      timing.Collector  // reset at every grace period, never rebuilt
	collector  *timing.Collector // &grace while a grace period is measured
	cycTimer   *timing.CycleTimer
	cycOpen    bool
	commCPU    float64 // measured per-node per-cycle comm CPU (s)
	commWire   float64 // estimated per-node per-cycle wire time (s)

	graceMsgs0   int64 // counter snapshots at grace start
	graceBytes0  int64
	graceHidden0 vclock.Duration // hidden-wire counter at grace start
	graceStart   vclock.Time

	// Resize state (resize.go).
	joined        bool // this rank spawned mid-run; its membership arrives in a packet at Commit
	lateEntry     bool // joiner's first BeginCycle: the actives already adapted this cycle
	pendingResize int  // explicit Resize target (0 = none), consumed at the next cycle boundary
	hasArrivals   bool // the cluster declares arrival capacity (cached)

	// Failure state (failure.go).
	pendingDead   []int           // dead ranks detected, recovery not yet run
	deadRanks     []int           // every dead rank absorbed so far
	lost          []LostRange     // rows declared lost by failure recovery
	lostRows      int             // total rows lost
	recoveredRows int             // total rows reconstructed from replicas
	replicaStall  vclock.Duration // receive-side stall accumulated by refreshes

	// One-sided replica/redistribution state (rma.go); the windows themselves
	// are per array, on regArray.
	repRanks    []int      // replica-group member list at the last open
	repPrev     int        // ring predecessor at the last open (world rank)
	repNext     int        // ring successor at the last open (world rank)
	repOpen     bool       // a replica epoch is open (deposits or handshake pending)
	repPend     repRange   // range Put into this rank's windows this epoch
	redistGroup *mpi.Group // group the redistribution windows span

	// Redistribution scratch, reused across applyDistribution calls so a
	// steady stream of redistributions performs no per-call allocation for
	// schedules or bookkeeping (see redist.go for the slab pool invariants).
	schedBuf  []drsd.Transfer
	destBuf   []int
	outsBuf   []redistOut
	insBuf    []redistIn
	reqBuf    []*mpi.Request
	originBuf []int // the ranks Putting into this rank's window (rma.go)

	// Load-exchange scratch: the per-cycle allgather of load readings goes
	// through the unboxed float64 collective when no removed-node sidecar is
	// in flight, and these buffers keep that exchange allocation-free. Every
	// consumer of the returned load vector copies it before retaining.
	loadBuf  []float64
	loadInts []int

	// Adaptation-event scratch: what a membership change or a redistribution
	// decision computes and nothing retains (scratch.go).
	nodesBuf  []distribution.Node
	fracBuf   []float64
	countBuf  []int
	unitCosts []float64            // all ones: the iteration costs before any grace period measured them
	decision  distribution.Scratch // what distribution.Decide computes

	// Telemetry state (sink == nil disables everything).
	sink       telemetry.Sink
	stamper    *telemetry.Stamper // its own object: the node points at it, and must not reach the Runtime
	cycVT0     vclock.Time        // cycle-start wall clock
	cycCPU0    vclock.Duration    // cycle-start application CPU time
	cycMsgs0   int64              // cycle-start message counter
	cycBytes0  int64              // cycle-start byte counter
	cycHidden0 vclock.Duration    // cycle-start hidden-wire counter
	cycLoad    int                // this rank's load observed this cycle
}

// New creates the runtime for this rank (DMPI_init). All ranks of the
// world participate initially.
func New(comm *mpi.Comm, cfg Config) *Runtime {
	if cfg.GracePeriod <= 0 {
		cfg.GracePeriod = timing.DefaultGracePeriod
	}
	var m membership
	var all *mpi.Group
	if !comm.Spawned() {
		// Every rank of the world, unloaded. A joiner's membership, cycle and
		// distribution arrive in a packet when its application commits.
		m = membership{active: make([]int, comm.Size()), baseLoads: make([]int, comm.Size())}
		for i := range m.active {
			m.active[i] = i
		}
		all = comm.World().AllGroup()
	}
	rt := &Runtime{
		comm:       comm,
		node:       comm.Node(),
		cfg:        cfg,
		membership: m,
		group:      all,
		monitor:    *loadmon.New(comm.Node()),
		joined:     comm.Spawned(),
		lateEntry:  comm.Spawned(),
	}
	rt.phase.rt = rt
	rt.hasArrivals = comm.World().Cluster().HasArrivals()
	if cfg.Telemetry != nil {
		rt.sink = cfg.Telemetry
		rt.stamper = telemetry.NewStamper(comm.Rank())
		rt.monitor.Attach(rt.sink, rt.stamper, &rt.cycle)
		rt.node.AttachTelemetry(rt.sink, rt.stamper)
	}
	return rt
}

// Comm exposes the underlying communicator (world ranks).
func (rt *Runtime) Comm() *mpi.Comm { return rt.comm }

// Node exposes the cluster node this rank runs on.
func (rt *Runtime) Node() *cluster.Node { return rt.node }

// Config returns the runtime's configuration.
func (rt *Runtime) Config() Config { return rt.cfg }

// RegisterDense registers a redistributable dense array
// (DMPI_register_dense_array). rowLen is the extended-row length: the
// product of the non-distributed dimensions. rows must equal the phase
// iteration space.
func (rt *Runtime) RegisterDense(name string, rows, rowLen int) *matrix.Dense {
	rt.checkRegistration(name, rows)
	d := matrix.NewDense(name, rows, rowLen, rt.cfg.Alloc, rt.node)
	rt.register(regArray{name: name, dense: d})
	return d
}

// RegisterSparse registers a redistributable sparse array
// (DMPI_register_sparse_array) in the vector-of-lists format.
func (rt *Runtime) RegisterSparse(name string, rows int) *matrix.Sparse {
	rt.checkRegistration(name, rows)
	s := matrix.NewSparse(name, rows, rt.node)
	rt.register(regArray{name: name, sparse: s})
	return s
}

// register files a at the next registration index. The array list starts at
// a stencil's ping-pong pair and each access list at a stencil's three.
func (rt *Runtime) register(a regArray) {
	if rt.arrays == nil {
		rt.arrays = make([]regArray, 0, 2)
	}
	a.index = len(rt.arrays)
	a.accesses = make([]drsd.Access, 0, 3)
	rt.arrays = append(rt.arrays, a)
}

// array returns the registered array called name, or nil.
func (rt *Runtime) array(name string) *regArray {
	for i := range rt.arrays {
		if rt.arrays[i].name == name {
			return &rt.arrays[i]
		}
	}
	return nil
}

func (rt *Runtime) checkRegistration(name string, rows int) {
	if rt.committed {
		panic("core: arrays must be registered before the first cycle")
	}
	if rt.array(name) != nil {
		panic(fmt.Sprintf("core: array %q registered twice", name))
	}
	if rt.n != 0 && rows != rt.n {
		panic(fmt.Sprintf("core: array %q has %d rows, phase space is %d", name, rows, rt.n))
	}
	if rt.n == 0 {
		rt.n = rows
	}
}

// Phase is one computation/communication section of the phase cycle
// (DMPI_init_phase). All phases share the runtime's distribution and file
// their accesses with the arrays, so a Phase is only a handle on its runtime.
type Phase struct {
	rt *Runtime
}

// InitPhase declares a phase over the distributed iteration space [0,n)
// (DMPI_init_phase). All phases of a runtime must agree on n.
func (rt *Runtime) InitPhase(n int) *Phase {
	if rt.committed {
		panic("core: phases must be declared before the first cycle")
	}
	if rt.n != 0 && n != rt.n {
		panic(fmt.Sprintf("core: phase over %d iterations, space is %d", n, rt.n))
	}
	rt.n = n
	return &rt.phase
}

// AddAccess declares one array reference of the phase's partitioned loop
// (DMPI_add_array_access): array[i*step + off] for loop variable i.
func (ph *Phase) AddAccess(array string, mode drsd.Mode, step, off int) {
	if ph.rt.committed {
		panic("core: accesses must be declared before the first cycle")
	}
	a := ph.rt.array(array)
	if a == nil {
		panic(fmt.Sprintf("core: access to unregistered array %q", array))
	}
	a.accesses = append(a.accesses, drsd.Access{Array: array, Mode: mode, Step: step, Off: off})
}

// Bounds returns this rank's current iteration range [lo,hi)
// (DMPI_get_start_iter / DMPI_get_end_iter, half-open in Go style).
func (ph *Phase) Bounds() (lo, hi int) {
	ph.rt.ensureCommitted()
	return ph.rt.dist.RangeOf(ph.rt.comm.Rank())
}

// Participating reports whether this rank is part of the computation
// (DMPI_participating). It is false after physical removal.
func (rt *Runtime) Participating() bool { return !rt.isOut }

// Joined reports whether this rank spawned mid-run (elastic growth). A
// joined rank's application must start its cycle loop at Cycle() instead of
// zero and skip its initial array fill — the admission redistribution
// already shipped it current data (membership.go).
func (rt *Runtime) Joined() bool { return rt.joined }

// Cycle reports the phase cycle the next BeginCycle will open. Joiners read
// it after Commit to find the cycle the world is at.
func (rt *Runtime) Cycle() int { return rt.cycle }

// RelRank returns this rank's relative rank among active nodes
// (DMPI_get_rel_rank), or -1 if removed.
func (rt *Runtime) RelRank() int {
	for i, r := range rt.active {
		if r == rt.comm.Rank() {
			return i
		}
	}
	return -1
}

// NumActive reports the number of participating nodes (DMPI_get_num_active).
func (rt *Runtime) NumActive() int { return len(rt.active) }

// WorldRankOf maps a relative rank to a world rank.
func (rt *Runtime) WorldRankOf(rel int) int { return rt.active[rel] }

// SendRel sends to a relative rank (DMPI_Send).
func (rt *Runtime) SendRel(relDst, tag int, payload any, bytes int) {
	if tag >= tagBase {
		panic("core: user tag collides with runtime tag space")
	}
	rt.comm.Send(rt.active[relDst], tag, payload, bytes)
}

// RecvRel receives from a relative rank (DMPI_Recv).
func (rt *Runtime) RecvRel(relSrc, tag int) (any, mpi.Status) {
	if tag >= tagBase {
		panic("core: user tag collides with runtime tag space")
	}
	return rt.comm.Recv(rt.active[relSrc], tag)
}

// RecvRelF64s receives a []float64 from a relative rank.
func (rt *Runtime) RecvRelF64s(relSrc, tag int) ([]float64, mpi.Status) {
	p, st := rt.RecvRel(relSrc, tag)
	return p.([]float64), st
}

// Compute charges unattributed computation (reference cost) to this node.
func (rt *Runtime) Compute(cost vclock.Duration) { rt.node.Compute(cost) }

// ComputeIter charges the computation of global iteration g, feeding the
// grace-period collector when one is active. Applications call this once
// per iteration of the partitioned loop.
func (rt *Runtime) ComputeIter(g int, cost vclock.Duration) {
	if rt.collector != nil {
		rt.collector.BeginIter()
		rt.node.Compute(cost)
		rt.collector.EndIter(g)
		return
	}
	rt.node.Compute(cost)
}

// ComputeIters is ComputeIter(g, cost) for every g in [lo,hi), for a loop
// whose iterations cost the same: one bulk charge (cluster.Node.ComputeN,
// identical to hi-lo single ones) unless a grace-period collector is active,
// which needs its stamps around each iteration.
func (rt *Runtime) ComputeIters(lo, hi int, cost vclock.Duration) {
	if rt.collector == nil {
		rt.node.ComputeN(cost, hi-lo)
		return
	}
	for g := lo; g < hi; g++ {
		rt.ComputeIter(g, cost)
	}
}

// Dist exposes the current distribution (for tests and the harness).
func (rt *Runtime) Dist() *drsd.Block { return rt.dist }

// Redistributions reports how many redistributions the world has made — the
// count the members agree on, also on a rank that joined after some of them.
func (rt *Runtime) Redistributions() int { return rt.redists }

// stamp builds the common telemetry fields for a record emitted now. Only
// call when rt.sink != nil.
func (rt *Runtime) stamp(kind string) telemetry.Base {
	return rt.stamper.Stamp(kind, rt.cycle, rt.node.Now().Seconds())
}

// emitMembership reports a membership change (or logical drop) through the
// telemetry sink, with the ranks it took out and in. The active list doubles
// as the relative-rank remap: relative rank i maps to world rank active[i].
func (rt *Runtime) emitMembership(change string, left, joined []int) {
	if rt.sink == nil {
		return
	}
	// One copy serves all three lists: nothing writes a record's slices, and
	// the remap is the active list.
	na := len(rt.active)
	ranks := append(append(make([]int, 0, na+len(rt.removed)), rt.active...), rt.removed...)
	rt.sink.Emit(telemetry.MembershipRecord{
		Base:    rt.stamp(telemetry.KindMembership),
		Change:  change,
		Active:  ranks[:na:na],
		Removed: ranks[na:],
		Remap:   ranks[:na:na],
		Left:    left,
		Joined:  joined,
	})
}

// beginCycleTelemetry snapshots the counters that EndCycle turns into an
// IterationRecord.
func (rt *Runtime) beginCycleTelemetry() {
	if rt.sink == nil {
		return
	}
	rt.cycVT0 = rt.node.Now()
	rt.cycCPU0 = rt.node.CPUTime()
	rt.cycMsgs0 = rt.comm.SentMsgs + rt.comm.RecvMsgs
	rt.cycBytes0 = rt.comm.SentBytes + rt.comm.RecvBytes
	rt.cycHidden0 = rt.comm.HiddenWire
	rt.cycLoad = rt.node.CPCount()
}

// endCycleTelemetry emits the per-cycle IterationRecord: the cycle's wall
// time split into compute, communication CPU (reconstructed from traffic
// counters and the network cost model) and blocked wait, plus this rank's
// measured share of the iteration space.
func (rt *Runtime) endCycleTelemetry() {
	if rt.sink == nil {
		return
	}
	net := rt.comm.World().Cluster().Net()
	wall := rt.node.Now().Sub(rt.cycVT0).Seconds()
	cpu := (rt.node.CPUTime() - rt.cycCPU0).Seconds()
	msgs := float64(rt.comm.SentMsgs + rt.comm.RecvMsgs - rt.cycMsgs0)
	bytes := float64(rt.comm.SentBytes + rt.comm.RecvBytes - rt.cycBytes0)
	comm := msgs*net.CPUPerMsg.Seconds() + bytes*net.CPUPerByte/1e9
	compute := cpu - comm
	if compute < 0 {
		compute = 0
	}
	wait := wall - cpu
	if wait < 0 {
		wait = 0
	}
	share := 0
	if lo, hi := rt.dist.RangeOf(rt.comm.Rank()); hi > lo {
		share = hi - lo
	}
	rt.sink.EmitIteration(telemetry.IterationRecord{
		Base:         rt.stamp(telemetry.KindIteration),
		ComputeS:     compute,
		CommS:        comm,
		WaitS:        wait,
		HiddenWireNs: int64(rt.comm.HiddenWire - rt.cycHidden0),
		Share:        share,
		Load:         rt.cycLoad,
	})
}

// ensureCommitted materialises the initial distribution and array windows.
func (rt *Runtime) ensureCommitted() {
	if rt.committed {
		return
	}
	if rt.n == 0 {
		panic("core: no phase declared")
	}
	rt.committed = true
	if rt.joined {
		// From the root or a survivor (replayOut); a spawned rank cannot know
		// which. If the root sent it and died, the re-sent copy stays unread.
		p, _ := rt.comm.Recv(mpi.AnySource, tagMembership)
		m := p.(packetMsg)
		rt.outSeq = m.seq
		rt.adopt(m.pkt)
		return
	}
	rt.dist = drsd.EqualBlock(rt.active, rt.n)
	for i := range rt.arrays {
		a := &rt.arrays[i]
		lo, hi := rt.dist.RangeOf(rt.comm.Rank())
		wlo, whi := drsd.Window(a.accesses, lo, hi, rt.n)
		if a.dense != nil {
			a.dense.SetWindow(wlo, whi)
		} else {
			a.sparse.SetWindow(wlo, whi)
		}
	}
	rt.refreshReplicasNow()
}

// Commit forces initialisation before the first cycle so the application
// can fill its arrays (windows exist after this call).
func (rt *Runtime) Commit() { rt.ensureCommitted() }

// arrayNames returns the registered array names in registration order.
func (rt *Runtime) arrayNames() []string {
	out := make([]string, len(rt.arrays))
	for i := range rt.arrays {
		out[i] = rt.arrays[i].name
	}
	return out
}
