// Package dynmpi is the public API of the Dyn-MPI reproduction: a runtime
// system that automatically redistributes block-distributed array data when
// the load on a (simulated) non dedicated cluster changes, following
// Weatherly, Lowenthal, Nakazawa & Lowenthal, "Dyn-MPI: Supporting MPI on
// Non Dedicated Clusters" (SC 2003).
//
// A Dyn-MPI program mirrors the paper's Figure 2: register the arrays that
// may be redistributed, declare each array reference of the partitioned
// loop as a deferred regular section descriptor, and then, every phase
// cycle, ask the runtime for the current loop bounds and communicate via
// relative ranks:
//
//	err := dynmpi.Launch(dynmpi.Uniform(4), dynmpi.DefaultConfig(),
//	    func(rt *dynmpi.Runtime) error {
//	        a := rt.RegisterDense("A", n, n)
//	        ph := rt.InitPhase(n)
//	        ph.AddAccess("A", dynmpi.ReadWrite, 1, 0)
//	        rt.Commit()
//	        // ... fill a ...
//	        for t := 0; t < iters; t++ {
//	            if rt.BeginCycle() {
//	                lo, hi := ph.Bounds()
//	                for i := lo; i < hi; i++ {
//	                    // real computation on a.Row(i)
//	                }
//	                rt.ComputeIters(lo, hi, costOfRow)
//	                // explicit communication via rt.SendRel / rt.RecvRel
//	            }
//	            rt.EndCycle()
//	        }
//	        rt.Finalize()
//	        return nil
//	    })
//
// The model time of the loop is charged in one of two forms, which agree
// exactly — ComputeIters(lo, hi, c) is ComputeIter(g, c) for every g in
// [lo,hi), in virtual time, traces and telemetry. Use ComputeIters when
// every iteration of the range costs the same (dense stencils): the range
// is charged in bulk and costs the host next to nothing. Use
//
//	rt.ComputeIter(i, costOfRow(i))
//
// inside the loop when the cost differs per iteration (sparse rows,
// particle cells, triangular work). Either way, charge a range before the
// next message leaves the rank: a send carries the clock it is sent at.
//
// The underlying cluster, message passing, matrices, section descriptors
// and distribution algorithms live in the internal packages; this package
// re-exports everything a user program needs.
package dynmpi

import (
	"io"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/drsd"
	"repro/internal/fault"
	"repro/internal/matrix"
	"repro/internal/mpi"
	"repro/internal/telemetry"
	"repro/internal/vclock"
)

// Core runtime types (see internal/core for full documentation).
type (
	// Runtime is one rank's Dyn-MPI runtime instance.
	Runtime = core.Runtime
	// Config parameterises the runtime.
	Config = core.Config
	// Phase is one computation/communication section of the phase cycle.
	Phase = core.Phase
	// Method selects the distribution algorithm.
	Method = core.Method
	// DropPolicy controls node removal.
	DropPolicy = core.DropPolicy
)

// Distribution methods and drop policies.
const (
	SuccessiveBalancing = core.SuccessiveBalancing
	RelativePower       = core.RelativePower

	DropAuto    = core.DropAuto
	DropNever   = core.DropNever
	DropAlways  = core.DropAlways
	DropLogical = core.DropLogical
)

// Access modes for AddAccess.
const (
	Read      = drsd.Read
	Write     = drsd.Write
	ReadWrite = drsd.ReadWrite
)

// Allocation schemes for dense arrays.
const (
	Projection = matrix.Projection
	Contiguous = matrix.Contiguous
)

// Matrix types returned by the registration calls.
type (
	// Dense is a rank's resident window of a dense array.
	Dense = matrix.Dense
	// Sparse is a rank's resident window of a vector-of-lists sparse array.
	Sparse = matrix.Sparse
	// PackedRow is a sparse row packed for transport.
	PackedRow = matrix.PackedRow
)

// Cluster scenario types.
type (
	// ClusterSpec describes the simulated cluster and its load events.
	ClusterSpec = cluster.Spec
	// NodeSpec describes one node.
	NodeSpec = cluster.NodeSpec
	// NetParams describes the interconnect cost model.
	NetParams = cluster.NetParams
	// LoadEvent changes the competing-process count on one node.
	LoadEvent = cluster.Event
)

// Virtual time types.
type (
	// Time is a point in virtual time.
	Time = vclock.Time
	// Duration is a span of virtual time in nanoseconds.
	Duration = vclock.Duration
)

// Common durations.
const (
	Microsecond = vclock.Microsecond
	Millisecond = vclock.Millisecond
	Second      = vclock.Second
)

// DefaultConfig returns the paper's default runtime configuration:
// adaptation on, successive balancing, automatic node removal, 5-cycle
// grace period, 10-cycle post-redistribution grace.
func DefaultConfig() Config { return core.DefaultConfig() }

// Uniform returns a cluster of n identical nodes with no competing
// processes and the paper-like default network parameters.
func Uniform(n int) ClusterSpec { return cluster.Uniform(n) }

// CompetingProcessAt schedules a competing-process start on node at a
// virtual time.
func CompetingProcessAt(node int, at Time) LoadEvent { return cluster.TimeEvent(node, at, +1) }

// CompetingProcessAtCycle schedules a competing-process start on node when
// its application reaches the given phase cycle (the paper's "introduced on
// the 10th iteration" scenarios).
func CompetingProcessAtCycle(node, cycle int) LoadEvent { return cluster.CycleEvent(node, cycle, +1) }

// CompetingProcessStop schedules the removal of one competing process.
func CompetingProcessStop(node int, at Time) LoadEvent { return cluster.TimeEvent(node, at, -1) }

// Fault is one injected failure (crash, stall, message drop or delay); see
// internal/fault for trigger semantics. Faults are deterministic in virtual
// time: repeated runs of the same scenario replay identically.
type Fault = fault.Fault

// CrashAtCycle schedules node to crash at the start of the given phase
// cycle. Survivors detect the death, drop the member and re-partition; with
// Config.Replicate the dead rank's dense rows are reconstructed from the
// buddy replica.
func CrashAtCycle(node, cycle int) Fault { return fault.CrashAtCycle(node, cycle) }

// CrashAt schedules node to crash at its first communication operation at
// or after virtual time t.
func CrashAt(node int, t Time) Fault { return fault.CrashAt(node, t) }

// StallAtCycle freezes node for dur of virtual time at the start of cycle.
func StallAtCycle(node, cycle int, dur Duration) Fault { return fault.StallAtCycle(node, cycle, dur) }

// DropMessages drops count messages on the node->to link starting with the
// after-th (0-based); each is redelivered one retransmission delay later.
func DropMessages(node, to, after, count int) Fault { return fault.DropMsgs(node, to, after, count) }

// DelayMessages adds dur to the delivery of count messages on the node->to
// link starting with the after-th (0-based).
func DelayMessages(node, to, after, count int, dur Duration) Fault {
	return fault.DelayMsgs(node, to, after, count, dur)
}

// ParseFaults parses the dynexp -fault spec syntax (semicolon-separated
// "kind:key=value,..." entries, e.g. "crash:node=2,cycle=12").
func ParseFaults(s string) ([]Fault, error) { return fault.ParseSpecs(s) }

// WithFaults returns spec with the given faults added to the scenario.
func WithFaults(spec ClusterSpec, faults ...Fault) ClusterSpec {
	spec.Faults = append(append([]Fault(nil), spec.Faults...), faults...)
	return spec
}

// Launch runs fn as an SPMD program: one goroutine per cluster node, each
// receiving its own Runtime built from cfg. It returns the first error any
// rank produced (a failing rank unwinds the whole world), or what is wrong
// with cfg (Config.Validate) or spec (ClusterSpec.Validate) before any rank
// starts.
func Launch(spec ClusterSpec, cfg Config, fn func(rt *Runtime) error) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	cl, err := cluster.Build(spec)
	if err != nil {
		return err
	}
	return mpi.Run(cl, func(c *mpi.Comm) error {
		return fn(core.New(c, cfg))
	})
}

// Op is a reduction operator for Runtime.AllreduceF64sInto.
type Op = mpi.Op

// Reduction operators.
const (
	Sum = mpi.Sum
	Max = mpi.Max
)

// F64Bytes reports the wire size of n float64 values, for SendRel calls.
func F64Bytes(n int) int { return mpi.F64Bytes(n) }

// Telemetry types (see internal/telemetry for full documentation). Every
// adaptation action of an instrumented run is emitted as a structured
// record: per-cycle iteration breakdowns, distribution decisions with the
// candidates considered, redistribution volumes, and membership changes.
type (
	// TelemetrySink receives structured runtime records; implementations
	// must be safe for concurrent use across rank goroutines.
	TelemetrySink = telemetry.Sink
	// TelemetryRecord is one structured telemetry event.
	TelemetryRecord = telemetry.Record
	// TelemetryRing is the bounded in-memory sink.
	TelemetryRing = telemetry.Ring
	// IterationRecord is the per-cycle compute/comm/wait breakdown.
	IterationRecord = telemetry.IterationRecord
	// DecisionRecord is one adaptation decision with its candidates.
	DecisionRecord = telemetry.DecisionRecord
	// RedistRecord is one executed redistribution's volume accounting.
	RedistRecord = telemetry.RedistRecord
	// MembershipRecord is one active-set change with the rank remap.
	MembershipRecord = telemetry.MembershipRecord
	// TelemetryJSONL is the streaming JSONL sink.
	TelemetryJSONL = telemetry.JSONLWriter
)

// WithTelemetry returns a copy of cfg that emits structured records into
// sink. Pass the result to Launch:
//
//	ring := dynmpi.NewTelemetryRing(1 << 16)
//	err := dynmpi.Launch(spec, dynmpi.WithTelemetry(dynmpi.DefaultConfig(), ring), fn)
func WithTelemetry(cfg Config, sink TelemetrySink) Config {
	cfg.Telemetry = sink
	return cfg
}

// NewTelemetryRing returns an in-memory sink holding the most recent
// `capacity` records.
func NewTelemetryRing(capacity int) *TelemetryRing { return telemetry.NewRing(capacity) }

// NewTelemetryJSONL returns a sink that writes one JSON object per record
// to w in arrival order; call Flush when the run completes. For a
// deterministic file, collect into a ring and use WriteTelemetryJSONL.
func NewTelemetryJSONL(w io.Writer) *TelemetryJSONL { return telemetry.NewJSONLWriter(w) }

// WriteTelemetryJSONL writes records to w as JSONL in slice order. Sort
// them first with SortTelemetry for the deterministic global order.
func WriteTelemetryJSONL(w io.Writer, recs []TelemetryRecord) error {
	return telemetry.WriteJSONL(w, recs)
}

// SortTelemetry orders records by (virtual time, node, sequence), the
// deterministic global order of a simulated run.
func SortTelemetry(recs []TelemetryRecord) { telemetry.Sort(recs) }

// HaloExchange performs the standard nearest-neighbour boundary exchange
// for the current block distribution: each rank sends its first owned row
// up and its last owned row down (copying them at the send), receiving the
// adjacent ghost rows through store. It is safe across redistributions and
// node removals: adjacency follows row ownership, not relative rank, and
// ranks owning no rows neither send nor receive. n is the global row
// count; rowOf must return resident row g; store receives ghost rows, each
// valid only during the call — store must copy what it keeps. tag must lie
// in the user tag space [0, 2^20); any other fails the run.
func HaloExchange(rt *Runtime, tag, n int, rowOf func(g int) []float64, store func(g int, row []float64)) {
	apps.HaloExchange(rt, tag, n, rowOf, store)
}

// HaloExchangeOverlap is HaloExchange with communication/computation
// overlap: the boundary rows are posted nonblockingly, overlap (typically
// the interior compute, which must not touch the boundary or ghost rows)
// runs over the in-flight wire time, and only then are the ghost rows
// waited for and stored. Wire time hidden behind the overlap closure is
// free in virtual time and credited to the run's hidden-wire telemetry.
// With a nil overlap it degenerates to HaloExchange's exact charges.
func HaloExchangeOverlap(rt *Runtime, tag, n int, rowOf func(g int) []float64, store func(g int, row []float64), overlap func()) {
	apps.HaloExchangeOverlap(rt, tag, n, rowOf, store, overlap)
}
