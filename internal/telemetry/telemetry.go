// Package telemetry is the runtime's structured observability layer. Every
// adaptation decision the Dyn-MPI runtime takes — load measurement,
// distribution choice, redistribution volume, node removal and rejoin — is
// emitted as a typed record through a pluggable Sink, so the paper's claims
// (successive balancing beats relative power; removal pays off under heavy
// load) can be verified from a trace instead of reverse-engineered from
// unexported state.
//
// The default is no telemetry at all: a runtime with a nil sink skips every
// emission. Two sink implementations are provided: Ring (bounded in-memory
// buffer, for tests and post-run aggregation) and JSONLWriter (one JSON
// object per line, for offline analysis). Sinks must
// be safe for concurrent use — every rank goroutine of a run emits into the
// same sink.
//
// Records carry virtual time, the emitting node, the phase cycle and a
// per-node sequence number. Per-node emission order is deterministic (the
// simulator's virtual clocks are), so Sort's (time, node, seq) order yields
// a reproducible global trace even though physical arrival order at the
// sink depends on goroutine scheduling.
package telemetry

import (
	"cmp"
	"math"
	"slices"
)

// Record kinds, as written to the "kind" field of JSONL output.
const (
	KindIteration  = "iteration"
	KindDecision   = "decision"
	KindRedist     = "redist"
	KindMembership = "membership"
	KindLoadSample = "load-sample"
	KindLoadEvent  = "load-event"
	KindFailure    = "failure"
	KindCollective = "collective"
	KindRMA        = "rma"
)

// Record is one structured telemetry event.
type Record interface {
	// Kind returns the record's kind constant.
	Kind() string
	// Meta returns the common fields.
	Meta() Base
}

// Base holds the fields shared by every record.
type Base struct {
	K     string  `json:"kind"`
	Node  int     `json:"node"`  // world rank / cluster node id of the emitter
	Cycle int     `json:"cycle"` // phase cycle at emission (-1 when not in a cycle)
	Time  float64 `json:"vt"`    // virtual time in seconds
	Seq   int     `json:"seq"`   // per-node emission counter
}

// Kind implements Record.
func (b Base) Kind() string { return b.K }

// Meta implements Record.
func (b Base) Meta() Base { return b }

// Stamper assigns per-node sequence numbers and fills the common fields.
// One stamper serves all emitters running on a single node's goroutine.
type Stamper struct {
	node int
	seq  int
}

// NewStamper creates a stamper for the given node id.
func NewStamper(node int) *Stamper { return &Stamper{node: node} }

// Stamp produces the Base for the next record emitted by this node.
func (s *Stamper) Stamp(kind string, cycle int, vtSeconds float64) Base {
	b := Base{K: kind, Node: s.node, Cycle: cycle, Time: vtSeconds, Seq: s.seq}
	s.seq++
	return b
}

// IterationRecord describes one phase cycle on one node: wall-clock split
// into compute, communication and wait, plus the node's measured share of
// the iteration space and its observed load.
type IterationRecord struct {
	Base
	ComputeS float64 `json:"compute_s"` // CPU seconds spent computing
	CommS    float64 `json:"comm_s"`    // CPU seconds spent on message processing
	WaitS    float64 `json:"wait_s"`    // wall seconds blocked (recv, collectives, CP delay)
	// HiddenWireNs is the virtual wire time that elapsed behind computation
	// between posting a nonblocking receive and waiting on it — communication
	// the overlap machinery made free. Zero (and omitted) on purely blocking
	// cycles.
	HiddenWireNs int64 `json:"hidden_wire_ns,omitempty"`
	Share        int   `json:"share"` // iterations assigned to this node
	Load         int   `json:"load"`  // competing processes observed this cycle
}

// Candidate is one distribution the decision machinery considered.
type Candidate struct {
	Label      string  `json:"label"`       // e.g. "relative-power", "successive-balancing"
	Counts     []int   `json:"counts"`      // iterations per active node
	PredictedS float64 `json:"predicted_s"` // predicted per-cycle time
}

// CostRun is N consecutive iterations from Lo that cost the same.
type CostRun struct {
	Lo   int     `json:"lo"`
	N    int     `json:"n"`
	Cost float64 `json:"cost"`
}

// CostRuns encodes per-iteration costs as maximal runs of bit-equal costs:
// a uniform workload is one run.
func CostRuns(costs []float64) []CostRun {
	var runs []CostRun
	for g, c := range costs {
		if k := len(runs) - 1; k >= 0 && math.Float64bits(runs[k].Cost) == math.Float64bits(c) {
			runs[k].N++
		} else {
			runs = append(runs, CostRun{Lo: g, N: 1, Cost: c})
		}
	}
	return runs
}

// DecisionRecord captures one adaptation decision: its inputs — the loads
// that triggered it, the node powers, the measured communication and
// iteration costs — every candidate distribution considered, and what was
// chosen. The inputs are all distribution.Decide reads besides the
// configured policy, so the decision can be replayed from its record.
type DecisionRecord struct {
	Base
	Method     string      `json:"method"`      // the rule that decided: a balancing method or a drop policy
	Loads      []int       `json:"loads"`       // per-active-node competing processes
	Powers     []float64   `json:"powers"`      // per-active-node static power
	CommCPUS   float64     `json:"comm_cpu_s"`  // per-node per-cycle communication CPU
	CommWireS  float64     `json:"comm_wire_s"` // per-node per-cycle wire time
	IterCosts  []CostRun   `json:"iter_costs"`  // per-iteration unloaded costs on a power-1 node
	Candidates []Candidate `json:"candidates,omitempty"`
	Chosen     string      `json:"chosen"`               // label of the winning candidate or verdict
	Counts     []int       `json:"counts,omitempty"`     // the distribution actually installed
	PredictedS float64     `json:"predicted_s"`          // predicted per-cycle time of the choice
	MeasuredS  float64     `json:"measured_s,omitempty"` // measured time (drop decisions only)
	// GraceVT is the virtual time (seconds) the grace period this decision
	// measured began — the detected load change, or its last restart. Set on
	// the decisions that end a grace period (successive balancing, relative
	// power, drop-always, drop-logical); zero on drop-auto verdicts.
	GraceVT float64 `json:"grace_vt,omitempty"`
}

// ArrayMove is one array's share of a redistribution.
type ArrayMove struct {
	Name  string `json:"name"`
	Rows  int    `json:"rows"`  // rows this node sent
	Bytes int64  `json:"bytes"` // bytes this node packed and sent
}

// RedistRecord describes one executed redistribution from the emitting
// node's perspective: what it shipped per array and the new distribution.
// It is emitted when the redistribution ends (Base.Time); StartVT is when it
// began, so StartVT→Time is this node's redistribution window.
type RedistRecord struct {
	Base
	Arrays     []ArrayMove `json:"arrays,omitempty"`
	RowsSent   int         `json:"rows_sent"`
	BytesSent  int64       `json:"bytes_sent"`
	BytesRecv  int64       `json:"bytes_recv"`          // received by this node; Σ sent == Σ recv fault-free
	BytesMoved int64       `json:"bytes_moved"`         // BytesSent + BytesRecv (kept as an explicit sum)
	Counts     []int       `json:"counts"`              // installed per-node iteration counts
	LostRows   int         `json:"lost_rows,omitempty"` // rows declared lost by a failure recovery
	StartVT    float64     `json:"start_vt"`            // virtual time (seconds) the redistribution began
	// StallS is the receive-side stall (seconds): virtual time this node's
	// clock jumped forward waiting for slab arrivals.
	StallS float64 `json:"stall_s"`
	Dead   []int   `json:"dead,omitempty"` // a failure recovery: the dead ranks whose rows it rebuilt or lost
}

// MembershipRecord describes a change of the active node set, as one side of
// it reports the change. Ranks that stay in the computation report "drop"
// (loaded nodes physically removed), "logical-drop" (loaded nodes kept with
// one iteration each), "rejoin" (removed nodes readmitted), "resize-grow"
// (spawned ranks admitted), "resize-shrink" (an explicit Resize released
// ranks) and "failure-drop" (dead ranks struck). The rank that leaves or
// enters reports "removed", "resize-removed", "rejoined" or "resize-join".
// Remap is the new relative-rank mapping: Remap[rel] = world rank.
type MembershipRecord struct {
	Base
	Change  string `json:"change"`
	Active  []int  `json:"active"`
	Removed []int  `json:"removed,omitempty"`
	Remap   []int  `json:"remap"`            // relative rank -> world rank
	Left    []int  `json:"left,omitempty"`   // ranks the change took out: dropped, shrunk out or dead
	Joined  []int  `json:"joined,omitempty"` // ranks the change took in: readmitted or spawned
}

// LoadSampleRecord is one dmpi_ps reading taken by the load monitor.
type LoadSampleRecord struct {
	Base
	Reading int `json:"reading"` // running+ready processes incl. the application
}

// LoadEventRecord marks a competing-process change materialising on a node
// (cycle-triggered scenario events).
type LoadEventRecord struct {
	Base
	Delta int `json:"delta"` // +1 CP started, -1 CP stopped
	Count int `json:"count"` // CP count after the change
}

// FailureRecord marks an injected fault firing on the emitting node: a
// crash or stall of the node itself, or a drop/delay on one of its outgoing
// links. Failure records never appear in fault-free runs, so their fields
// are always present in JSONL output.
type FailureRecord struct {
	Base
	Fault  string  `json:"fault"`   // "crash", "stall", "drop", "delay"
	Target int     `json:"target"`  // destination rank for message faults, -1 otherwise
	DelayS float64 `json:"delay_s"` // stall length / added delivery delay, in seconds
}

// CollectiveRecord summarises the collectives of one shape completed on one
// group over a run: the operation, the cost-model tree it is priced as, the
// group size and modelled tree depth, and the completed-operation and
// offered-byte totals. Emitted once per (group, shape) with a non-zero
// count, typically at run exit.
type CollectiveRecord struct {
	Base
	Op        string `json:"op"`        // "barrier", "bcast", "allreduce", ...
	Algorithm string `json:"algorithm"` // modelled tree, e.g. "recursive-doubling"
	Ranks     int    `json:"ranks"`     // group size
	Steps     int    `json:"steps"`     // modelled tree depth ceil(log2 ranks)
	Count     int64  `json:"count"`     // completed operations
	Bytes     int64  `json:"bytes"`     // payload bytes offered across members and ops
}

// RMARecord describes one closed one-sided epoch from the window owner's
// perspective: the synchronisation that closed it, how many deposits landed
// in the owner's window during the epoch, their total wire bytes, the
// residual wire stall the owner paid at the close, and the wire time that
// was hidden behind the owner's computation since the deposits were posted.
// Only emitted for epochs that settle, never per Put — the origin side of a
// Put is indistinguishable from a send and is already counted by the
// traffic counters.
type RMARecord struct {
	Base
	// Op is "pscw" for a pairwise post/start/complete/wait epoch, the only
	// kind the runtime opens; "fence" comes only from direct mpi.Fence calls.
	Op       string  `json:"op"`
	Window   int     `json:"window"`   // window id within its group
	Deposits int     `json:"deposits"` // puts settled by this close
	Bytes    int64   `json:"bytes"`    // wire bytes of those deposits
	StallS   float64 `json:"stall_s"`  // residual wire stall paid at the close
	HiddenS  float64 `json:"hidden_s"` // wire time hidden behind computation
}

// Compare orders the common fields of two records by (virtual time, node,
// per-node sequence), the deterministic global order of a simulated run. A
// node's sequence numbers are unique, so no two records of a run tie.
func (b Base) Compare(o Base) int {
	return cmp.Or(cmp.Compare(b.Time, o.Time), cmp.Compare(b.Node, o.Node), cmp.Compare(b.Seq, o.Seq))
}

// Sort orders records by Base.Compare. Each record's Base is extracted
// once; the sort never calls back into Meta.
func Sort(recs []Record) {
	type keyed struct {
		Base
		rec Record
	}
	ks := make([]keyed, len(recs))
	for i, rec := range recs {
		ks[i] = keyed{rec.Meta(), rec}
	}
	slices.SortFunc(ks, func(a, b keyed) int { return a.Compare(b.Base) })
	for i := range ks {
		recs[i] = ks[i].rec
	}
}
