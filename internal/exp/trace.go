package exp

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// TraceOptions parameterises the canonical telemetry trace run: Jacobi on
// four uniform nodes with one competing process arriving on node 1 at cycle
// 10 (DefaultTraceOptions).
type TraceOptions struct {
	Nodes       int
	Rows, Cols  int
	Iters       int
	CostPerElem float64
	CPNode      int // node receiving the competing process
	CPCycle     int // phase cycle at which it arrives
	Drop        core.DropPolicy
	RingCap     int // telemetry ring capacity

	// Faults injects deterministic failures into the run (see
	// internal/fault); empty means a fault-free run with a byte-identical
	// trace to earlier versions.
	Faults []fault.Fault
	// Replicate / ReplicaEvery configure dense-array buddy replication for
	// crash recovery (core.Config fields of the same names).
	Replicate    bool
	ReplicaEvery int
}

// DefaultTraceOptions returns the canonical loaded-4-node scenario with
// unconditional removal, so the trace deterministically contains all four
// record families: iteration, decision, redist and membership.
func DefaultTraceOptions() TraceOptions {
	return TraceOptions{
		Nodes: 4, Rows: 128, Cols: 128, Iters: 40, CostPerElem: 10e3,
		CPNode: 1, CPCycle: 10,
		Drop:    core.DropAlways,
		RingCap: 1 << 16,
	}
}

// TraceResult is the outcome of a trace run: the structured records in
// deterministic (virtual time, node, seq) order plus the application result.
type TraceResult struct {
	Records []telemetry.Record
	Res     apps.Result
}

// RunTrace executes the scenario with a ring sink attached and returns the
// sorted record stream. The run is fully deterministic: repeated calls with
// identical options produce identical records. A ring too small for the run
// is an error: a truncated stream would read as a result.
func RunTrace(o TraceOptions) (*TraceResult, error) {
	if o.RingCap < 1 {
		return nil, fmt.Errorf("trace: RingCap %d < 1", o.RingCap)
	}
	w := sweep.World{App: "jacobi", Rows: o.Rows, Cols: o.Cols, Iters: o.Iters, Cost: o.CostPerElem, RingCap: o.RingCap}
	w.Core = core.DefaultConfig()
	w.Core.Drop = o.Drop
	w.Core.Replicate = o.Replicate
	w.Core.ReplicaEvery = o.ReplicaEvery
	w.Spec = cluster.Uniform(o.Nodes).With(cluster.CycleEvent(o.CPNode, o.CPCycle, +1))
	w.Spec.Faults = append(w.Spec.Faults, o.Faults...)
	out := w.Run()
	if out.Err != nil {
		return nil, out.Err
	}
	recs := out.Ring.Records()
	telemetry.Sort(recs)
	return &TraceResult{Records: recs, Res: out.Res}, nil
}
