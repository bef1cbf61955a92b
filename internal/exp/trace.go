package exp

import (
	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// TraceOptions parameterises the canonical telemetry trace run: Jacobi on
// four uniform nodes with one competing process arriving on node 1 at cycle
// 10 and unconditional removal, so the trace deterministically contains all
// four record families: iteration, decision, redist and membership. The
// zero value is that run.
type TraceOptions struct {
	// Faults injects deterministic failures into the run (see
	// internal/fault); empty means a fault-free run with a byte-identical
	// trace to earlier versions.
	Faults []fault.Fault
	// Replicate / ReplicaEvery configure dense-array buddy replication for
	// crash recovery (core.Config fields of the same names).
	Replicate    bool
	ReplicaEvery int
}

// traceNodes is the canonical trace's world size.
const traceNodes = 4

// traceWorld is the canonical trace's world under o, traced.
func traceWorld(o TraceOptions) sweep.World {
	w := sweep.World{App: "jacobi", Rows: 128, Cols: 128, Iters: 40, Cost: 10e3, Trace: true}
	w.Core = core.DefaultConfig()
	w.Core.Drop = core.DropAlways
	w.Core.Replicate = o.Replicate
	w.Core.ReplicaEvery = o.ReplicaEvery
	w.Spec = cluster.Uniform(traceNodes).With(cluster.CycleEvent(1, 10, +1))
	w.Spec.Faults = append(w.Spec.Faults, o.Faults...)
	return w
}

// TraceResult is the outcome of a trace run: the structured records in
// deterministic (virtual time, node, seq) order plus the application result.
type TraceResult struct {
	Records []telemetry.Record
	Res     apps.Result
}

// RunTrace executes the scenario with a ring sink attached and returns the
// sorted record stream. The run is fully deterministic: repeated calls with
// identical options produce identical records.
func RunTrace(o TraceOptions) (*TraceResult, error) { return runTrace(traceWorld(o)) }

// runTrace runs w and returns its sorted record stream.
func runTrace(w sweep.World) (*TraceResult, error) {
	out := w.Run()
	if out.Err != nil {
		return nil, out.Err
	}
	recs := out.Ring.Records()
	telemetry.Sort(recs)
	return &TraceResult{Records: recs, Res: out.Res}, nil
}
