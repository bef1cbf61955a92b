package telemetry

import (
	"fmt"
	"io"
	"sort"
)

// NodeSummary aggregates one node's iteration records.
type NodeSummary struct {
	Node        int
	Cycles      int
	ComputeS    float64
	CommS       float64
	WaitS       float64
	HiddenWireS float64 // wire time hidden behind computation by overlap
	LastShare   int
}

// Summary is the aggregate view of a trace, the basis of the dynexp
// -summary table.
type Summary struct {
	ByKind    map[string]int
	Nodes     []NodeSummary // sorted by node id
	Decisions int
	// Redists counts redistributions once each: every participant emits one
	// RedistRecord per redistribution, so it is the largest per-node count.
	// RedistRecords counts the records themselves.
	Redists       int
	RedistRecords int
	RowsSent      int
	BytesSent     int64
	BytesRecv     int64              // Σ BytesSent == Σ BytesRecv cluster-wide on fault-free runs
	Memberships   []MembershipRecord // in trace order
	LoadEvents    []LoadEventRecord  // in trace order
	Failures      []FailureRecord    // in trace order

	// One-sided (RMA) aggregates, zero when the run used no windows.
	// RMAEpochs counts closed epochs of either kind, PSCW or fence.
	RMAEpochs   int
	RMADeposits int
	RMABytes    int64
	RMAStallS   float64
	RMAHiddenS  float64
}

// Summarize aggregates a record stream.
func Summarize(recs []Record) *Summary {
	s := &Summary{ByKind: map[string]int{}}
	byNode := map[int]*NodeSummary{}
	redists := map[int]int{} // RedistRecords per node
	for _, rec := range recs {
		s.ByKind[rec.Kind()]++
		switch v := rec.(type) {
		case IterationRecord:
			ns := byNode[v.Node]
			if ns == nil {
				ns = &NodeSummary{Node: v.Node}
				byNode[v.Node] = ns
			}
			ns.Cycles++
			ns.ComputeS += v.ComputeS
			ns.CommS += v.CommS
			ns.WaitS += v.WaitS
			ns.HiddenWireS += float64(v.HiddenWireNs) / 1e9
			ns.LastShare = v.Share
		case DecisionRecord:
			s.Decisions++
		case RedistRecord:
			s.RedistRecords++
			redists[v.Node]++
			s.Redists = max(s.Redists, redists[v.Node])
			s.RowsSent += v.RowsSent
			s.BytesSent += v.BytesSent
			s.BytesRecv += v.BytesRecv
		case MembershipRecord:
			s.Memberships = append(s.Memberships, v)
		case LoadEventRecord:
			s.LoadEvents = append(s.LoadEvents, v)
		case FailureRecord:
			s.Failures = append(s.Failures, v)
		case RMARecord:
			s.RMAEpochs++
			s.RMADeposits += v.Deposits
			s.RMABytes += v.Bytes
			s.RMAStallS += v.StallS
			s.RMAHiddenS += v.HiddenS
		}
	}
	for _, ns := range byNode {
		s.Nodes = append(s.Nodes, *ns)
	}
	sort.Slice(s.Nodes, func(i, j int) bool { return s.Nodes[i].Node < s.Nodes[j].Node })
	return s
}

// WriteTable renders the summary as aligned text.
func (s *Summary) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "telemetry summary\n")
	kinds := make([]string, 0, len(s.ByKind))
	for k := range s.ByKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(w, "  %-12s %6d records\n", k, s.ByKind[k])
	}
	if s.Redists > 0 {
		fmt.Fprintf(w, "  redistributions: %d (%d rank records, rows sent %d, bytes sent %d, bytes recv %d)\n",
			s.Redists, s.RedistRecords, s.RowsSent, s.BytesSent, s.BytesRecv)
	}
	if len(s.Nodes) > 0 {
		fmt.Fprintf(w, "  %-5s %7s %11s %11s %11s %7s\n",
			"node", "cycles", "compute(s)", "comm(s)", "wait(s)", "share")
		hidden := 0.0
		for _, ns := range s.Nodes {
			fmt.Fprintf(w, "  %-5d %7d %11.4f %11.4f %11.4f %7d\n",
				ns.Node, ns.Cycles, ns.ComputeS, ns.CommS, ns.WaitS, ns.LastShare)
			hidden += ns.HiddenWireS
		}
		if hidden > 0 {
			fmt.Fprintf(w, "  hidden wire: %.4fs overlapped behind computation across all nodes\n", hidden)
		}
	}
	if s.RMAEpochs > 0 {
		fmt.Fprintf(w, "  rma: %d epochs settled %d deposits (%d bytes); stall %.4fs, hidden %.4fs\n",
			s.RMAEpochs, s.RMADeposits, s.RMABytes, s.RMAStallS, s.RMAHiddenS)
	}
	for _, m := range s.Memberships {
		fmt.Fprintf(w, "  membership: cycle %d node %d %s active=%v removed=%v\n",
			m.Cycle, m.Node, m.Change, m.Active, m.Removed)
	}
	for _, e := range s.LoadEvents {
		fmt.Fprintf(w, "  load event: cycle %d node %d delta %+d -> %d CPs\n",
			e.Cycle, e.Node, e.Delta, e.Count)
	}
	for _, f := range s.Failures {
		fmt.Fprintf(w, "  failure: cycle %d node %d %s target=%d delay=%.3fs\n",
			f.Cycle, f.Node, f.Fault, f.Target, f.DelayS)
	}
}
