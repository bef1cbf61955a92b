package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"

	"repro/internal/apps"
	"repro/internal/telemetry"
)

// CellStats aggregates one world's telemetry into the sweep report row:
// iteration-time percentiles across every (node, cycle) sample, the
// overlap and failure-loss totals, and the application-level outcome.
type CellStats struct {
	Cycles  int `json:"cycles"`  // iteration records aggregated
	Crashed int `json:"crashed"` // ranks that died to an injected fault

	// Per-cycle wall time (compute + comm + wait) percentiles, seconds.
	IterP50 float64 `json:"iter_p50_s"`
	IterP90 float64 `json:"iter_p90_s"`
	IterP99 float64 `json:"iter_p99_s"`

	// HiddenWireS is the total wire time the overlap machinery hid behind
	// computation, across all nodes, seconds.
	HiddenWireS float64 `json:"hidden_wire_s"`
	// LostRows is the total rows declared lost by failure recoveries (zero
	// when replication or a fault-free run preserved everything).
	LostRows int `json:"lost_rows"`

	Redists  int     `json:"redists"`
	Elapsed  float64 `json:"elapsed_s"` // virtual-time makespan
	Checksum float64 `json:"checksum"`
	CheckInt int64   `json:"check_int,omitempty"`
}

// statsScratch is the two lists buildStats fills per cell; Run owns one and
// every cell of the sweep reuses it.
type statsScratch struct {
	samples []float64
	hidden  []*telemetry.IterationRecord
}

// buildStats folds a world's telemetry ring and application result into
// CellStats, straight from the ring's storage (the world is over, so the
// record pointers stay valid). The hidden-wire float sum runs in
// telemetry.Sort's order, not the order the rank goroutines emitted in; a
// record that hid nothing would add an exact zero and is left out.
func (sc *statsScratch) buildStats(ring *telemetry.Ring, res apps.Result) CellStats {
	var st CellStats
	samples, hidden := sc.samples[:0], sc.hidden[:0]
	ring.Walk(telemetry.Visitor{
		Iteration: func(v *telemetry.IterationRecord) {
			samples = append(samples, v.ComputeS+v.CommS+v.WaitS)
			if v.HiddenWireNs != 0 {
				hidden = append(hidden, v)
			}
		},
		Other: func(rec telemetry.Record) {
			if v, ok := rec.(telemetry.RedistRecord); ok {
				st.LostRows += v.LostRows
			}
		},
	})
	slices.SortFunc(hidden, func(a, b *telemetry.IterationRecord) int { return a.Compare(b.Base) })
	for _, v := range hidden {
		st.HiddenWireS += float64(v.HiddenWireNs) / 1e9
	}
	sc.samples, sc.hidden = samples, hidden
	clear(hidden) // the ring they point into is the finished cell's
	st.Cycles = len(samples)
	sort.Float64s(samples)
	st.IterP50 = percentile(samples, 50)
	st.IterP90 = percentile(samples, 90)
	st.IterP99 = percentile(samples, 99)
	st.Redists = res.Redists
	st.Elapsed = res.Elapsed
	st.Checksum = res.Checksum
	st.CheckInt = res.CheckInt
	for _, rs := range res.Stats {
		if rs.Crashed {
			st.Crashed++
		}
	}
	return st
}

// percentile returns the nearest-rank p-th percentile of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// WriteText renders the deterministic report: a header, one "cell" line
// per grid point in enumeration order, and a trailing summary count. All
// wall-clock facts go on lines prefixed "# wall-time:" so a consumer can
// strip exactly those (grep -v '^# wall-time:') and byte-compare the rest
// across runs, pool widths and machines.
func (r *Result) WriteText(w io.Writer) {
	fmt.Fprintf(w, "# sweep report: cells=%d\n", len(r.Cells))
	fmt.Fprintf(w, "# columns: cell | cycles crashed | iter p50/p90/p99 (s) | hidden-wire (s) | lost-rows | redists | elapsed (s) | checksum\n")
	failed := 0
	for _, c := range r.Cells {
		if c.Err != "" {
			failed++
			fmt.Fprintf(w, "cell %-28s | error: %s\n", c.Key, c.Err)
			continue
		}
		s := c.Stats
		check := fmtF(s.Checksum)
		if s.CheckInt != 0 {
			check = fmt.Sprintf("int:%d", s.CheckInt)
		}
		fmt.Fprintf(w, "cell %-28s | %4d %d | %s %s %s | %s | %4d | %2d | %s | %s\n",
			c.Key, s.Cycles, s.Crashed,
			fmtF(s.IterP50), fmtF(s.IterP90), fmtF(s.IterP99),
			fmtF(s.HiddenWireS), s.LostRows, s.Redists, fmtF(s.Elapsed), check)
	}
	fmt.Fprintf(w, "# sweep done: cells=%d failed=%d\n", len(r.Cells), failed)
	fmt.Fprintf(w, "# wall-time: %.3fs jobs=%d gomaxprocs=%d worlds=%d\n",
		r.WallSeconds, r.Jobs, r.GoMaxProcs, r.Steps)
}

// fmtF formats a float deterministically with full round-trip precision:
// identical bits always render identically.
func fmtF(v float64) string {
	return fmt.Sprintf("%.6g", v)
}

// WriteJSONL writes one JSON object per cell, in enumeration order. The
// stream carries no wall-clock fields, so it is byte-comparable across
// runs the same way the text report's non-wall lines are.
func (r *Result) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for i := range r.Cells {
		if err := enc.Encode(&r.Cells[i]); err != nil {
			return err
		}
	}
	return nil
}
