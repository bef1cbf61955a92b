// Package loadmon is the simulator's equivalent of the paper's dmpi_ps
// daemon (§4.2): a per-node monitor that reports the number of processes in
// the running or ready state, automatically including the monitored
// application, refreshed once per second.
//
// The paper rejects vmstat because processes that voluntarily relinquished
// the CPU (e.g. blocked in a receive) are invisible to it; dmpi_ps counts
// only running/ready processes and always counts the application itself.
// Both behaviours are reproduced here: Reading always includes the
// application, and a Vmstat-style reading is provided (for the ablation
// tests) that misses the application whenever it happens to be blocked at
// the sample tick.
package loadmon

import (
	"repro/internal/cluster"
	"repro/internal/telemetry"
	"repro/internal/vclock"
)

// DefaultInterval is the daemon's refresh period ("updates every second").
const DefaultInterval = vclock.Duration(vclock.Second)

// lastTick returns the most recent refresh, at or before node's now, of a
// daemon that refreshes every interval.
func lastTick(node *cluster.Node, interval vclock.Duration) vclock.Time {
	if interval <= 0 {
		panic("loadmon: non-positive interval")
	}
	now := node.Now()
	return now - now%vclock.Time(interval)
}

// Reading reports node's dmpi_ps value: running+ready processes at the
// daemon's last refresh, with the monitored application always included.
// With telemetry attached to the node, the reading is recorded as a
// LoadSampleRecord of the application's phase cycle; call it on the
// application's own goroutine.
func Reading(node *cluster.Node, interval vclock.Duration, cycle int) int {
	r := 1 + node.CPCountAt(lastTick(node, interval))
	if sink, st := node.Telemetry(); sink != nil {
		sink.EmitLoadSample(telemetry.LoadSampleRecord{
			Base:    st.Stamp(telemetry.KindLoadSample, cycle, node.Now().Seconds()),
			Reading: r,
		})
	}
	return r
}

// CompetingProcesses reports Reading minus the application itself — the
// quantity the balancer feeds into its load field.
func CompetingProcesses(node *cluster.Node, interval vclock.Duration, cycle int) int {
	return Reading(node, interval, cycle) - 1
}

// VmstatReading models the flawed alternative: if the application was
// blocked (not computing) at the sample tick, it is not counted. appRunning
// is whether the application was on-CPU at the last tick, which the caller
// knows from its own state.
func VmstatReading(node *cluster.Node, interval vclock.Duration, appRunning bool) int {
	n := node.CPCountAt(lastTick(node, interval))
	if appRunning {
		n++
	}
	return n
}

// Changed reports whether two load vectors (one entry per node, from
// CompetingProcesses) differ anywhere — the paper's redistribution trigger:
// "check system load at every phase cycle and redistribute if any change is
// detected".
func Changed(prev, cur []int) bool {
	if len(prev) != len(cur) {
		return true
	}
	for i := range cur {
		if prev[i] != cur[i] {
			return true
		}
	}
	return false
}
