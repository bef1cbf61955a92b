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

// Monitor samples one node's load.
type Monitor struct {
	node     *cluster.Node
	interval vclock.Duration

	sink    telemetry.Sink // nil: no emission
	stamper *telemetry.Stamper
	cycle   *int // current phase cycle of the monitored application
}

// Attach routes every dmpi_ps reading through sink as a LoadSampleRecord.
// cycle points at the application's current phase cycle (may be nil); the
// monitor reads it on the application's own goroutine.
func (m *Monitor) Attach(sink telemetry.Sink, stamper *telemetry.Stamper, cycle *int) {
	m.sink = sink
	m.stamper = stamper
	m.cycle = cycle
}

// New creates a monitor for node with the default 1 s refresh.
func New(node *cluster.Node) *Monitor {
	return &Monitor{node: node, interval: DefaultInterval}
}

// NewWithInterval creates a monitor with a custom refresh period.
func NewWithInterval(node *cluster.Node, interval vclock.Duration) *Monitor {
	if interval <= 0 {
		panic("loadmon: non-positive interval")
	}
	return &Monitor{node: node, interval: interval}
}

// lastTick returns the most recent daemon refresh at or before now.
func (m *Monitor) lastTick() vclock.Time {
	now := m.node.Now()
	return now - now%vclock.Time(m.interval)
}

// Reading reports the dmpi_ps value: running+ready processes at the last
// daemon refresh, with the monitored application always included.
func (m *Monitor) Reading() int {
	r := 1 + m.node.CPCountAt(m.lastTick())
	if m.sink != nil {
		cycle := -1
		if m.cycle != nil {
			cycle = *m.cycle
		}
		m.sink.EmitLoadSample(telemetry.LoadSampleRecord{
			Base:    m.stamper.Stamp(telemetry.KindLoadSample, cycle, m.node.Now().Seconds()),
			Reading: r,
		})
	}
	return r
}

// CompetingProcesses reports Reading minus the application itself — the
// quantity the balancer feeds into its load field.
func (m *Monitor) CompetingProcesses() int { return m.Reading() - 1 }

// VmstatReading models the flawed alternative: if the application was
// blocked (not computing) at the sample tick, it is not counted. appRunning
// is whether the application was on-CPU at the last tick, which the caller
// knows from its own state.
func (m *Monitor) VmstatReading(appRunning bool) int {
	n := m.node.CPCountAt(m.lastTick())
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
