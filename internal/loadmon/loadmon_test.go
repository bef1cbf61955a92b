package loadmon

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/telemetry"
	"repro/internal/vclock"
)

func TestReadingIncludesApp(t *testing.T) {
	cl := cluster.New(cluster.Uniform(1))
	n := cl.Node(0)
	if r := Reading(n, DefaultInterval, 0); r != 1 {
		t.Fatalf("idle node reading = %d, want 1 (the app itself)", r)
	}
	if CompetingProcesses(n, DefaultInterval, 0) != 0 {
		t.Fatal("CPs on idle node")
	}
}

func TestSamplingDelay(t *testing.T) {
	// CP starts at t=1.5s; the daemon refreshes each second, so it is
	// invisible until the node's clock passes 2s.
	spec := cluster.Uniform(1).With(cluster.TimeEvent(0, vclock.Time(1500*vclock.Millisecond), +1))
	cl := cluster.New(spec)
	n := cl.Node(0)
	n.WaitUntil(vclock.Time(1600 * vclock.Millisecond))
	if CompetingProcesses(n, DefaultInterval, 0) != 0 {
		t.Fatal("CP visible before daemon refresh")
	}
	n.WaitUntil(vclock.Time(2100 * vclock.Millisecond))
	if CompetingProcesses(n, DefaultInterval, 0) != 1 {
		t.Fatal("CP not visible after daemon refresh")
	}
}

func TestCustomInterval(t *testing.T) {
	spec := cluster.Uniform(1).With(cluster.TimeEvent(0, vclock.Time(110*vclock.Millisecond), +1))
	cl := cluster.New(spec)
	n := cl.Node(0)
	const interval = 100 * vclock.Millisecond
	n.WaitUntil(vclock.Time(150 * vclock.Millisecond))
	if CompetingProcesses(n, interval, 0) != 0 {
		t.Fatal("visible too early")
	}
	n.WaitUntil(vclock.Time(250 * vclock.Millisecond))
	if CompetingProcesses(n, interval, 0) != 1 {
		t.Fatal("not visible after tick")
	}
}

func TestBadIntervalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Reading(cluster.New(cluster.Uniform(1)).Node(0), 0, 0)
}

// A reading on a node that carries telemetry is one LoadSampleRecord,
// stamped with the node's stamper and the cycle the caller names; a
// reading on a node without telemetry records nothing.
func TestReadingRecordsThroughTheNode(t *testing.T) {
	spec := cluster.Uniform(2).With(cluster.TimeEvent(1, 0, +1))
	cl := cluster.New(spec)
	ring := telemetry.NewRing(16)
	n := cl.Node(1)
	n.AttachTelemetry(ring, telemetry.NewStamper(1))
	n.WaitUntil(vclock.Time(vclock.Second))
	if r := Reading(n, DefaultInterval, 7); r != 2 {
		t.Fatalf("reading = %d, want 2", r)
	}
	Reading(cl.Node(0), DefaultInterval, 7)
	recs := ring.Records()
	if len(recs) != 1 {
		t.Fatalf("%d records, want 1", len(recs))
	}
	got, ok := recs[0].(telemetry.LoadSampleRecord)
	if !ok || got.Node != 1 || got.Cycle != 7 || got.Reading != 2 || got.Time != 1 {
		t.Fatalf("record %+v, want node 1's reading 2 at cycle 7, t = 1 s", recs[0])
	}
}

func TestVmstatMissesBlockedApp(t *testing.T) {
	spec := cluster.Uniform(1).With(cluster.TimeEvent(0, 0, +1))
	cl := cluster.New(spec)
	n := cl.Node(0)
	n.WaitUntil(vclock.Time(vclock.Second))
	// dmpi_ps always counts the app; vmstat misses it while blocked.
	if r := Reading(n, DefaultInterval, 0); r != 2 {
		t.Fatalf("dmpi_ps reading = %d, want 2", r)
	}
	if r := VmstatReading(n, DefaultInterval, false); r != 1 {
		t.Fatalf("vmstat with blocked app = %d, want 1", r)
	}
	if r := VmstatReading(n, DefaultInterval, true); r != 2 {
		t.Fatalf("vmstat with running app = %d, want 2", r)
	}
}

func TestChanged(t *testing.T) {
	if Changed([]int{0, 1}, []int{0, 1}) {
		t.Fatal("identical vectors reported changed")
	}
	if !Changed([]int{0, 1}, []int{1, 1}) {
		t.Fatal("changed vector not detected")
	}
	if !Changed([]int{0}, []int{0, 0}) {
		t.Fatal("length change not detected")
	}
}
