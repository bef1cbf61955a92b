package cluster

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/fault"
	"repro/internal/vclock"
)

func sec(s float64) vclock.Duration { return vclock.FromSeconds(s) }

func TestUnloadedComputeMatchesPower(t *testing.T) {
	spec := Uniform(2)
	spec.Nodes[1].Power = 2.0
	cl := New(spec)
	n0, n1 := cl.Node(0), cl.Node(1)
	w0 := n0.Compute(sec(1))
	w1 := n1.Compute(sec(1))
	if w0 != sec(1) {
		t.Errorf("power-1 node: 1s of work took %v wall", w0)
	}
	if w1 != sec(0.5) {
		t.Errorf("power-2 node: 1s of work took %v wall, want 0.5s", w1)
	}
	if n0.CPUTime() != sec(1) || n1.CPUTime() != sec(0.5) {
		t.Errorf("CPU times %v, %v", n0.CPUTime(), n1.CPUTime())
	}
}

func TestLoadedComputeShare(t *testing.T) {
	// With k competing processes, long computations should take ~(1+k)x.
	for _, k := range []int{1, 2, 3} {
		spec := Uniform(1)
		for i := 0; i < k; i++ {
			spec = spec.With(TimeEvent(0, 0, +1))
		}
		cl := New(spec)
		n := cl.Node(0)
		wall := n.Compute(sec(10))
		want := sec(10 * float64(1+k))
		ratio := float64(wall) / float64(want)
		if ratio < 0.99 || ratio > 1.01 {
			t.Errorf("k=%d: wall %v, want ~%v", k, wall, want)
		}
	}
}

func TestShortIterationsMostlyUnperturbed(t *testing.T) {
	// Iterations of 1ms on a node with one CP: most complete inside the
	// app's 10ms slice, but ~every 10th absorbs a 10ms spike. The *minimum*
	// over a handful of iterations must equal the true unloaded time —
	// the property the paper's grace-period filtering relies on.
	spec := Uniform(1).With(TimeEvent(0, 0, +1))
	cl := New(spec)
	n := cl.Node(0)
	const iters = 100
	minWall := vclock.Duration(math.MaxInt64)
	spikes := 0
	for i := 0; i < iters; i++ {
		w := n.Compute(vclock.Millisecond)
		if w < minWall {
			minWall = w
		}
		if w > 5*vclock.Millisecond {
			spikes++
		}
	}
	if minWall != vclock.Millisecond {
		t.Errorf("min iteration wall = %v, want 1ms", minWall)
	}
	if spikes < 5 || spikes > 20 {
		t.Errorf("spike count = %d, want ~10 for 100 1ms iters with 10ms quantum", spikes)
	}
}

func TestCPStartsAndStops(t *testing.T) {
	// CP active only during [5s, 15s): work before/after runs at full
	// speed, work inside at half.
	spec := Uniform(1).With(TimeEvent(0, vclock.Time(5*vclock.Second), +1),
		TimeEvent(0, vclock.Time(15*vclock.Second), -1))
	cl := New(spec)
	n := cl.Node(0)
	w1 := n.Compute(sec(5)) // [0,5): unloaded
	if w1 != sec(5) {
		t.Errorf("phase 1 wall %v, want 5s", w1)
	}
	w2 := n.Compute(sec(5)) // loaded: ~10s
	if r := w2.Seconds() / 10; r < 0.99 || r > 1.01 {
		t.Errorf("phase 2 wall %v, want ~10s", w2)
	}
	w3 := n.Compute(sec(5)) // unloaded again
	if r := w3.Seconds() / 5; r < 0.99 || r > 1.03 {
		t.Errorf("phase 3 wall %v, want ~5s", w3)
	}
}

func TestCycleTriggeredEvent(t *testing.T) {
	spec := Uniform(1).With(CycleEvent(0, 3, +1))
	cl := New(spec)
	n := cl.Node(0)
	for c := 0; c < 3; c++ {
		n.OnCycle(c)
		if n.CPCount() != 0 {
			t.Fatalf("cycle %d: CP appeared early", c)
		}
		n.Compute(sec(0.1))
	}
	n.OnCycle(3)
	if n.CPCount() != 1 {
		t.Fatal("CP did not appear at cycle 3")
	}
}

func TestCPCountAtIsPure(t *testing.T) {
	spec := Uniform(1).With(TimeEvent(0, vclock.Time(vclock.Second), +1))
	cl := New(spec)
	n := cl.Node(0)
	if n.CPCountAt(0) != 0 || n.CPCountAt(vclock.Time(2*vclock.Second)) != 1 {
		t.Fatal("CPCountAt wrong")
	}
	// Queries at arbitrary times must not corrupt the clock-following cache.
	if n.CPCount() != 0 {
		t.Fatal("CPCount at time 0 should be 0")
	}
}

func TestBurstyComputePaysFairShare(t *testing.T) {
	// The scheduling quota persists across sleeps: an application that
	// computes in short bursts between blocking receives still receives
	// only its ~1/(1+k) CPU share in aggregate — it cannot dodge the
	// competitor by sleeping (the flaw the paper's measured 2x slowdowns
	// on communicating applications rule out).
	spec := Uniform(1).With(TimeEvent(0, 0, +1))
	cl := New(spec)
	n := cl.Node(0)
	var inCompute vclock.Duration
	const bursts = 400
	for i := 0; i < bursts; i++ {
		inCompute += n.Compute(2 * vclock.Millisecond)
		n.WaitUntil(n.Now().Add(vclock.Duration(3 * vclock.Millisecond)))
	}
	ratio := float64(inCompute) / float64(bursts*2*vclock.Millisecond)
	if ratio < 1.5 || ratio > 2.1 {
		t.Errorf("bursty inflation ratio %.2f, want ~2 with one CP", ratio)
	}
}

func TestBlockedTimeServicesDebt(t *testing.T) {
	// Wall time spent blocked services the competitor debt: sleeping
	// longer than the outstanding debt clears it entirely; a shorter sleep
	// reduces it by exactly the waited time.
	spec := Uniform(1).With(TimeEvent(0, 0, +3))
	n := New(spec).Node(0)
	n.debt = 30 * vclock.Millisecond
	n.WaitUntil(n.Now().Add(vclock.Duration(8 * vclock.Millisecond)))
	if n.debt != 22*vclock.Millisecond {
		t.Fatalf("partial sleep left debt %v, want 22ms", n.debt)
	}
	n.WaitUntil(n.Now().Add(vclock.Duration(vclock.Second)))
	if n.debt != 0 {
		t.Fatalf("long sleep left debt %v, want 0", n.debt)
	}
}

func TestWakeupLatencyUnderLoad(t *testing.T) {
	// Waking from a blocked receive on a loaded node costs up to one
	// quantum (a CPU-bound competitor holds the processor); on an unloaded
	// node it is free.
	makeNode := func(loaded bool) *Node {
		spec := Uniform(1)
		if loaded {
			spec = spec.With(TimeEvent(0, 0, +1))
		}
		return New(spec).Node(0)
	}
	free := makeNode(false)
	free.WaitUntil(vclock.Time(vclock.Second))
	if free.Now() != vclock.Time(vclock.Second) {
		t.Fatalf("unloaded wake at %v, want exactly 1s", free.Now())
	}
	busy := makeNode(true)
	var totalExtra vclock.Duration
	delayed := 0
	const wakes = 5000
	for i := 1; i <= wakes; i++ {
		target := vclock.Time(i) * vclock.Time(vclock.Second)
		busy.WaitUntil(target)
		extra := busy.Now().Sub(target)
		if extra < 0 || extra > 10*vclock.Millisecond {
			t.Fatalf("wake %d latency %v outside [0,quantum]", i, extra)
		}
		if extra > 0 {
			delayed++
		}
		totalExtra += extra
	}
	// Most wakeups preempt the competitor immediately; ~wakeDelayProb of
	// them wait out a partial competitor timeslice.
	frac := float64(delayed) / wakes
	if frac < wakeDelayProb/2 || frac > wakeDelayProb*2 {
		t.Fatalf("delayed wake fraction %.4f, want ~%.3f", frac, wakeDelayProb)
	}
	mean := totalExtra / wakes
	want := vclock.Duration(wakeDelayProb * 0.5 * float64(10*vclock.Millisecond))
	if mean < want/2 || mean > want*2 {
		t.Fatalf("mean wake latency %v, want ~%v", mean, want)
	}
}

func TestWaitUntilPastIsNoop(t *testing.T) {
	cl := New(Uniform(1))
	n := cl.Node(0)
	n.Compute(sec(1))
	before := n.Now()
	n.WaitUntil(before.Add(-vclock.Duration(vclock.Second)))
	if n.Now() != before {
		t.Fatal("WaitUntil in the past moved the clock")
	}
}

func TestCPUTimeExcludesLoad(t *testing.T) {
	// The /PROC view must report only the app's own CPU time regardless of
	// competing load — the paper's reason for preferring it (§4.2).
	spec := Uniform(1).With(TimeEvent(0, 0, +2))
	cl := New(spec)
	n := cl.Node(0)
	n.Compute(sec(2))
	if n.CPUTime() != sec(2) {
		t.Errorf("CPUTime = %v, want exactly 2s despite load", n.CPUTime())
	}
}

func TestResidentAccounting(t *testing.T) {
	cl := New(Uniform(1))
	n := cl.Node(0)
	n.AdjustResident(1000)
	n.AdjustResident(-400)
	if n.Resident() != 600 {
		t.Fatalf("Resident = %d", n.Resident())
	}
	n.AdjustResident(-10000)
	if n.Resident() != 0 {
		t.Fatal("Resident went negative")
	}
}

func TestChargeTouchDiskPenalty(t *testing.T) {
	spec := Uniform(2)
	spec.Nodes[0].MemBytes = 1 << 20
	spec.Nodes[1].MemBytes = 1 << 30
	cl := New(spec)
	over, fits := cl.Node(0), cl.Node(1)
	over.AdjustResident(8 << 20) // 8x over physical memory
	fits.AdjustResident(8 << 20)
	t0, t1 := over.Now(), fits.Now()
	over.ChargeTouch(4 << 20)
	fits.ChargeTouch(4 << 20)
	dOver, dFits := over.Now().Sub(t0), fits.Now().Sub(t1)
	if dOver <= dFits*2 {
		t.Errorf("paging node touch cost %v not much larger than in-memory cost %v", dOver, dFits)
	}
}

func TestNegativeComputePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(Uniform(1)).Node(0).Compute(-1)
}

func TestZeroPowerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	s := Uniform(1)
	s.Nodes[0].Power = 0
	New(s)
}

// Every spec Validate rejects makes Build return, and New panic with, the
// same text, and a NaN or infinite power — which `Power <= 0` let through,
// to run every Compute in zero virtual time — is among them, on seed nodes
// and arrivals alike.
func TestNewPanicsWithValidateError(t *testing.T) {
	power := func(p float64) Spec {
		s := Uniform(2)
		s.Nodes[1].Power = p
		return s
	}
	negMem := Uniform(1)
	negMem.Nodes[0].MemBytes = -1
	badFault := Uniform(2)
	badFault.Faults = []fault.Fault{fault.CrashAtCycle(2, 1)}
	for name, spec := range map[string]Spec{
		"no nodes": {}, "NaN": power(math.NaN()), "+Inf": power(math.Inf(1)), "-Inf": power(math.Inf(-1)),
		"zero": power(0), "negative": power(-1), "arrival NaN": Uniform(1).WithArrival(math.NaN(), -1),
		"arrival zero": Uniform(1).WithArrival(0, 3), "negative memory": negMem, "fault": badFault,
	} {
		err := spec.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted the spec", name)
			continue
		}
		if c, berr := Build(spec); c != nil || berr == nil || berr.Error() != err.Error() {
			t.Errorf("%s: Build = %v, %v; want Validate's %q", name, c, berr, err)
		}
		func() {
			defer func() {
				if got := recover(); got != err.Error() {
					t.Errorf("%s: New panicked with %v, Validate says %q", name, got, err)
				}
			}()
			New(spec)
		}()
	}
	if err := Uniform(3).WithArrival(2, -1).Validate(); err != nil {
		t.Errorf("Validate rejected a good spec: %v", err)
	}
}

func TestNegativeCPPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(Uniform(1).With(TimeEvent(0, 0, -1)))
}

// Property: for any load level and work amount, wall time is at least the
// unloaded time and at most (1+k)*unloaded + one spike, and /PROC time is
// exactly work/power.
func TestComputeBoundsProperty(t *testing.T) {
	f := func(workMs uint16, k uint8) bool {
		work := vclock.Duration(workMs%2000+1) * vclock.Millisecond
		load := int(k % 4)
		spec := Uniform(1)
		for i := 0; i < load; i++ {
			spec = spec.With(TimeEvent(0, 0, +1))
		}
		n := New(spec).Node(0)
		wall := n.Compute(work)
		lower := work
		// Slice jitter (0.5q..1.5q) bounds the boundary count by work/(q/2).
		upper := vclock.Duration(float64(work)*float64(1+2*load)*1.05) + vclock.Duration(load+1)*n.cl.quantum
		return wall >= lower && wall <= upper && n.CPUTime() == work
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: long-run share converges to 1/(1+k).
func TestShareConvergenceProperty(t *testing.T) {
	for k := 0; k <= 3; k++ {
		spec := Uniform(1)
		for i := 0; i < k; i++ {
			spec = spec.With(TimeEvent(0, 0, +1))
		}
		n := New(spec).Node(0)
		wall := n.Compute(sec(100))
		share := 100 / wall.Seconds()
		want := 1.0 / float64(1+k)
		if math.Abs(share-want) > 0.01*want {
			t.Errorf("k=%d share %.4f want %.4f", k, share, want)
		}
	}
}

func TestPowersAndAccessors(t *testing.T) {
	spec := Uniform(3)
	spec.Nodes[2].Power = 1.5
	cl := New(spec)
	if cl.N() != 3 {
		t.Fatal("N")
	}
	if p0, p2 := cl.Node(0).Power(), cl.Node(2).Power(); p0 != 1 || p2 != 1.5 {
		t.Fatalf("powers = %v, %v", p0, p2)
	}
	if cl.Node(1).ID() != 1 || cl.Node(2).Power() != 1.5 {
		t.Fatal("node accessors")
	}
	if cl.Quantum() != 10*vclock.Millisecond {
		t.Fatalf("Quantum = %v", cl.Quantum())
	}
	if cl.Net().BytesPerSec != DefaultNet().BytesPerSec {
		t.Fatal("Net")
	}
}

// TestArrivalsDue: the arrivals due by a cycle are every timed arrival at or
// before it, by cycle and then node, whatever order the spec lists them in;
// reserves are never due.
func TestArrivalsDue(t *testing.T) {
	c := New(Uniform(2).WithArrival(1, 5).WithArrival(1, -1).WithArrival(1, 3).WithArrival(1, 3))
	for cycle, want := range map[int][]int{2: {}, 3: {4, 5}, 4: {4, 5}, 5: {4, 5, 2}, 99: {4, 5, 2}} {
		if got := c.ArrivalsDue(cycle); !slices.Equal(got, want) {
			t.Errorf("ArrivalsDue(%d) = %v, want %v", cycle, got, want)
		}
	}
}
