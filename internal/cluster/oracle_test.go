package cluster

import (
	"fmt"
	"testing"

	"repro/internal/vclock"
)

// oracleCompute is Node.Compute as it stood before the in-slice fast path,
// the cost → need memo and ComputeN: one float conversion and one
// slice-walking loop per call. Kept verbatim as the model the charge path is
// tested against; it reads and writes the same Node fields and no memo.
func oracleCompute(n *Node, cost vclock.Duration) vclock.Duration {
	if cost < 0 {
		panic("cluster: negative compute cost")
	}
	start := n.clock.Now()
	need := vclock.Duration(float64(cost) / n.power) // node CPU time required
	q := n.cl.quantum
	for need > 0 {
		if n.debt > 0 {
			d := n.debt
			n.debt = 0
			n.advanceLoaded(d)
		}
		if n.curSlice == 0 {
			n.curSlice = n.nextSliceLen()
		}
		run := n.curSlice - n.sliceUsed
		if need < run {
			run = need
		}
		n.clock.Advance(run)
		n.cpuUsed += run
		n.sliceUsed += run
		need -= run
		if n.sliceUsed >= n.curSlice {
			n.sliceUsed = 0
			n.curSlice = 0
			if k := n.cpAt(n.clock.Now()); k > 0 {
				n.debt += vclock.Duration(k) * q
			}
		}
	}
	return n.clock.Now().Sub(start)
}

// oracleChargeTouch is the pre-memo Node.ChargeTouch, verbatim.
func oracleChargeTouch(n *Node, bytes int64) {
	if bytes <= 0 {
		return
	}
	net := n.cl.spec.Net
	cost := vclock.FromSeconds(float64(bytes) / net.MemBandwidth)
	if n.mem > 0 && n.resident > n.mem {
		over := float64(n.resident-n.mem) / float64(n.resident)
		cost += vclock.FromSeconds(over * float64(bytes) / net.DiskBandwidth)
	}
	oracleCompute(n, vclock.Duration(float64(cost)*n.power))
}

// chargeState is everything the charge path may change on a node, plus the
// value its PRNG would hand out next.
type chargeState struct {
	now                      vclock.Time
	cpu, sliceUsed, curSlice vclock.Duration
	debt                     vclock.Duration
	resident                 int64
	segIdx, segs, pending    int
	nextDraw                 uint64
}

func stateOf(n *Node) chargeState {
	rng := n.rng // a copy: peeking must not consume the draw
	return chargeState{
		now: n.Now(), cpu: n.CPUTime(), sliceUsed: n.sliceUsed, curSlice: n.curSlice,
		debt: n.debt, resident: n.resident,
		segIdx: n.segIdx, segs: len(n.segs), pending: len(n.pendingCycle),
		nextDraw: rng.Uint64(),
	}
}

// Axes of the differential test. Each draws from its own sub-stream of the
// case seed, so adding an axis or a value does not reshuffle the others and
// a failing seed is its own repro.
const (
	axisPower = iota
	axisLoad
	axisMem
	axisOp
	axisCost
	axisK
	axisBytes
	axisWait
)

var oraclePowers = []float64{0.5, 1, 1.7}
var oracleKs = []int{0, 1, 2, 64, 10000}

const oracleMem = 1 << 20

// oracleSpec draws one node's static description and CP timeline: zero to
// two competitors arriving at phase cycles, or arriving and sometimes
// leaving at wall times.
func oracleSpec(seed uint64) Spec {
	root := vclock.NewPRNG(seed)
	power, load, mem := root.Fork(axisPower), root.Fork(axisLoad), root.Fork(axisMem)
	spec := Uniform(1)
	spec.Seed = seed
	spec.Nodes[0].Power = oraclePowers[power.Intn(len(oraclePowers))]
	if mem.Intn(3) > 0 {
		spec.Nodes[0].MemBytes = oracleMem
	}
	// One trigger kind per timeline: a cycle event materialises at the
	// node's clock and may not land before an installed time event.
	byCycle := load.Intn(2) == 0
	for cp, at := load.Intn(3), vclock.Time(0); cp > 0; cp-- {
		if byCycle {
			spec = spec.With(CycleEvent(0, 1+load.Intn(3), +1))
			continue
		}
		at = at.Add(vclock.Duration(load.Intn(400)) * vclock.Millisecond)
		spec = spec.With(TimeEvent(0, at, +1))
		if load.Intn(2) == 0 {
			at = at.Add(vclock.Duration(1+load.Intn(2000)) * vclock.Millisecond)
			spec = spec.With(TimeEvent(0, at, -1))
		}
	}
	return spec
}

// TestChargePathMatchesOracle drives two same-seed nodes through one
// random interleaving of every call that touches the charge path — the
// production Compute/ComputeN/ChargeTouch/ChargeGrowN on one, the pre-PR
// bodies (for ChargeGrowN, the loop it is defined as) on the other — and
// requires clock, /PROC time, slice state, debt, resident bytes, timeline
// cursor and the next PRNG draw to be equal after every step. Two nodes in
// three can page (oracleMem), so the bulk charge runs both of its branches.
func TestChargePathMatchesOracle(t *testing.T) {
	seeds, steps := uint64(300), 250
	if testing.Short() {
		seeds = 60
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		if msg := chargeOracleCase(seed, steps); msg != "" {
			t.Fatalf("seed %d: %s", seed, msg)
		}
	}
}

func chargeOracleCase(seed uint64, steps int) string {
	spec := oracleSpec(seed)
	got, want := New(spec).Node(0), New(spec).Node(0)
	root := vclock.NewPRNG(seed)
	op, costs, ks := root.Fork(axisOp), root.Fork(axisCost), root.Fork(axisK)
	bytes, wait := root.Fork(axisBytes), root.Fork(axisWait)
	cycle := 0
	q := got.cl.quantum

	// cost classes: nothing, one nanosecond, well inside a slice, the rest
	// of the current slice to the nanosecond (and one either side, and an
	// exact k-th of it), several slices.
	drawCost := func(k int) vclock.Duration {
		rest := got.curSlice - got.sliceUsed
		if rest == 0 {
			rest = q
		}
		ref := func(need vclock.Duration) vclock.Duration { return vclock.Duration(float64(need) * got.power) }
		switch costs.Intn(7) {
		case 0:
			return 0
		case 1:
			return 1
		case 2:
			return vclock.Duration(1+costs.Intn(2000)) * vclock.Microsecond
		case 3:
			return ref(rest + vclock.Duration(costs.Intn(3)-1))
		case 4:
			if k > 0 {
				return ref(rest/vclock.Duration(k) + vclock.Duration(costs.Intn(2)))
			}
			return ref(rest)
		case 5:
			return q
		default:
			return vclock.Duration(15+costs.Intn(50)) * vclock.Millisecond
		}
	}

	for step := 0; step < steps; step++ {
		var what string
		switch op.Intn(9) {
		case 8:
			// A run of sparse elements, a run of nothing, a release, and
			// elements large enough to cross the paging threshold mid-run.
			b := []int64{12, 24, 0, -12, 4096}[bytes.Intn(5)]
			k := oracleKs[ks.Intn(len(oracleKs))]
			what = fmt.Sprintf("ChargeGrowN(%d, %d)", b, k)
			got.ChargeGrowN(b, k)
			for i := 0; i < k; i++ {
				want.AdjustResident(b)
				oracleChargeTouch(want, b)
			}
		case 0, 1:
			c := drawCost(1)
			what = fmt.Sprintf("Compute(%d)", c)
			if a, b := got.Compute(c), oracleCompute(want, c); a != b {
				return fmt.Sprintf("step %d %s returned %v, oracle %v", step, what, a, b)
			}
		case 2, 3:
			k := oracleKs[ks.Intn(len(oracleKs))]
			c := drawCost(k)
			what = fmt.Sprintf("ComputeN(%d, %d)", c, k)
			var sum vclock.Duration
			for i := 0; i < k; i++ {
				sum += oracleCompute(want, c)
			}
			if a := got.ComputeN(c, k); a != sum {
				return fmt.Sprintf("step %d %s returned %v, oracle %v", step, what, a, sum)
			}
		case 4:
			b := int64(bytes.Intn(3)) * 24 // 0, one sparse element, two
			if bytes.Intn(4) == 0 {
				b = int64(bytes.Intn(1 << 16))
			}
			what = fmt.Sprintf("ChargeTouch(%d)", b)
			got.ChargeTouch(b)
			oracleChargeTouch(want, b)
		case 5:
			// Swing across the paging threshold in both directions.
			d := int64(bytes.Intn(3*oracleMem)) - oracleMem
			what = fmt.Sprintf("AdjustResident(%d)", d)
			got.AdjustResident(d)
			want.AdjustResident(d)
		case 6:
			d := vclock.Duration(wait.Intn(30000)-1000) * vclock.Microsecond
			what = fmt.Sprintf("WaitUntil(now%+d)", d)
			got.WaitUntil(got.Now().Add(d))
			want.WaitUntil(want.Now().Add(d))
		default:
			cycle++
			what = fmt.Sprintf("OnCycle(%d)", cycle)
			got.OnCycle(cycle)
			want.OnCycle(cycle)
		}
		if a, b := stateOf(got), stateOf(want); a != b {
			return fmt.Sprintf("step %d after %s:\n got  %+v\n want %+v", step, what, a, b)
		}
	}
	return ""
}

// The bulk form is defined by the per-call form: pin the three edges the
// skip arithmetic has (a run ending exactly on the boundary, one nanosecond
// short of it, and k larger than the slice holds) without the generator.
func TestComputeNStopsAtSliceBoundary(t *testing.T) {
	for _, k := range []int{1, 3, 7, 1000} {
		got, want := New(Uniform(1)).Node(0), New(Uniform(1)).Node(0)
		got.Compute(1) // draw the first slice
		oracleCompute(want, 1)
		for _, need := range []vclock.Duration{
			(got.curSlice - got.sliceUsed) / vclock.Duration(k), // k-th call lands on the boundary
			(got.curSlice-got.sliceUsed)/vclock.Duration(k) + 1,
			got.curSlice, // every call crosses
		} {
			got.ComputeN(need, k)
			for i := 0; i < k; i++ {
				oracleCompute(want, need)
			}
			if a, b := stateOf(got), stateOf(want); a != b {
				t.Fatalf("k=%d need=%v:\n got  %+v\n want %+v", k, need, a, b)
			}
		}
	}
}

func TestComputeNNegativeCostPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(Uniform(1)).Node(0).ComputeN(-1, 1)
}
