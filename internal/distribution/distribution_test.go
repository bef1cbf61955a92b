package distribution

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func uniform(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

func TestRelativePowerEqualNodes(t *testing.T) {
	nodes := []Node{{0, 1, 0}, {1, 1, 0}, {2, 1, 0}, {3, 1, 0}}
	fr := RelativePowerFractions(nodes)
	for _, f := range fr {
		if !almost(f, 0.25, 1e-12) {
			t.Fatalf("fractions %v", fr)
		}
	}
}

func TestRelativePowerLoadedNode(t *testing.T) {
	// One CP on node 0: its capacity halves -> 1/7 of the work on 4 nodes
	// (the paper's CG example gives 1/7 vs 2/7).
	nodes := []Node{{0, 1, 1}, {1, 1, 0}, {2, 1, 0}, {3, 1, 0}}
	fr := RelativePowerFractions(nodes)
	if !almost(fr[0], 1.0/7, 1e-12) || !almost(fr[1], 2.0/7, 1e-12) {
		t.Fatalf("fractions %v, want [1/7 2/7 2/7 2/7]", fr)
	}
}

func TestRelativePowerHeterogeneous(t *testing.T) {
	nodes := []Node{{0, 2, 0}, {1, 1, 0}}
	fr := RelativePowerFractions(nodes)
	if !almost(fr[0], 2.0/3, 1e-12) {
		t.Fatalf("fractions %v", fr)
	}
}

func TestAnalyticModelLimits(t *testing.T) {
	m := AnalyticModel{}
	// Compute-bound: converges to naive 1/(2+k).
	if f := m.Fraction(1, 1e9); !almost(f, 1.0/3, 1e-6) {
		t.Fatalf("k=1 R=inf: %v", f)
	}
	if f := m.Fraction(2, math.Inf(1)); !almost(f, 0.25, 1e-12) {
		t.Fatalf("k=2 R=inf: %v", f)
	}
	// Communication-bound: loaded node gets nothing at R <= k.
	if f := m.Fraction(1, 1.0); f != 0 {
		t.Fatalf("k=1 R=1: %v", f)
	}
	// Monotone in R.
	prev := -1.0
	for _, r := range []float64{1, 2, 4, 8, 32, 128} {
		f := m.Fraction(1, r)
		if f < prev {
			t.Fatalf("not monotone at R=%v", r)
		}
		prev = f
	}
	// Unloaded node: even split.
	if m.Fraction(0, 10) != 0.5 {
		t.Fatal("k=0 should be 0.5")
	}
}

func TestSuccessiveBalancingCompuBoundMatchesNaive(t *testing.T) {
	nodes := []Node{{0, 1, 1}, {1, 1, 0}, {2, 1, 0}, {3, 1, 0}}
	fr := SuccessiveBalancingFractions(nodes, 1000, 0.0001, AnalyticModel{})
	naive := RelativePowerFractions(nodes)
	for i := range fr {
		if !almost(fr[i], naive[i], 0.01) {
			t.Fatalf("compute-bound SB %v != naive %v", fr, naive)
		}
	}
}

func TestSuccessiveBalancingPenalisesLoadedWhenCommBound(t *testing.T) {
	nodes := []Node{{0, 1, 1}, {1, 1, 0}, {2, 1, 0}, {3, 1, 0}}
	// Comm-heavy: pair ratio = totalComp*2/p / commCPU = 1*0.5/0.2 = 2.5.
	fr := SuccessiveBalancingFractions(nodes, 1, 0.2, AnalyticModel{})
	naive := RelativePowerFractions(nodes)
	if fr[0] >= naive[0] {
		t.Fatalf("comm-bound SB should give loaded node less than naive: %v vs %v", fr[0], naive[0])
	}
	sum := 0.0
	for _, f := range fr {
		sum += f
	}
	if !almost(sum, 1, 1e-9) {
		t.Fatalf("fractions sum %v", sum)
	}
}

func TestSuccessiveBalancingAllLoaded(t *testing.T) {
	nodes := []Node{{0, 1, 1}, {1, 1, 1}}
	fr := SuccessiveBalancingFractions(nodes, 1, 0.1, nil)
	if !almost(fr[0], 0.5, 1e-9) {
		t.Fatalf("all-loaded symmetric case: %v", fr)
	}
}

func TestSuccessiveBalancingNoLoad(t *testing.T) {
	nodes := []Node{{0, 1, 0}, {1, 3, 0}}
	fr := SuccessiveBalancingFractions(nodes, 1, 0.1, nil)
	if !almost(fr[1], 0.75, 1e-9) {
		t.Fatalf("unloaded heterogeneous: %v", fr)
	}
}

// Property: successive balancing always produces a valid fraction vector
// (non-negative, sums to 1) and never gives a loaded node more than the
// naive relative-power method would.
func TestSuccessiveBalancingProperty(t *testing.T) {
	f := func(loads [5]uint8, powTenths [5]uint8, ratioSel uint8) bool {
		nodes := make([]Node, 5)
		for i := range nodes {
			nodes[i] = Node{
				Rank:  i,
				Power: 0.5 + float64(powTenths[i]%20)/10,
				Load:  int(loads[i] % 4),
			}
		}
		commCPU := []float64{0.001, 0.01, 0.1, 0.5}[ratioSel%4]
		fr := SuccessiveBalancingFractions(nodes, 1.0, commCPU, nil)
		naive := RelativePowerFractions(nodes)
		loaded := 0
		for _, n := range nodes {
			if n.Load > 0 {
				loaded++
			}
		}
		sum := 0.0
		for i, v := range fr {
			if v < 0 || math.IsNaN(v) {
				return false
			}
			sum += v
			// With a single loaded node the SB share is bounded by naive;
			// with several, redistributing away from one loaded node can
			// legitimately raise another's *fraction*.
			if loaded == 1 && nodes[i].Load > 0 && v > naive[i]+1e-9 {
				return false
			}
		}
		return almost(sum, 1, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the analytic pair model is monotone in the ratio and bounded
// by the naive fraction for every load level.
func TestAnalyticModelProperty(t *testing.T) {
	m := AnalyticModel{}
	f := func(k8 uint8, r1, r2 float64) bool {
		k := int(k8%5) + 1
		a, b := math.Abs(r1), math.Abs(r2)
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		fa, fb := m.Fraction(k, a), m.Fraction(k, b)
		naive := 1.0 / float64(2+k)
		return fa <= fb+1e-12 && fb <= naive+1e-12 && fa >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionWeightedUniform(t *testing.T) {
	counts := PartitionWeighted(uniform(10), []float64{0.5, 0.5})
	if counts[0]+counts[1] != 10 || counts[0] < 4 || counts[0] > 6 {
		t.Fatalf("counts %v", counts)
	}
}

func TestPartitionWeightedSkewedCosts(t *testing.T) {
	// First two iterations carry almost all cost; equal fractions should
	// give node 0 very few iterations.
	costs := []float64{100, 100, 1, 1, 1, 1, 1, 1, 1, 1}
	counts := PartitionWeighted(costs, []float64{0.5, 0.5})
	if counts[0] != 1 && counts[0] != 2 {
		t.Fatalf("counts %v: node 0 should take ~1 heavy iteration", counts)
	}
	if counts[0]+counts[1] != 10 {
		t.Fatalf("counts %v don't cover", counts)
	}
}

func TestPartitionWeightedZeroFraction(t *testing.T) {
	counts := PartitionWeighted(uniform(8), []float64{0, 1})
	if counts[0] != 0 || counts[1] != 8 {
		t.Fatalf("counts %v", counts)
	}
}

func TestPartitionWeightedZeroTotalCost(t *testing.T) {
	counts := PartitionWeighted(make([]float64, 9), []float64{1.0 / 3, 1.0 / 3, 1.0 / 3})
	if counts[0]+counts[1]+counts[2] != 9 {
		t.Fatalf("counts %v", counts)
	}
}

func TestPartitionWeightedNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	PartitionWeighted([]float64{-1}, []float64{1})
}

// Property: PartitionWeighted always covers the iteration space exactly and
// never produces negative counts.
func TestPartitionCoversProperty(t *testing.T) {
	f := func(nIters uint8, weights [4]uint8) bool {
		n := int(nIters)%200 + 1
		costs := make([]float64, n)
		for g := range costs {
			costs[g] = float64(g%7 + 1)
		}
		var fr [4]float64
		var sum float64
		for i := range fr {
			fr[i] = float64(weights[i]) + 0.01
			sum += fr[i]
		}
		for i := range fr {
			fr[i] /= sum
		}
		counts := PartitionWeighted(costs, fr[:])
		tot := 0
		for _, c := range counts {
			if c < 0 {
				return false
			}
			tot += c
		}
		return tot == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the weighted partition approximately honours the fractions for
// fine-grained iteration costs.
func TestPartitionBalanceProperty(t *testing.T) {
	costs := uniform(1000)
	fr := []float64{0.1, 0.2, 0.3, 0.4}
	counts := PartitionWeighted(costs, fr)
	for i, c := range counts {
		if !almost(float64(c)/1000, fr[i], 0.01) {
			t.Fatalf("counts %v do not match fractions %v", counts, fr)
		}
	}
}

func TestPredictCycleTime(t *testing.T) {
	nodes := []Node{{0, 1, 0}, {1, 1, 1}}
	costs := uniform(100) // 1s per iteration
	// Equal split: loaded node dominates at 2x compute inflation.
	tEq := PredictCycleTime(nodes, []int{50, 50}, costs, 0.1, 0.05)
	want := 50*2.0 + 0.1*2 + 0.05
	if !almost(tEq, want, 1e-9) {
		t.Fatalf("predict = %v, want %v", tEq, want)
	}
	// A 2:1 split should be faster.
	tBal := PredictCycleTime(nodes, []int{67, 33}, costs, 0.1, 0.05)
	if tBal >= tEq {
		t.Fatalf("balanced %v not faster than equal %v", tBal, tEq)
	}
}

// dropCheck asks Decide for drop-auto's verdict on nodes after a measured
// worst cycle time.
func dropCheck(nodes []Node, costs []float64, measured, commCPU, commWire float64) Verdict {
	return Decide(Input{Nodes: nodes, IterCosts: costs, CommCPU: commCPU, CommWire: commWire,
		Drop: DropAuto, DropCheck: true, MeasuredS: measured})
}

func TestDropDecision(t *testing.T) {
	nodes := []Node{{0, 1, 3}, {1, 1, 0}, {2, 1, 0}, {3, 1, 0}}
	costs := uniform(90)
	// Measured cycle time is awful (loaded node hurts): predict unloaded-only
	// config of 3 nodes: 30 iters each + comm.
	v := dropCheck(nodes, costs, 100.0, 0.5, 0.5)
	if !v.Drop || v.Chosen != "drop" {
		t.Fatalf("should drop: predicted %v < measured 100", v.PredictedS)
	}
	if !almost(v.PredictedS, 30+0.5+0.5, 1e-9) || len(v.Candidates) != 1 || v.Candidates[0].PredictedS != v.PredictedS {
		t.Fatalf("predicted %v, candidates %v", v.PredictedS, v.Candidates)
	}
	// Measured better than prediction: keep the loaded node.
	if v := dropCheck(nodes, costs, 20.0, 0.5, 0.5); v.Drop || v.Chosen != "keep" {
		t.Fatal("should not drop when measured beats prediction")
	}
}

// TestDropDecisionDegenerateCases: with no loaded node, or no unloaded one,
// there is nothing to drop or nothing to predict — the verdict is keep, with
// no candidate and a finite prediction a trace can encode.
func TestDropDecisionDegenerateCases(t *testing.T) {
	costs := uniform(10)
	for _, nodes := range [][]Node{{{0, 1, 1}, {1, 1, 2}}, {{0, 1, 0}, {1, 1, 0}}} {
		v := dropCheck(nodes, costs, 100, 0, 0)
		if v.Drop || v.Chosen != "keep" || v.Candidates != nil || v.PredictedS != 0 {
			t.Fatalf("loads %v: verdict %+v, want a bare keep", nodes, v)
		}
	}
}

func TestMeasurePairFractionShape(t *testing.T) {
	// Compute-bound micro-benchmark: measured fraction near naive 1/3.
	fHigh := MeasurePairFraction(1, 512)
	if fHigh < 0.25 || fHigh > 0.42 {
		t.Fatalf("compute-bound measured fraction %v, want ~1/3", fHigh)
	}
	// Comm-bound: loaded node should receive clearly less.
	fLow := MeasurePairFraction(1, 2)
	if fLow >= fHigh {
		t.Fatalf("comm-bound fraction %v not below compute-bound %v", fLow, fHigh)
	}
}
