package cg

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/core"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.N, cfg.Iters = 400, 50
	cfg.CostPerNnz = 25e3 // keep cycles long enough for the 1s load monitor
	cfg.CostPerVecElem = 2e3
	return cfg
}

func loadedSpec(n, node, cycle int) cluster.Spec {
	return cluster.Uniform(n).With(cluster.CycleEvent(node, cycle, +1))
}

func TestRowPatternDeterministicAndValid(t *testing.T) {
	c1, v1 := rowPattern(7, 5, 100, 8, nil, nil)
	c2, v2 := rowPattern(7, 5, 100, 8, nil, nil)
	if len(c1) != 8 || len(v1) != 8 {
		t.Fatalf("pattern size %d", len(c1))
	}
	for i := range c1 {
		if c1[i] != c2[i] || v1[i] != v2[i] {
			t.Fatal("pattern not deterministic")
		}
		if c1[i] == 5 {
			t.Fatal("diagonal duplicated in off-diagonal pattern")
		}
		if c1[i] < 0 || int(c1[i]) >= 100 {
			t.Fatal("column out of range")
		}
	}
	seen := map[int32]bool{}
	for _, c := range c1 {
		if seen[c] {
			t.Fatal("duplicate column")
		}
		seen[c] = true
	}
	// The draw sequence is part of the model: 8 of row 3's 9 possible
	// columns forces rejected draws, and a rejected draw must consume no
	// value draw.
	c3, v3 := rowPattern(7, 3, 10, 8, nil, nil)
	want := []int32{1, 4, 8, 7, 0, 9, 5, 6}
	if !slices.Equal(c3, want) {
		t.Fatalf("draw sequence changed: cols %v, want %v", c3, want)
	}
	if v3[0] != 0.039137340169810325 || v3[7] != 0.011427485471610056 {
		t.Fatalf("draw sequence changed: vals %v", v3)
	}
	// Buffers reused from a neighbouring row, holding its pattern, give the
	// same draws: nothing left in them takes part (a stale column would
	// reject a draw that must be accepted).
	cb, vb := rowPattern(7, 4, 10, 8, nil, nil)
	cb, vb = rowPattern(7, 3, 10, 8, cb, vb)
	if !slices.Equal(cb, c3) || !slices.Equal(vb, v3) {
		t.Fatalf("reused buffers changed the draws: %v %v, want %v %v", cb, vb, c3, v3)
	}
	// Short buffers grow to the pattern.
	cs, vs := rowPattern(7, 5, 100, 8, make([]int32, 1, 2), make([]float64, 3))
	if !slices.Equal(cs, c1) || !slices.Equal(vs, v1) {
		t.Fatalf("short buffers changed the draws: %v %v, want %v %v", cs, vs, c1, v1)
	}
}

// Every row after the first is built in the buffers of the one before.
func TestRowPatternReuseAllocFree(t *testing.T) {
	cols, vals := make([]int32, 0, 12), make([]float64, 0, 12)
	g := 0
	if n := testing.AllocsPerRun(100, func() {
		cols, vals = rowPattern(7, g, 2000, 12, cols, vals)
		g++
	}); n != 0 {
		t.Errorf("rowPattern into reused buffers: %v allocs, want 0", n)
	}
}

func TestResidualDecreases(t *testing.T) {
	cfg := testConfig()
	cfg.Core.Adapt = false
	res, err := Run(cluster.New(cluster.Uniform(2)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Initial rho = n; a diagonally dominant system must converge fast.
	if res.Checksum >= float64(cfg.N)*1e-6 {
		t.Fatalf("residual %v did not decrease from %v", res.Checksum, float64(cfg.N))
	}
}

func TestDeterministicDedicated(t *testing.T) {
	cfg := testConfig()
	cfg.Core.Adapt = false
	a, err := Run(cluster.New(cluster.Uniform(4)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cluster.New(cluster.Uniform(4)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Checksum != b.Checksum {
		t.Fatalf("non-deterministic: %v vs %v", a.Checksum, b.Checksum)
	}
}

func TestAdaptationPreservesResidualBitExactly(t *testing.T) {
	cfg := testConfig()
	cfg.Core.Drop = core.DropNever
	dedCfg := cfg
	dedCfg.Core.Adapt = false
	ded, err := Run(cluster.New(cluster.Uniform(4)), dedCfg)
	if err != nil {
		t.Fatal(err)
	}
	adp, err := Run(cluster.New(loadedSpec(4, 1, 5)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if adp.Redists == 0 {
		t.Fatal("no redistribution; scenario broken")
	}
	if adp.Checksum != ded.Checksum {
		t.Fatalf("sparse redistribution changed CG residual: %v vs %v", adp.Checksum, ded.Checksum)
	}
}

func TestAdaptationBeatsNoAdaptation(t *testing.T) {
	cfg := testConfig()
	cfg.Core.Drop = core.DropNever
	spec := loadedSpec(4, 1, 5)
	adp, err := Run(cluster.New(spec), cfg)
	if err != nil {
		t.Fatal(err)
	}
	noCfg := cfg
	noCfg.Core.Adapt = false
	non, err := Run(cluster.New(spec), noCfg)
	if err != nil {
		t.Fatal(err)
	}
	if adp.Elapsed >= non.Elapsed {
		t.Fatalf("Dyn-MPI (%.3fs) not faster than no adaptation (%.3fs)", adp.Elapsed, non.Elapsed)
	}
}

func TestDropPreservesResidual(t *testing.T) {
	cfg := testConfig()
	cfg.Core.Drop = core.DropAlways
	dedCfg := cfg
	dedCfg.Core.Adapt = false
	ded, err := Run(cluster.New(cluster.Uniform(3)), dedCfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cluster.New(loadedSpec(3, 0, 5)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats[0].Removed {
		t.Fatal("loaded node 0 not removed")
	}
	if res.Checksum != ded.Checksum {
		t.Fatalf("removal changed CG residual: %v vs %v", res.Checksum, ded.Checksum)
	}
}

// TestJoinerFailsTheRun: cg has no mid-run joiner path, so a world that
// grows into an arrival fails with ErrNoJoiner instead of hanging on a
// joiner that re-runs the solve from cycle 0.
func TestJoinerFailsTheRun(t *testing.T) {
	cfg := testConfig()
	cfg.Iters = 20
	cfg.Core.Drop = core.DropNever
	_, err := Run(cluster.New(cluster.Uniform(4).WithArrival(1.0, 5)), cfg)
	if !errors.Is(err, apps.ErrNoJoiner) {
		t.Fatalf("Run = %v, want ErrNoJoiner", err)
	}
}
