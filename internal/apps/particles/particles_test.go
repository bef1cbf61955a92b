package particles

import (
	"errors"
	"math"
	"math/bits"
	"testing"

	"repro/internal/alloctest"
	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/drsd"
	"repro/internal/matrix"
	"repro/internal/mpi"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Rows, cfg.Cols, cfg.Steps = 48, 48, 60
	cfg.CostPerParticle = 30e3 // cycles long enough for the 1s load monitor
	return cfg
}

func loadedSpec(n, node, cycle int) cluster.Spec {
	return cluster.Uniform(n).With(cluster.CycleEvent(node, cycle, +1))
}

func TestIntegrateBounces(t *testing.T) {
	step := func(pt particle) particle {
		pt.x, pt.y, pt.vx, pt.vy = integrate(pt.x, pt.y, pt.vx, pt.vy, 1, 10, 10)
		return pt
	}
	pt := step(particle{x: 0.5, y: 0.5, vx: -1, vy: -1})
	if pt.x != 0.5 || pt.y != 0.5 || pt.vx != 1 || pt.vy != 1 {
		t.Fatalf("bounce at origin wrong: %+v", pt)
	}
	pt = step(particle{x: 9.5, y: 9.5, vx: 1, vy: 1})
	if pt.x != 9.5 || pt.y != 9.5 || pt.vx != -1 || pt.vy != -1 {
		t.Fatalf("bounce at far corner wrong: %+v", pt)
	}
	pt = step(particle{x: 5, y: 5, vx: 0.25, vy: -0.25})
	if pt.x != 5.25 || pt.y != 4.75 {
		t.Fatalf("free flight wrong: %+v", pt)
	}
	// Landing exactly on a far wall stays strictly inside the domain.
	pt = step(particle{x: 9, y: 9.5, vx: 1, vy: 0.5})
	if !(pt.x < 10 && pt.y < 10) || pt.vx != -1 || pt.vy != -0.5 {
		t.Fatalf("landing on the far walls wrong: %+v", pt)
	}
}

func TestParticleRowEncodingRoundTrip(t *testing.T) {
	s := matrix.NewSparse("P", 4, nil)
	s.SetWindow(0, 4)
	in := []particle{
		{pid: 7, x: 1.5, y: 0.25, vx: -0.5, vy: 0.125},
		{pid: 9, x: 2.5, y: 0.75, vx: 0.5, vy: -0.125},
	}
	for _, pt := range in {
		appendParticle(s, 0, pt)
	}
	out := readRow(s, 0, nil)
	if len(out) != 2 {
		t.Fatalf("decoded %d particles", len(out))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("particle %d: %+v != %+v", i, out[i], in[i])
		}
	}
	// Survives a pack/unpack cycle (the redistribution path).
	d := matrix.NewSparse("D", 4, nil)
	d.SetWindow(0, 4)
	d.UnpackRow(0, s.PackRow(0))
	out = readRow(d, 0, nil)
	if len(out) != 2 || out[1] != in[1] {
		t.Fatal("particles corrupted by pack/unpack")
	}
}

// TestConservationEveryStep runs the step function directly on 3 ranks and
// asserts the global particle count never changes.
func TestConservationEveryStep(t *testing.T) {
	cfg := testConfig()
	cfg.Steps = 25
	cfg.CostPerParticle = 100
	err := mpi.Run(cluster.New(cluster.Uniform(3)), func(c *mpi.Comm) error {
		rt := core.New(c, core.Config{Adapt: false})
		ps := rt.RegisterSparse("P", cfg.Rows)
		ph := rt.InitPhase(cfg.Rows)
		ph.AddAccess("P", drsd.ReadWrite, 1, 0)
		rt.Commit()
		lo, hi := ph.Bounds()
		seedParticles(ps, cfg, c.Size(), lo, hi)
		want := rt.AllreduceSum(float64(Census(ps, lo, hi)))
		var sc scratch
		for step := 0; step < cfg.Steps; step++ {
			rt.BeginCycle()
			stepOnce(rt, ps, cfg, &sc)
			rt.EndCycle()
			got := rt.AllreduceSum(float64(Census(ps, lo, hi)))
			if got != want {
				t.Errorf("step %d: %v particles, want %v", step, got, want)
			}
		}
		rt.Finalize()
		return nil
	})
	if err != nil {
		t.Fatal(err)
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
	if a.CheckInt != b.CheckInt {
		t.Fatalf("non-deterministic: %v vs %v", a.CheckInt, b.CheckInt)
	}
	if a.CheckInt == 0 {
		t.Fatal("degenerate checksum")
	}
}

// TestJoinerFailsTheRun: particles has no mid-run joiner path, so a world
// that grows into an arrival fails with ErrNoJoiner instead of hanging on a
// joiner that re-seeds its rows and runs every step from 0.
func TestJoinerFailsTheRun(t *testing.T) {
	cfg := testConfig()
	cfg.Steps = 20
	cfg.Core.Drop = core.DropNever
	_, err := Run(cluster.New(cluster.Uniform(4).WithArrival(1.0, 5)), cfg)
	if !errors.Is(err, apps.ErrNoJoiner) {
		t.Fatalf("Run = %v, want ErrNoJoiner", err)
	}
}

func TestAdaptationPreservesParticlesExactly(t *testing.T) {
	cfg := testConfig()
	cfg.ExtraAllP0 = 2 // the §5.1 imbalance: P0 carries extra particles
	cfg.Core.Drop = core.DropNever
	dedCfg := cfg
	dedCfg.Core.Adapt = false
	ded, err := Run(cluster.New(cluster.Uniform(4)), dedCfg)
	if err != nil {
		t.Fatal(err)
	}
	adp, err := Run(cluster.New(loadedSpec(4, 0, 5)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if adp.Redists == 0 {
		t.Fatal("no redistribution; scenario broken")
	}
	if adp.CheckInt != ded.CheckInt {
		t.Fatalf("redistribution changed particle states: %v vs %v", adp.CheckInt, ded.CheckInt)
	}
}

func TestAdaptationBeatsNoAdaptation(t *testing.T) {
	cfg := testConfig()
	cfg.ExtraAllP0 = 2
	cfg.Core.Drop = core.DropNever
	spec := loadedSpec(4, 0, 5)
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

func TestUnbalancedWorkloadRebalancesWithoutLoad(t *testing.T) {
	// Even with no competing process, the imbalanced particle population
	// means equal blocks are unbalanced. With a CP as trigger, Dyn-MPI's
	// per-iteration measurement shifts rows off the heavy node.
	cfg := testConfig()
	cfg.ExtraTopP0 = 6
	cfg.Core.Drop = core.DropNever
	adp, err := Run(cluster.New(loadedSpec(4, 0, 5)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if adp.Redists == 0 {
		t.Fatal("no redistribution")
	}
}

func TestGracePeriodQualityShape(t *testing.T) {
	// The Figure 7 effect: iterations far below 10ms force wallclock
	// timing; GP=1 keeps spiked samples and mis-sizes the distribution,
	// GP=5's min filter recovers. GP=5 must not be slower.
	cfg := testConfig()
	cfg.Rows, cfg.Cols = 64, 48
	cfg.Steps = 90
	cfg.ExtraTopP0 = 4
	cfg.CostPerParticle = 3e3
	cfg.Core.Drop = core.DropNever
	spec := loadedSpec(4, 0, 5)
	g1 := cfg
	g1.Core.GracePeriod = 1
	g5 := cfg
	g5.Core.GracePeriod = 5
	r1, err := Run(cluster.New(spec), g1)
	if err != nil {
		t.Fatal(err)
	}
	r5, err := Run(cluster.New(spec), g5)
	if err != nil {
		t.Fatal(err)
	}
	if r1.CheckInt != r5.CheckInt {
		t.Fatalf("grace period changed results: %v vs %v", r1.CheckInt, r5.CheckInt)
	}
	if r5.Elapsed > r1.Elapsed*1.05 {
		t.Fatalf("GP=5 (%.3fs) clearly slower than GP=1 (%.3fs)", r5.Elapsed, r1.Elapsed)
	}
}

func TestCensus(t *testing.T) {
	s := matrix.NewSparse("P", 2, nil)
	s.SetWindow(0, 2)
	appendParticle(s, 0, particle{pid: 1})
	appendParticle(s, 1, particle{pid: 2})
	appendParticle(s, 1, particle{pid: 3})
	if Census(s, 0, 2) != 3 {
		t.Fatalf("census = %d", Census(s, 0, 2))
	}
}

func TestChecksumSensitivity(t *testing.T) {
	s := matrix.NewSparse("P", 1, nil)
	s.SetWindow(0, 1)
	appendParticle(s, 0, particle{pid: 1, x: 1})
	c1 := localChecksum(s, 0, 1)
	s.ClearRow(0)
	appendParticle(s, 0, particle{pid: 1, x: math.Nextafter(1, 2)})
	c2 := localChecksum(s, 0, 1)
	if c1 == c2 {
		t.Fatal("checksum insensitive to state changes")
	}
}

// warmWorld runs body on every rank of a world that has taken ten particle
// steps, so rows refill from the sparse array's recycled nodes and the
// decode/move buffers in sc have reached their size.
func warmWorld(t *testing.T, ranks int, cfg Config, body func(rt *core.Runtime, step func())) {
	t.Helper()
	err := mpi.Run(cluster.New(cluster.Uniform(ranks)), func(c *mpi.Comm) error {
		rt := core.New(c, core.Config{Adapt: false})
		ps := rt.RegisterSparse("P", cfg.Rows)
		ph := rt.InitPhase(cfg.Rows)
		ph.AddAccess("P", drsd.ReadWrite, 1, 0)
		rt.Commit()
		lo, hi := ph.Bounds()
		seedParticles(ps, cfg, c.Size(), lo, hi)
		var sc scratch
		step := func() { stepOnce(rt, ps, cfg, &sc) }
		for i := 0; i < 10; i++ {
			rt.BeginCycle()
			step()
			rt.EndCycle()
		}
		body(rt, step)
		rt.Finalize()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A rank with no neighbour builds no emigrant slice, so its steady-state
// step allocates nothing at all.
func TestSteadyStateStepAllocFree(t *testing.T) {
	cfg := testConfig()
	cfg.CostPerParticle = 100
	warmWorld(t, 1, cfg, func(_ *core.Runtime, step func()) {
		if n := testing.AllocsPerRun(20, step); n != 0 {
			t.Errorf("steady-state step on one rank: %v allocs, want 0", n)
		}
	})
}

// With neighbours, steady-state steps may allocate only the freshly built
// emigrant slices: append growth plus one boxing into the message payload
// each. Counted as what a world of 2K steps allocates over a world of K.
func TestSteadyStateStepAllocatesOnlyEmigrantSlices(t *testing.T) {
	cfg := testConfig()
	cfg.CostPerParticle = 100
	const ranks, steps = 3, 2
	// |vy|*Dt < 1 row, so an emigrant slice holds at most one boundary row's
	// particles; doubling growth from empty is bits.Len of that.
	perSlice := bits.Len(uint(cfg.Cols*cfg.BasePerCell)) + 1
	// The runtime's own: on one P the run reads 41, all of it the slices',
	// on each of 200 runs, so the slack is margin.
	const slack = 16
	budget := int64(steps*2*(ranks-1)*perSlice + slack)
	got := alloctest.Extra(steps, func(k int) {
		warmWorld(t, ranks, cfg, func(_ *core.Runtime, step func()) {
			for i := 0; i < k; i++ {
				step()
			}
		})
	})
	t.Logf("%d extra steps on %d ranks: %d mallocs, budget %d", steps, ranks, got, budget)
	if got > budget {
		t.Errorf("%d steady-state steps on %d ranks allocated %d times, budget %d", steps, ranks, got, budget)
	}
}
