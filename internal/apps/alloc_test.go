package apps_test

import (
	"runtime"
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/jacobi"
	"repro/internal/apps/sor"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/telemetry"
)

// mallocsOf reports how many heap objects one call of run allocated,
// process-wide (the ranks are goroutines of this process).
func mallocsOf(t *testing.T, run func() (apps.Result, error)) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestSteadyStateCycleAllocBudget pins the allocation-free phase cycle of
// the dense applications: on 8 unloaded ranks, with a nil telemetry sink or
// a ring, a run of 2N iterations allocates what a run of N iterations does — set-up,
// the first cycles' buffer warm-up and teardown are common to both, so the
// difference is what the N extra cycles cost. Halo buffers circulate between
// neighbours' free lists, Dense rows and replica stages are recycled in
// place, and the cycle bracket was already allocation-free, so the
// difference per extra rank-cycle is zero; perCycle is the stated budget for
// the configurations that refresh a replica every cycle, and slack absorbs
// the Go runtime's own occasional allocations.
func TestSteadyStateCycleAllocBudget(t *testing.T) {
	const (
		ranks = 8
		n     = 40
		slack = 128 // whole-run constant: 0.4 per rank-cycle here, where boxing the halo rows costs 3.5
	)
	type variant struct {
		name     string
		perCycle float64 // allowed mallocs per extra rank-cycle
		run      func(iters int) (apps.Result, error)
	}
	jac := func(mut func(*jacobi.Config)) func(int) (apps.Result, error) {
		return func(iters int) (apps.Result, error) {
			cfg := jacobi.DefaultConfig()
			cfg.Rows, cfg.Cols, cfg.Iters = 128, 64, iters
			mut(&cfg)
			return jacobi.Run(cluster.New(cluster.Uniform(ranks)), cfg)
		}
	}
	srun := func(mut func(*sor.Config)) func(int) (apps.Result, error) {
		return func(iters int) (apps.Result, error) {
			cfg := sor.DefaultConfig()
			cfg.Rows, cfg.Cols, cfg.Iters = 128, 64, iters
			mut(&cfg)
			return sor.Run(cluster.New(cluster.Uniform(ranks)), cfg)
		}
	}
	replicate := func(c *core.Config, rma bool) {
		c.Replicate, c.ReplicaEvery, c.ReplicaRMA = true, 1, rma
	}
	variants := []variant{
		{"jacobi", 0, jac(func(*jacobi.Config) {})},
		{"jacobi-overlap", 0, jac(func(c *jacobi.Config) { c.Overlap = true })},
		{"sor", 0, srun(func(*sor.Config) {})},
		{"sor-overlap", 0, srun(func(c *sor.Config) { c.Overlap = true })},
		// With a ring attached every rank-cycle emits an iteration record and
		// a load sample. Both reach the ring by value and land in its typed
		// chunks — one allocation per 64 records, inside the slack — where
		// boxing them into telemetry.Record cost 2 per rank-cycle.
		{"jacobi-ring", 0, jac(func(c *jacobi.Config) { c.Core.Telemetry = telemetry.NewRing(1 << 16) })},
		{"sor-overlap-ring", 0, srun(func(c *sor.Config) {
			c.Overlap, c.Core.Telemetry = true, telemetry.NewRing(1<<16)
		})},
		// A refresh packs one slab per array from core's sync.Pool and
		// allocates nothing else. The pool may lose a slab — to a GC, and
		// under the race detector deliberately to one Put in four — and a
		// refill is two objects, so two arrays refreshed every cycle cost an
		// expected 1 malloc per rank-cycle under -race and none otherwise.
		// One boxed value per array per refresh would already cost 2.
		{"jacobi-replica-paired", 1.5, jac(func(c *jacobi.Config) { replicate(&c.Core, false) })},
		{"jacobi-replica-rma", 1.5, jac(func(c *jacobi.Config) { replicate(&c.Core, true) })},
		{"sor-replica-rma", 1.5, srun(func(c *sor.Config) { replicate(&c.Core, true) })},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			v.run(n) // warm process-wide pools
			short := mallocsOf(t, func() (apps.Result, error) { return v.run(n) })
			long := mallocsOf(t, func() (apps.Result, error) { return v.run(2 * n) })
			extra := float64(int64(long) - int64(short))
			budget := slack + v.perCycle*ranks*n
			t.Logf("mallocs: %d iters %d, %d iters %d: %.2f per extra rank-cycle", n, short, 2*n, long, extra/(ranks*n))
			if extra > budget {
				t.Errorf("%d extra cycles on %d ranks cost %.0f mallocs (%.2f per rank-cycle), budget %.0f",
					n, ranks, extra, extra/(ranks*n), budget)
			}
		})
	}
}
