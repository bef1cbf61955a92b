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

// TestWorldAllocBudget holds "construction is O(ranks) small objects" as a
// line instead of a profile reading. A quiet world of 30 cycles on the sweep's
// cell shape (24 rows of 96 per rank) allocates a + b·ranks objects: the
// per-world part (the cluster, the world's slices, one group) does not grow
// with the world, and b is what one more rank costs to build, run and tear
// down. The second case prices one membership change the same way: what a
// DropAlways removal adds per rank over the quiet run — grace period,
// decision, redistribution, a new group, the removed rank's send-out
// traffic. Both are pinned a little above what this tree measures; the
// parent of the PR that added the test stood at 66–72 and 74–86.
func TestWorldAllocBudget(t *testing.T) {
	const (
		perRank    = 36 // b: objects per extra rank of a quiet world (measured 24 and 30, to 32 under -race)
		perRemoval = 44 // extra objects per rank of one removal (measured 34–38, to 41 under -race)
	)
	run := func(ranks int, loaded bool) func() (apps.Result, error) {
		return func() (apps.Result, error) {
			cfg := jacobi.DefaultConfig()
			cfg.Rows, cfg.Cols, cfg.Iters, cfg.CostPerElem = 24*ranks, 96, 30, 40e3
			cfg.Overlap = true
			cfg.Core.Drop = core.DropAlways
			cfg.Core.GracePeriod = 3
			spec := cluster.Uniform(ranks)
			if loaded {
				spec = spec.With(cluster.CycleEvent(1, 10, +1))
			}
			res, err := jacobi.Run(cluster.New(spec), cfg)
			if err == nil && loaded != (res.Redists == 1 && res.Stats[1].Removed) {
				t.Errorf("%d ranks, loaded %v: %d redistributions, rank 1 removed %v", ranks, loaded, res.Redists, res.Stats[1].Removed)
			}
			return res, err
		}
	}
	run(16, true)() // warm process-wide pools
	quiet, loaded := map[int]float64{}, map[int]float64{}
	least := func(run func() (apps.Result, error)) float64 {
		// Scheduling only ever adds objects (a park, a pool miss): take the
		// least of three.
		m := mallocsOf(t, run)
		for i := 0; i < 2; i++ {
			m = min(m, mallocsOf(t, run))
		}
		return float64(m)
	}
	for _, n := range []int{4, 8, 16} {
		quiet[n], loaded[n] = least(run(n, false)), least(run(n, true))
		t.Logf("%2d ranks: quiet %v objects, one removal %+v (%.1f per rank)", n, quiet[n], loaded[n]-quiet[n], (loaded[n]-quiet[n])/float64(n))
	}
	for _, step := range [][2]int{{4, 8}, {8, 16}} {
		lo, hi := step[0], step[1]
		if b := (quiet[hi] - quiet[lo]) / float64(hi-lo); b > perRank {
			t.Errorf("quiet world: %.1f objects per rank between %d and %d ranks, budget %d", b, lo, hi, perRank)
		}
	}
	for _, n := range []int{4, 8, 16} {
		if extra := (loaded[n] - quiet[n]) / float64(n); extra > perRemoval {
			t.Errorf("%d ranks: one removal costs %.1f extra objects per rank, budget %d", n, extra, perRemoval)
		}
	}
}

// TestFinishedWorldReleasesItsArrays guards the one hazard of building a
// world from slabs: an interior pointer keeps its whole owner alive. Every
// mpi.Group carries a sync.Pool, and the Go runtime keeps a used pool — hence
// its group, the World, the Comms and the cluster's Nodes — reachable for two
// collections after the world is over. None of those may lead to a rank's
// Runtime: when the telemetry stamper the Node points at was a field of the
// Runtime, every finished world's rows stayed live that long, the live heap
// of a sweep quintupled and the pacer collected a fifth as often. One
// collection after a world with 6 MB of rows, at most a sixth of that may
// still be reachable.
func TestFinishedWorldReleasesItsArrays(t *testing.T) {
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	cfg := jacobi.DefaultConfig()
	cfg.Rows, cfg.Cols, cfg.Iters = 8*96, 512, 4 // two arrays of 3 MB
	cfg.Core.Telemetry = telemetry.NewRing(1 << 10)
	run := func() {
		if _, err := jacobi.Run(cluster.New(cluster.Uniform(8)), cfg); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm pools and the ring
	heap()
	heap()
	before := heap() // three collections on: the warm-up world is gone either way
	run()
	if after := heap(); after > before+1<<20 {
		t.Errorf("%d KB still reachable one collection after the world finished: something the world keeps points into a Runtime",
			(after-before)>>10)
	}
}
