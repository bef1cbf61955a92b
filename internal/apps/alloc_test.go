package apps_test

import (
	"runtime"
	"testing"

	"repro/internal/alloctest"
	"repro/internal/apps"
	"repro/internal/apps/jacobi"
	"repro/internal/apps/sor"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/telemetry"
)

// TestSteadyStateCycleAllocBudget pins the allocation-free phase cycle of
// the dense applications: on 8 unloaded ranks, with a nil telemetry sink or
// a ring, a run of 2N iterations allocates what a run of N iterations does — set-up,
// the first cycles' buffer warm-up and teardown are common to both, so the
// difference is what the N extra cycles cost. Halo buffers circulate between
// neighbours' free lists, Dense rows are recycled in place, replica slabs
// circulate through core's free list, and the cycle bracket was already
// allocation-free, so the difference per extra rank-cycle is zero, under
// -race too; slack absorbs the Go runtime's own occasional allocations.
func TestSteadyStateCycleAllocBudget(t *testing.T) {
	const (
		ranks = 8
		n     = 40
		slack = 128 // whole-run constant: 0.4 per rank-cycle here, where boxing the halo rows costs 3.5
	)
	type variant struct {
		name string
		run  func(iters int) (apps.Result, error)
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
		{"jacobi", jac(func(*jacobi.Config) {})},
		{"jacobi-overlap", jac(func(c *jacobi.Config) { c.Overlap = true })},
		{"sor", srun(func(*sor.Config) {})},
		{"sor-overlap", srun(func(c *sor.Config) { c.Overlap = true })},
		// With a ring attached every rank-cycle emits an iteration record and
		// a load sample. Both reach the ring by value and land in its typed
		// chunks — one allocation per 64 records, inside the slack — where
		// boxing them into telemetry.Record cost 2 per rank-cycle.
		{"jacobi-ring", jac(func(c *jacobi.Config) { c.Core.Telemetry = telemetry.NewRing(1 << 16) })},
		{"sor-overlap-ring", srun(func(c *sor.Config) {
			c.Overlap, c.Core.Telemetry = true, telemetry.NewRing(1<<16)
		})},
		// A refresh packs one slab per array from core's free list, which
		// the receiver adopts as its replica (paired) or the sender puts
		// back after its Put (RMA), and allocates nothing else: these read
		// 0.00 per rank-cycle, -race too. One boxed value per array per
		// refresh would already cost 2.
		{"jacobi-replica-paired", jac(func(c *jacobi.Config) { replicate(&c.Core, false) })},
		{"jacobi-replica-rma", jac(func(c *jacobi.Config) { replicate(&c.Core, true) })},
		{"sor-replica-rma", srun(func(c *sor.Config) { replicate(&c.Core, true) })},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			extra := float64(alloctest.Extra(n, func(iters int) {
				if _, err := v.run(iters); err != nil {
					t.Fatal(err)
				}
			}))
			t.Logf("%.0f mallocs over %d extra iterations: %.2f per extra rank-cycle", extra, n, extra/(ranks*n))
			if extra > slack {
				t.Errorf("%d extra cycles on %d ranks cost %.0f mallocs (%.2f per rank-cycle), budget %d",
					n, ranks, extra, extra/(ranks*n), slack)
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
// parent of the change that added the test stood at 66–72 and 74–86. Each
// world is one reading: on one P with the collector held off, quiet worlds
// of 4, 8 and 16 ranks read 128, 220 and 425 objects in each of 200 runs
// (134, 234 and 449 to 451 before a world's rows came from the previous
// world's: see TestWorldRowStorageAllocBudget).
func TestWorldAllocBudget(t *testing.T) {
	const (
		perRank    = 34 // b: objects per extra rank of a quiet world (reads 23 and 25.6, -race too)
		perRemoval = 44 // extra objects per rank of one removal (reads 30–35, to 38 under -race)
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
	mallocs := func(run func() (apps.Result, error)) float64 {
		return float64(alloctest.Mallocs(func() {
			if _, err := run(); err != nil {
				t.Fatal(err)
			}
		}))
	}
	mallocs(run(16, true)) // warm process-wide pools
	quiet, loaded := map[int]float64{}, map[int]float64{}
	for _, n := range []int{4, 8, 16} {
		quiet[n], loaded[n] = mallocs(run(n, false)), mallocs(run(n, true))
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
// world from slabs: an interior pointer keeps its whole owner alive.
// Whatever keeps a finished world reachable — a caller, a pool holding one
// of its objects — keeps its groups, the World, the Comms and the cluster's
// Nodes too. None of those may lead to a rank's Runtime: when the telemetry
// stamper the Node points at was a field of the Runtime, and a sync.Pool in
// every group kept the world reachable for two collections, every finished
// world's rows stayed live that long, the live heap of a sweep quintupled
// and the pacer collected a fifth as often. One collection after a world
// with 6 MB of rows, at most a sixth of that may still be reachable.
//
// One holder keeps a finished world's rows on purpose: matrix's row store,
// to which apps.Run releases every rank's dense arrays, keeps up to its
// bound (1.5 MiB) of their chunks for the next world. The warm-up world fills
// it before the first reading, and the measured world, of the same shape,
// takes those chunks and hands them back, so the store holds as much at
// both readings. What the bound still catches is anything else that keeps
// the world reachable.
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

// TestReplicatedWorldAllocBudget prices replication per world: k more
// replicated worlds may cost no more objects than k more unreplicated ones,
// plus a stated budget per rank-world. Every world hands its replica slabs
// back to core's free list at Finalize and the next world's refreshes take
// them again, so what replication adds per world is the bookkeeping around
// the slabs: one replica record per array and rank (2 here), and under
// ReplicaRMA one window per array with its per-rank epoch lists (11.75 in
// all). A world that left its replica slabs to the GC would allocate them
// afresh, a slab and its storage per array and rank, twice that under
// ReplicaRMA: 6.01 and 19.75 per rank-world.
func TestReplicatedWorldAllocBudget(t *testing.T) {
	const (
		ranks  = 8
		worlds = 20
	)
	run := func(mut func(*core.Config)) func(k int) {
		return func(k int) {
			for range k {
				cfg := jacobi.DefaultConfig()
				cfg.Rows, cfg.Cols, cfg.Iters = 128, 64, 6
				mut(&cfg.Core)
				if _, err := jacobi.Run(cluster.New(cluster.Uniform(ranks)), cfg); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	plain := alloctest.Extra(worlds, run(func(*core.Config) {}))
	for _, v := range []struct {
		rma    bool
		budget float64 // objects per extra rank-world over an unreplicated one
	}{{false, 3}, {true, 14}} {
		extra := alloctest.Extra(worlds, run(func(c *core.Config) {
			c.Replicate, c.ReplicaEvery, c.ReplicaRMA = true, 1, v.rma
		}))
		per := float64(extra-plain) / (worlds * ranks)
		t.Logf("ReplicaRMA %v: %d extra worlds cost %d objects, unreplicated %d: %+.2f per rank-world", v.rma, worlds, extra, plain, per)
		if per > v.budget {
			t.Errorf("ReplicaRMA %v: a replicated world costs %.2f objects per rank more than an unreplicated one, budget %.0f",
				v.rma, per, v.budget)
		}
	}
}

// TestWorldRowStorageAllocBudget prices a world's dense rows: k more
// identical jacobi worlds take no fresh row chunk per array and rank. Each
// rank's two arrays carve their first window from one chunk each; apps.Run
// releases both after the rank's report (core.Runtime.ReleaseArrays) into
// matrix's process-wide store, and the next world's arrays, of the same
// shape, take them again. A world that left its rows to the GC made both
// chunks afresh: 29.50 objects per rank-world, where this tree reads 27.50,
// -race too. The budget sits between.
func TestWorldRowStorageAllocBudget(t *testing.T) {
	const (
		ranks  = 8
		worlds = 20
		budget = 28 // objects per extra rank-world
	)
	extra := alloctest.Extra(worlds, func(k int) {
		for range k {
			cfg := jacobi.DefaultConfig()
			cfg.Rows, cfg.Cols, cfg.Iters = 128, 64, 6
			if _, err := jacobi.Run(cluster.New(cluster.Uniform(ranks)), cfg); err != nil {
				t.Fatal(err)
			}
		}
	})
	per := float64(extra) / (worlds * ranks)
	t.Logf("%d extra worlds cost %d objects: %.2f per rank-world", worlds, extra, per)
	if per > budget {
		t.Errorf("a jacobi world costs %.2f objects per rank, budget %d", per, budget)
	}
}
