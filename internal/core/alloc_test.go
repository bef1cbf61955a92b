package core

import (
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/drsd"
	"repro/internal/mpi"
)

// With a nil telemetry sink the runtime promises that instrumentation costs
// nothing: the cycle bracket (BeginCycle/EndCycle with adaptation off) and
// every emit helper must perform zero heap allocations. This pins the
// "pre-size record slices only when a sink is attached" discipline — a
// regression here means telemetry started taxing un-instrumented runs.
func TestNilSinkHotPathsAllocFree(t *testing.T) {
	err := mpi.Run(cluster.New(cluster.Uniform(1)), func(c *mpi.Comm) error {
		cfg := DefaultConfig()
		cfg.Adapt = false // isolate the cycle bracket from the decision path
		rt := New(c, cfg)
		rt.RegisterDense("X", 64, 4)
		ph := rt.InitPhase(64)
		ph.AddAccess("X", drsd.ReadWrite, 1, 0)
		rt.Commit()

		// Warm up once so lazy initialisation doesn't count.
		rt.BeginCycle()
		rt.EndCycle()

		if n := testing.AllocsPerRun(200, func() {
			rt.BeginCycle()
			rt.EndCycle()
		}); n != 0 {
			t.Errorf("nil-sink cycle bracket allocated %v times per cycle, want 0", n)
		}
		if n := testing.AllocsPerRun(200, func() {
			rt.beginCycleTelemetry()
			rt.endCycleTelemetry()
			rt.emitMembership("drop", nil, nil)
		}); n != 0 {
			t.Errorf("nil-sink emit helpers allocated %v times per call, want 0", n)
		}
		rt.Finalize()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRedistributionAllocFree pins redist.go's pool invariant: once the slab
// pools and every scratch list have grown to the shape, a dense array's
// redistribution allocates nothing, in either commit mode. Four ranks move a
// 256×16 array with ±1 ghosts 400 times between two blocks that shift every
// boundary. The slack covers the whole run, not each redistribution: a GC
// empties the sync.Pools, and refilling them costs a run tens of mallocs in
// either mode. A single object per rank-redistribution would cost 1 600;
// one per receiving rank, as a window memory boxed at attach, about 800.
func TestRedistributionAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a quarter of its Puts")
	}
	const (
		ranks, rows, cols = 4, 256, 16
		redists           = 400
		slack             = 256
	)
	for _, mode := range []RedistMode{RedistPipelined, RedistRMA} {
		var mallocs uint64
		err := mpi.Run(cluster.New(cluster.Uniform(ranks)), func(c *mpi.Comm) error {
			cfg := DefaultConfig()
			cfg.RedistMode = mode
			rt := New(c, cfg)
			rt.RegisterDense("X", rows, cols)
			ph := rt.InitPhase(rows)
			ph.AddAccess("X", drsd.ReadWrite, 1, 0)
			ph.AddAccess("X", drsd.Read, 1, -1)
			ph.AddAccess("X", drsd.Read, 1, 1)
			rt.Commit()
			all := []int{0, 1, 2, 3}
			blocks := [2]*drsd.Block{
				drsd.NewBlock(all, []int{56, 72, 56, 72}),
				drsd.NewBlock(all, []int{72, 56, 72, 56}),
			}
			for i := 0; i < 8; i++ { // grow the pools and scratch lists
				rt.applyDistribution(blocks[i%2], nil)
			}
			var before, after runtime.MemStats
			if c.Rank() == 0 {
				runtime.GC()
				runtime.ReadMemStats(&before)
			}
			c.Barrier(c.World().AllGroup())
			for i := 0; i < redists; i++ {
				rt.applyDistribution(blocks[i%2], nil)
			}
			c.Barrier(c.World().AllGroup())
			if c.Rank() == 0 {
				runtime.ReadMemStats(&after)
				mallocs = after.Mallocs - before.Mallocs
			}
			rt.Finalize()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("mode %d: %d mallocs over %d redistributions on %d ranks", mode, mallocs, redists, ranks)
		if mallocs > slack {
			t.Errorf("mode %d: %d redistributions on %d ranks cost %d mallocs, want at most %d",
				mode, redists, ranks, mallocs, slack)
		}
	}
}

// TestExchangeLoadsAllocFree pins the load-exchange fast path: with no
// removed-node sidecar in flight, the per-cycle allgather of load readings
// rides the pooled float64 collective and must not allocate in steady state.
// The single-member case is exact (AllocsPerRun); the multi-rank case is
// checked loosely below because concurrent rank goroutines share the heap.
func TestExchangeLoadsAllocFree(t *testing.T) {
	err := mpi.Run(cluster.New(cluster.Uniform(1)), func(c *mpi.Comm) error {
		rt := New(c, DefaultConfig())
		rt.RegisterDense("X", 64, 4)
		ph := rt.InitPhase(64)
		ph.AddAccess("X", drsd.ReadWrite, 1, 0)
		rt.Commit()

		if _, _, _, err := rt.exchangeLoads(); err != nil { // warm the scratch buffers
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(200, func() {
			if _, _, _, err := rt.exchangeLoads(); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("steady-state exchangeLoads allocated %v times per cycle, want 0", n)
		}
		rt.Finalize()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestExchangeLoadsMultiRankAllocBudget bounds the whole-world allocation
// rate of the steady-state load exchange across four ranks. The pooled
// allgather makes each cycle allocation-free per rank once warm; the budget
// of 2 mallocs per rank-cycle absorbs scheduler noise while still failing
// loudly if the exchange regresses to boxing contributions again.
func TestExchangeLoadsMultiRankAllocBudget(t *testing.T) {
	const cycles = 200
	var mallocs uint64
	err := mpi.Run(cluster.New(cluster.Uniform(4)), func(c *mpi.Comm) error {
		rt := New(c, DefaultConfig())
		rt.RegisterDense("X", 256, 4)
		ph := rt.InitPhase(256)
		ph.AddAccess("X", drsd.ReadWrite, 1, 0)
		rt.Commit()

		for i := 0; i < 3; i++ { // warm pools on every rank
			if _, _, _, err := rt.exchangeLoads(); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		if c.Rank() == 0 {
			runtime.GC()
			runtime.ReadMemStats(&before)
		}
		c.Barrier(c.World().AllGroup())
		for i := 0; i < cycles; i++ {
			if _, _, _, err := rt.exchangeLoads(); err != nil {
				t.Fatal(err)
			}
		}
		c.Barrier(c.World().AllGroup())
		if c.Rank() == 0 {
			runtime.ReadMemStats(&after)
			mallocs = after.Mallocs - before.Mallocs
		}
		rt.Finalize()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if budget := uint64(2 * 4 * cycles); mallocs > budget {
		t.Errorf("4-rank load exchange allocated %d times over %d cycles, budget %d", mallocs, cycles, budget)
	}
}
