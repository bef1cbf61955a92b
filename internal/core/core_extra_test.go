package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/drsd"
	"repro/internal/matrix"
	"repro/internal/mpi"
	"repro/internal/telemetry"
	"repro/internal/vclock"
)

// TestMultiPhaseSharedDistribution declares two phases over the same
// iteration space (SOR's red/black structure) and verifies both see the
// same bounds across a redistribution.
func TestMultiPhaseSharedDistribution(t *testing.T) {
	const n = 48
	cfg := DefaultConfig()
	cfg.Drop = DropNever
	spec := cpAtCycle(cluster.Uniform(3), 1, 3)
	err := mpi.Run(cluster.New(spec), func(c *mpi.Comm) error {
		rt := New(c, cfg)
		rt.RegisterDense("U", n, 2)
		red := rt.InitPhase(n)
		red.AddAccess("U", drsd.ReadWrite, 1, 0)
		red.AddAccess("U", drsd.Read, 1, -1)
		black := rt.InitPhase(n)
		black.AddAccess("U", drsd.ReadWrite, 1, 0)
		black.AddAccess("U", drsd.Read, 1, +1)
		rt.Commit()
		for tstep := 0; tstep < 25; tstep++ {
			if rt.BeginCycle() {
				rlo, rhi := red.Bounds()
				blo, bhi := black.Bounds()
				if rlo != blo || rhi != bhi {
					return fmt.Errorf("phases disagree: [%d,%d) vs [%d,%d)", rlo, rhi, blo, bhi)
				}
				for g := rlo; g < rhi; g++ {
					rt.ComputeIter(g, 5*vclock.Millisecond)
					rt.ComputeIter(g, 5*vclock.Millisecond)
				}
			}
			rt.EndCycle()
		}
		rt.Finalize()
		if rt.Redistributions() == 0 {
			return fmt.Errorf("no redistribution")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestHeterogeneousPowers verifies that after a load-triggered
// redistribution, a 3x-power node receives roughly 3x the rows.
func TestHeterogeneousPowers(t *testing.T) {
	const n = 80
	spec := cpAtCycle(cluster.Uniform(2), 0, 3)
	spec.Nodes[1].Power = 3
	cfg := DefaultConfig()
	cfg.Drop = DropNever
	results := runMini(t, spec, cfg, n, 30, false)
	checkValuesAndCoverage(t, results, n)
	counts := results[0].counts
	if counts == nil {
		counts = results[1].counts
	}
	// Node 0: power 1 with one CP (capacity ~0.5); node 1: power 3.
	// Relative power gives ~1/7 vs ~6/7; successive balancing is close.
	if counts[1] < counts[0]*4 {
		t.Fatalf("power-3 node got %v, expected heavy skew", counts)
	}
}

// TestGraceRestartsOnSecondLoadChange: a second CP arriving mid-grace must
// restart the measurement rather than producing a distribution computed
// from mixed baselines.
func TestGraceRestartsOnSecondLoadChange(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Drop = DropNever
	cfg.GracePeriod = 8
	spec := cluster.Uniform(3).
		With(cluster.CycleEvent(1, 3, +1)).
		With(cluster.CycleEvent(2, 14, +1))
	results := runMini(t, spec, cfg, 48, 60, false)
	checkValuesAndCoverage(t, results, 48)
	// The last decision measured a grace period opened after the second CP
	// arrived, on a baseline holding both loads.
	second := only[telemetry.LoadEventRecord](results[2].recs)
	decs := only[telemetry.DecisionRecord](results[0].recs)
	if len(second) != 1 || len(decs) == 0 {
		t.Fatalf("load events on node 2 %+v, decisions %+v", second, decs)
	}
	if last := decs[len(decs)-1]; last.GraceVT <= second[0].Time || fmt.Sprint(last.Loads) != "[0 1 1]" {
		t.Fatalf("last decision (grace from %v, loads %v) was not measured after the second CP (t=%v)",
			last.GraceVT, last.Loads, second[0].Time)
	}
	if len(only[telemetry.RedistRecord](results[0].recs)) == 0 {
		t.Fatal("no redistribution after restarted grace")
	}
	// The final distribution reflects BOTH loads.
	counts := results[0].counts
	if counts[1] >= counts[0] || counts[2] >= counts[0] {
		t.Fatalf("counts %v: both loaded nodes should trail the unloaded one", counts)
	}
}

// TestVectorReductionAndBarrierWithRemovedNodes exercises the send-out
// collectives under physical removal: the removed rank passes through the
// barriers and receives every vector reduction's result through the
// send-out stream without contributing to it.
func TestVectorReductionAndBarrierWithRemovedNodes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Drop = DropAlways
	spec := cpAtCycle(cluster.Uniform(3), 2, 2)
	var mu sync.Mutex
	got := map[int][]float64{}
	wasOut := map[int]bool{}
	err := mpi.Run(cluster.New(spec), func(c *mpi.Comm) error {
		rt := New(c, cfg)
		x := rt.RegisterDense("X", 30, 1)
		ph := rt.InitPhase(30)
		ph.AddAccess("X", drsd.ReadWrite, 1, 0)
		rt.Commit()
		x.Fill(func(g, j int) float64 { return 0 })
		buf := make([]float64, 2)
		out := false
		for tstep := 0; tstep < 25; tstep++ {
			if rt.BeginCycle() {
				lo, hi := ph.Bounds()
				for g := lo; g < hi; g++ {
					rt.ComputeIter(g, 10*vclock.Millisecond)
				}
			}
			out = out || !rt.Participating()
			rt.Barrier()
			buf[0], buf[1] = float64(tstep), float64(c.Rank())
			rt.AllreduceF64sInto(buf, mpi.Max)
			rt.EndCycle()
		}
		rt.Finalize()
		mu.Lock()
		got[c.Rank()], wasOut[c.Rank()] = buf, out
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !wasOut[2] || wasOut[0] || wasOut[1] {
		t.Fatalf("removed ranks %v, want only rank 2", wasOut)
	}
	// Rank 2 is out, so the largest contributed rank is 1 on every rank.
	for r := 0; r < 3; r++ {
		if v := got[r]; v[0] != 24 || v[1] != 1 {
			t.Fatalf("rank %d final reduction %v, want [24 1]", r, v)
		}
	}
}

// TestPagingSlowsContiguousRedistribution: with tight node memory, the
// contiguous allocator's full reallocation spills to disk and the
// redistribution takes longer in virtual time than with projection.
func TestPagingSlowsContiguousRedistribution(t *testing.T) {
	elapsed := func(scheme matrix.Alloc) float64 {
		const n = 256
		spec := cpAtCycle(cluster.Uniform(2), 0, 3)
		for i := range spec.Nodes {
			spec.Nodes[i].MemBytes = 1 << 20 // 1 MiB: half the array already overflows
		}
		cfg := DefaultConfig()
		cfg.Drop = DropNever
		cfg.Alloc = scheme
		ring := traceInto(&cfg)
		err := mpi.Run(cluster.New(spec), func(c *mpi.Comm) error {
			rt := New(c, cfg)
			x := rt.RegisterDense("X", n, 512) // 4KB rows; half-array > 1MiB
			ph := rt.InitPhase(n)
			ph.AddAccess("X", drsd.ReadWrite, 1, 0)
			rt.Commit()
			x.Fill(func(g, j int) float64 { return 1 })
			for tstep := 0; tstep < 20; tstep++ {
				if rt.BeginCycle() {
					lo, hi := ph.Bounds()
					for g := lo; g < hi; g++ {
						rt.ComputeIter(g, vclock.Millisecond)
					}
				}
				rt.EndCycle()
			}
			rt.Finalize()
			if rt.Redistributions() == 0 {
				return fmt.Errorf("no redistribution")
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		worst := 0.0
		for _, recs := range byNode(t, ring) {
			dur := 0.0
			for _, r := range only[telemetry.RedistRecord](recs) {
				dur += r.Time - r.StartVT
			}
			worst = max(worst, dur)
		}
		return worst
	}
	proj := elapsed(matrix.Projection)
	contig := elapsed(matrix.Contiguous)
	if contig <= proj {
		t.Fatalf("paging contiguous run (%.3fs) not slower than projection (%.3fs)", contig, proj)
	}
}

// TestSecondDropTakesSendOutRoot drops twice, the second time naming the
// send-out root. Rank 1 leaves first and receives its global results from
// rank 0; the later load lands on ranks 0 and 2, and both leave, so the
// send-out role moves to rank 3. Rank 1 names no sender (colls.go), so it
// goes on receiving from rank 3: every rank sees the root's globals and the
// world finishes.
func TestSecondDropTakesSendOutRoot(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Drop = DropAlways
	spec := cpAtCycle(cpAtCycle(cpAtCycle(cluster.Uniform(4), 1, 2), 0, 14), 2, 14)
	done := make(chan map[int]*miniResult, 1)
	go func() {
		defer close(done) // a failed run must not look like a hang
		done <- runMini(t, spec, cfg, 64, 40, true)
	}()
	var results map[int]*miniResult
	select {
	case results = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("world hung: a removed rank missed the send-out role's move")
	}
	if results == nil {
		return // runMini reported the failure
	}
	checkValuesAndCoverage(t, results, 64)
	for r, want := range []bool{true, true, true, false} {
		if results[r].removed != want {
			t.Errorf("rank %d removed = %v, want %v", r, results[r].removed, want)
		}
	}
	if results[0].redists < 2 {
		t.Fatalf("%d redistributions: the second drop never happened", results[0].redists)
	}
	for r := 0; r < 3; r++ {
		if fmt.Sprint(results[r].globals) != fmt.Sprint(results[3].globals) {
			t.Errorf("rank %d saw globals %v, the root %v", r, results[r].globals, results[3].globals)
		}
	}
}
