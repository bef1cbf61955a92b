package dynmpi_test

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/dynmpi"
)

// TestPublicAPIEndToEnd exercises the whole facade the way a downstream
// user would: launch, register, declare accesses, iterate with halo
// exchange, adapt under load, verify.
func TestPublicAPIEndToEnd(t *testing.T) {
	const n, width, iters = 64, 16, 40
	spec := dynmpi.Uniform(3).With(dynmpi.CompetingProcessAtCycle(1, 3))
	cfg := dynmpi.DefaultConfig()
	cfg.Drop = dynmpi.DropNever

	var mu sync.Mutex
	redists := 0
	err := dynmpi.Launch(spec, cfg, func(rt *dynmpi.Runtime) error {
		a := rt.RegisterDense("A", n, width)
		ph := rt.InitPhase(n)
		ph.AddAccess("A", dynmpi.ReadWrite, 1, 0)
		ph.AddAccess("A", dynmpi.Read, 1, -1)
		ph.AddAccess("A", dynmpi.Read, 1, +1)
		rt.Commit()
		a.Fill(func(g, j int) float64 { return float64(g) })

		for t := 0; t < iters; t++ {
			if rt.BeginCycle() {
				lo, hi := ph.Bounds()
				for g := lo; g < hi; g++ {
					row := a.Row(g)
					for j := range row {
						row[j] += 1
					}
					rt.ComputeIter(g, 10*dynmpi.Millisecond)
				}
				dynmpi.HaloExchange(rt, 1, n,
					func(g int) []float64 { return a.Row(g) },
					func(g int, row []float64) { copy(a.Row(g), row) })
			}
			rt.EndCycle()
		}

		if rt.Participating() {
			lo, hi := ph.Bounds()
			for g := lo; g < hi; g++ {
				if a.Row(g)[0] != float64(g+iters) {
					return fmt.Errorf("row %d = %v, want %v", g, a.Row(g)[0], g+iters)
				}
			}
		}
		rt.Finalize()
		mu.Lock()
		if rt.Redistributions() > redists {
			redists = rt.Redistributions()
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if redists == 0 {
		t.Fatal("no adaptation through the public API")
	}
}

func TestPublicSparseAndGlobals(t *testing.T) {
	const n = 30
	spec := dynmpi.Uniform(3).With(dynmpi.CompetingProcessAt(0, 0))
	cfg := dynmpi.DefaultConfig()
	cfg.Drop = dynmpi.DropAlways
	cfg.AllowRejoin = false
	err := dynmpi.Launch(spec, cfg, func(rt *dynmpi.Runtime) error {
		s := rt.RegisterSparse("S", n)
		ph := rt.InitPhase(n)
		ph.AddAccess("S", dynmpi.ReadWrite, 1, 0)
		rt.Commit()
		lo, hi := ph.Bounds()
		for g := lo; g < hi; g++ {
			s.Append(g, int32(g), 1)
		}
		var last float64
		for t := 0; t < 25; t++ {
			total := 0.0
			if rt.BeginCycle() {
				lo, hi = ph.Bounds()
				for g := lo; g < hi; g++ {
					total += float64(s.RowLen(g))
					rt.ComputeIter(g, 10*dynmpi.Millisecond)
				}
			}
			last = rt.AllreduceSum(total)
			rt.EndCycle()
		}
		rt.Finalize()
		if last != n {
			return fmt.Errorf("global element count %v, want %v", last, n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestVectorReductionsReachRemovedRank runs a Sum and a Max vector
// reduction every cycle of a world whose loaded rank is removed: every rank,
// the removed one included, ends with the same bits, and they are the
// slot-order fold of the active ranks' contributions alone.
func TestVectorReductionsReachRemovedRank(t *testing.T) {
	const n, ranks, cycles, loaded, width = 30, 4, 25, 3, 8
	contrib := func(rank, cycle, i int) float64 {
		v := math.Ldexp(1+float64((rank*31+i*17+cycle*7)%97)/97, (rank*13+i)%40-20)
		if (rank+i)%3 == 0 {
			v = -v
		}
		return v
	}
	spec := dynmpi.Uniform(ranks).With(dynmpi.CompetingProcessAtCycle(loaded, 2))
	cfg := dynmpi.DefaultConfig()
	cfg.Drop = dynmpi.DropAlways
	var mu sync.Mutex
	sums, maxes := map[int][]float64{}, map[int][]float64{}
	out := map[int]bool{}
	err := dynmpi.Launch(spec, cfg, func(rt *dynmpi.Runtime) error {
		ph := rt.InitPhase(n)
		rt.Commit()
		rank := rt.Comm().Rank()
		sum, top := make([]float64, width), make([]float64, width)
		for c := 0; c < cycles; c++ {
			if rt.BeginCycle() {
				lo, hi := ph.Bounds()
				rt.ComputeIters(lo, hi, 10*dynmpi.Millisecond)
			}
			for i := range sum {
				sum[i], top[i] = contrib(rank, c, i), contrib(rank, c, i)
			}
			rt.AllreduceF64sInto(sum, dynmpi.Sum)
			rt.AllreduceF64sInto(top, dynmpi.Max)
			rt.EndCycle()
		}
		rt.Finalize()
		mu.Lock()
		sums[rank], maxes[rank], out[rank] = sum, top, !rt.Participating()
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < ranks; r++ {
		if out[r] != (r == loaded) {
			t.Fatalf("removed ranks at the end %v, want only rank %d", out, loaded)
		}
	}
	for i := 0; i < width; i++ {
		wantSum, wantMax := contrib(0, cycles-1, i), contrib(0, cycles-1, i)
		for r := 1; r < loaded; r++ {
			v := contrib(r, cycles-1, i)
			wantSum += v
			wantMax = math.Max(wantMax, v)
		}
		for r := 0; r < ranks; r++ {
			if math.Float64bits(sums[r][i]) != math.Float64bits(wantSum) || math.Float64bits(maxes[r][i]) != math.Float64bits(wantMax) {
				t.Fatalf("rank %d element %d: sum %v max %v, want %v and %v", r, i, sums[r][i], maxes[r][i], wantSum, wantMax)
			}
		}
	}
}

func TestErrorPropagatesFromLaunch(t *testing.T) {
	err := dynmpi.Launch(dynmpi.Uniform(2), dynmpi.DefaultConfig(), func(rt *dynmpi.Runtime) error {
		if rt.Comm().Rank() == 1 {
			return fmt.Errorf("deliberate")
		}
		rt.InitPhase(4)
		rt.Commit()
		rt.Barrier()
		return nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
}

func TestF64Bytes(t *testing.T) {
	if dynmpi.F64Bytes(10) != 80 {
		t.Fatal("F64Bytes")
	}
}

// A cluster description the model cannot run is an error from Launch, not a
// panic, and no rank starts: a NaN or infinite power would charge every
// computation zero (or unbounded) virtual time without a word. So is a
// configuration out of range: a negative MaxRedists never redistributes, and
// an unknown Method or Drop runs some other policy, both silently.
func TestLaunchRejectsBadSpec(t *testing.T) {
	power := func(p float64) dynmpi.ClusterSpec {
		s := dynmpi.Uniform(2)
		s.Nodes[1].Power = p
		return s
	}
	negMem := dynmpi.Uniform(2)
	negMem.Nodes[0].MemBytes = -1
	negDrop := dynmpi.DropMessages(0, 1, 0, 1)
	negDrop.Dur = -5 * dynmpi.Millisecond
	cases := []struct {
		name string
		spec dynmpi.ClusterSpec
		want string
		edit func(*dynmpi.Config) // applied to DefaultConfig when set
	}{
		{"no nodes", dynmpi.ClusterSpec{}, "no nodes", nil},
		{"NaN power", power(math.NaN()), "node 1 has non-positive or non-finite power NaN", nil},
		{"+Inf power", power(math.Inf(1)), "node 1 has non-positive or non-finite power +Inf", nil},
		{"-Inf power", power(math.Inf(-1)), "node 1 has non-positive or non-finite power -Inf", nil},
		{"zero power", power(0), "node 1 has non-positive or non-finite power 0", nil},
		{"negative power", power(-2), "node 1 has non-positive or non-finite power -2", nil},
		{"NaN arrival", dynmpi.Uniform(2).WithArrival(math.NaN(), 5), "node 2 has non-positive or non-finite power NaN", nil},
		{"negative memory", negMem, "node 0 has negative memory -1", nil},
		{"fault on a missing node", dynmpi.WithFaults(dynmpi.Uniform(2), dynmpi.CrashAtCycle(7, 1)), "node 7 out of range", nil},
		{"negative drop delay", dynmpi.WithFaults(dynmpi.Uniform(2), negDrop), "negative duration", nil},
		{"unknown method", dynmpi.Uniform(2), "Config.Method 7 is no method", func(c *dynmpi.Config) { c.Method = 7 }},
		{"negative method", dynmpi.Uniform(2), "Config.Method -1 is no method", func(c *dynmpi.Config) { c.Method = -1 }},
		{"unknown drop policy", dynmpi.Uniform(2), "Config.Drop 9 is no drop policy", func(c *dynmpi.Config) { c.Drop = 9 }},
		{"unknown alloc", dynmpi.Uniform(2), "Config.Alloc -1 is no allocation scheme", func(c *dynmpi.Config) { c.Alloc = -1 }},
		{"negative max redists", dynmpi.Uniform(2), "MaxRedists -1", func(c *dynmpi.Config) { c.MaxRedists = -1 }},
		{"negative grace period", dynmpi.Uniform(2), "GracePeriod -5", func(c *dynmpi.Config) { c.GracePeriod = -5 }},
		{"negative replica interval", dynmpi.Uniform(2), "ReplicaEvery -2", func(c *dynmpi.Config) { c.ReplicaEvery = -2 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := dynmpi.DefaultConfig()
			if tc.edit != nil {
				tc.edit(&cfg)
			}
			err := dynmpi.Launch(tc.spec, cfg, func(*dynmpi.Runtime) error {
				t.Error("a rank started")
				return nil
			})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Launch = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
