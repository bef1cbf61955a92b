package dmpic

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/vclock"
)

// TestFigure2Program runs the paper's Figure 2 example essentially
// verbatim: a single-phase stencil where each rank computes A from B over
// its assigned iterations and exchanges boundary rows of B with its
// relative-rank neighbours, under a competing process that triggers a
// redistribution mid-run.
func TestFigure2Program(t *testing.T) {
	const (
		numProcs = 4
		n        = 64
		numIters = 40
		rowLen   = 8
	)
	spec := cluster.Uniform(numProcs).With(cluster.CycleEvent(1, 3, +1))
	cfg := core.DefaultConfig()
	cfg.Drop = core.DropNever

	var mu sync.Mutex
	sums := map[int]float64{}
	err := Run(spec, cfg, func(p *P) error {
		p.DMPI_init(numProcs, 1, 2, DMPI_BLOCK)
		a := p.DMPI_register_dense_array("A", n, rowLen)
		b := p.DMPI_register_dense_array("B", n, rowLen)
		p.DMPI_init_phase(n, DMPI_NEAREST_NEIGHBOR)
		p.DMPI_add_array_access("A", DMPI_WRITE, 1, 0)
		p.DMPI_add_array_access("B", DMPI_READ, 1, -1)
		p.DMPI_add_array_access("B", DMPI_READ, 1, 0)
		p.DMPI_add_array_access("B", DMPI_READ, 1, +1)
		p.DMPI_commit()
		b.Fill(func(g, j int) float64 { return float64(g*100 + j) })
		a.Fill(func(g, j int) float64 { return 0 })

		for iter := 0; iter < numIters; iter++ {
			startIter := p.DMPI_get_start_iter()
			endIter := p.DMPI_get_end_iter()
			if p.DMPI_participating() {
				for i := startIter; i < endIter; i++ {
					out := a.Row(i)
					for j := 0; j < rowLen; j++ {
						s := b.Row(i)[j]
						if i > 0 {
							s += b.Row(i - 1)[j]
						}
						if i < n-1 {
							s += b.Row(i + 1)[j]
						}
						out[j] = s / 3
					}
					p.DMPI_work(i, 8*vclock.Millisecond)
				}
				relRank := p.DMPI_get_rel_rank()
				if relRank > 0 {
					p.DMPI_Send(a.Row(startIter), relRank-1, 1)
				}
				if relRank < p.DMPI_get_num_active()-1 {
					p.DMPI_Send(a.Row(endIter-1), relRank+1, 2)
				}
				if relRank > 0 {
					copy(b.Row(startIter-1), p.DMPI_Recv(relRank-1, 2))
				}
				if relRank < p.DMPI_get_num_active()-1 {
					copy(b.Row(endIter), p.DMPI_Recv(relRank+1, 1))
				}
				// B interior <- A (ping through a copy keeps Figure 2's
				// single-direction A = F(B) shape).
				for i := startIter; i < endIter; i++ {
					copy(b.Row(i), a.Row(i))
				}
			}
		}
		p.DMPI_finalize()

		if p.DMPI_participating() {
			lo, hi := p.Runtime().Dist().RangeOf(p.Runtime().Comm().Rank())
			s := 0.0
			for g := lo; g < hi; g++ {
				for _, v := range b.Row(g) {
					s += v
				}
			}
			mu.Lock()
			sums[p.Runtime().Comm().Rank()] = s
			mu.Unlock()
			if p.Runtime().Redistributions() == 0 {
				return fmt.Errorf("the Figure 2 scenario should have redistributed")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, s := range sums {
		total += s
	}
	if total == 0 {
		t.Fatal("degenerate result")
	}
}

func TestInitValidation(t *testing.T) {
	err := Run(cluster.Uniform(2), core.DefaultConfig(), func(p *P) error {
		defer func() {
			if recover() == nil {
				t.Error("wrong processor count did not panic")
			}
		}()
		p.DMPI_init(3, 1, 2, DMPI_BLOCK)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = Run(cluster.Uniform(2), core.DefaultConfig(), func(p *P) error {
		defer func() {
			if recover() == nil {
				t.Error("non-block distribution did not panic")
			}
		}()
		p.DMPI_init(2, 1, 2, 99)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunRejectsBadSpec checks that Run returns what is wrong with the
// cluster spec or the configuration, and that no rank starts.
func TestRunRejectsBadSpec(t *testing.T) {
	nanPower := cluster.Uniform(2)
	nanPower.Nodes[1].Power = math.NaN()
	missingNode := cluster.Uniform(2)
	missingNode.Faults = []fault.Fault{fault.CrashAtCycle(7, 1)}
	cases := []struct {
		name string
		spec cluster.Spec
		want string
		edit func(*core.Config) // applied to DefaultConfig when set
	}{
		{"no nodes", cluster.Spec{}, "no nodes", nil},
		{"NaN power", nanPower, "node 1 has non-positive or non-finite power NaN", nil},
		{"fault on a missing node", missingNode, "node 7 out of range", nil},
		{"unknown method", cluster.Uniform(2), "Config.Method 7 is no method", func(c *core.Config) { c.Method = 7 }},
		{"negative max redists", cluster.Uniform(2), "MaxRedists -1", func(c *core.Config) { c.MaxRedists = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.DefaultConfig()
			if tc.edit != nil {
				tc.edit(&cfg)
			}
			err := Run(tc.spec, cfg, func(*P) error {
				t.Error("a rank started")
				return nil
			})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Run = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

func TestSparseRegistrationThroughCompatLayer(t *testing.T) {
	err := Run(cluster.Uniform(2), core.Config{Adapt: false}, func(p *P) error {
		p.DMPI_init(2, 1, 2, DMPI_BLOCK)
		s := p.DMPI_register_sparse_array("S", 10)
		p.DMPI_init_phase(10, DMPI_NEAREST_NEIGHBOR)
		p.DMPI_add_array_access("S", DMPI_READWRITE, 1, 0)
		p.DMPI_commit()
		lo := p.DMPI_get_start_iter()
		hi := p.DMPI_get_end_iter()
		for g := lo; g < hi; g++ {
			s.Append(g, 0, float64(g))
			p.DMPI_work(g, vclock.Millisecond)
		}
		p.DMPI_finalize()
		if s.NNZ() != hi-lo {
			return fmt.Errorf("NNZ %d", s.NNZ())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
