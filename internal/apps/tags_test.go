package apps

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/drsd"
	"repro/internal/mpi"
)

// TestInvalidUserTagsFailTheRun: a user tag outside [0, 2^20) — negative,
// which mpi reads as AnyTag, or inside the runtime's reserved space, where
// redistribution slabs and membership packets travel — fails the run with an
// error naming the tag, whichever entry point it reaches: a relative
// receive, either halo helper, or a plain Send.
func TestInvalidUserTagsFailTheRun(t *testing.T) {
	const tagBase = 1 << 20 // core's first runtime tag
	const n = 12
	cases := []struct {
		name string
		tag  int
		body func(rt *core.Runtime, row func(g int) []float64)
	}{
		{"RecvRel", -1, func(rt *core.Runtime, _ func(int) []float64) {
			switch rt.Comm().Rank() {
			case 0:
				rt.RecvRel(1, -1)
			case 1:
				rt.SendRel(0, 7, "user message", 8)
			}
		}},
		{"HaloExchange", tagBase, func(rt *core.Runtime, row func(int) []float64) {
			HaloExchange(rt, tagBase, n, row, func(int, []float64) {})
		}},
		{"HaloExchangeOverlap", -1, func(rt *core.Runtime, row func(int) []float64) {
			HaloExchangeOverlap(rt, -1, n, row, func(int, []float64) {}, nil)
		}},
		{"Send", -1, func(rt *core.Runtime, _ func(int) []float64) {
			switch c := rt.Comm(); c.Rank() {
			case 0:
				c.Send(1, -1, "user message", 8)
			case 1:
				c.Recv(0, mpi.AnyTag)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := mpi.Run(cluster.New(cluster.Uniform(3)), func(c *mpi.Comm) error {
				rt := core.New(c, core.Config{Adapt: false})
				d := rt.RegisterDense("A", n, 2)
				ph := rt.InitPhase(n)
				ph.AddAccess("A", drsd.ReadWrite, 1, 0)
				ph.AddAccess("A", drsd.Read, 1, -1)
				ph.AddAccess("A", drsd.Read, 1, +1)
				rt.Commit()
				tc.body(rt, d.Row)
				rt.Finalize()
				return nil
			})
			if want := fmt.Sprintf("tag %d", tc.tag); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("run returned %v, want an error naming %q", err, want)
			}
		})
	}
}
