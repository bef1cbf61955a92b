package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/drsd"
	"repro/internal/mpi"
	"repro/internal/telemetry"
	"repro/internal/vclock"
)

// ComputeIters over a range is ComputeIter over its rows: the same app
// charged either way finishes every rank at the same virtual time and leaves
// byte-identical telemetry JSONL, with the grace-period collector never
// active (dedicated run), active
// for part of the run (a load change, its grace period, a redistribution and
// the post-redistribution grace period) and with adaptation off, at a row
// cost below the timeslice and one above it.
func TestComputeItersMatchesComputeIter(t *testing.T) {
	const ranks, n = 4, 26
	perRow := func(rt *Runtime, lo, hi int, cost vclock.Duration) {
		for g := lo; g < hi; g++ {
			rt.ComputeIter(g, cost)
		}
	}
	perRange := func(rt *Runtime, lo, hi int, cost vclock.Duration) { rt.ComputeIters(lo, hi, cost) }

	run := func(spec cluster.Spec, cfg Config, cost vclock.Duration, cycles int, charge func(*Runtime, int, int, vclock.Duration)) (finish string, jsonl []byte, sawGrace bool) {
		ring := telemetry.NewRing(1 << 16)
		cfg.Telemetry = ring
		var mu sync.Mutex
		traces := make([]string, ranks)
		err := mpi.Run(cluster.New(spec), func(c *mpi.Comm) error {
			rt := New(c, cfg)
			rt.RegisterDense("X", n, 4)
			ph := rt.InitPhase(n)
			ph.AddAccess("X", drsd.ReadWrite, 1, 0)
			rt.Commit()
			for cyc := 0; cyc < cycles; cyc++ {
				if rt.BeginCycle() {
					lo, hi := ph.Bounds()
					if rt.collector != nil {
						mu.Lock()
						sawGrace = true
						mu.Unlock()
					}
					// An empty and an inverted range charge nothing.
					charge(rt, lo, lo, cost)
					charge(rt, hi, lo, cost)
					charge(rt, lo, hi, cost)
				}
				rt.EndCycle()
			}
			rt.Finalize()
			mu.Lock()
			traces[c.Rank()] = fmt.Sprintf("%d finished %v\n", c.Rank(), c.Now())
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if ring.Dropped() != 0 {
			t.Fatalf("telemetry ring overflowed (%d dropped)", ring.Dropped())
		}
		recs := ring.Records()
		telemetry.Sort(recs)
		var buf bytes.Buffer
		if err := telemetry.WriteJSONL(&buf, recs); err != nil {
			t.Fatal(err)
		}
		for _, tr := range traces {
			finish += tr
		}
		return finish, buf.Bytes(), sawGrace
	}

	off := DefaultConfig()
	off.Adapt = false
	for _, tc := range []struct {
		name      string
		spec      cluster.Spec
		cfg       Config
		wantGrace bool
	}{
		{"dedicated", cluster.Uniform(ranks), DefaultConfig(), false},
		{"load change", cpAtCycle(cluster.Uniform(ranks), 1, 3), DefaultConfig(), true},
		{"no adaptation", cpAtCycle(cluster.Uniform(ranks), 1, 3), off, false},
	} {
		for _, cost := range []vclock.Duration{1600 * vclock.Microsecond, 12 * vclock.Millisecond} {
			// ≈ 4 s of virtual time either way: the 1 s load monitor sees the CP.
			cycles := int(4 * vclock.Second / (cost * n / ranks))
			t.Run(fmt.Sprintf("%s/%v", tc.name, cost), func(t *testing.T) {
				wantFinish, wantJSONL, grace := run(tc.spec, tc.cfg, cost, cycles, perRow)
				if grace != tc.wantGrace {
					t.Fatalf("scenario broken: grace-period collector active = %v, want %v", grace, tc.wantGrace)
				}
				gotFinish, gotJSONL, _ := run(tc.spec, tc.cfg, cost, cycles, perRange)
				if gotFinish != wantFinish {
					t.Errorf("finish times differ:\n range:   %s per row: %s", gotFinish, wantFinish)
				}
				if !bytes.Equal(gotJSONL, wantJSONL) {
					t.Errorf("telemetry JSONL differs (%d vs %d bytes)", len(gotJSONL), len(wantJSONL))
				}
				if len(wantJSONL) == 0 {
					t.Error("no telemetry recorded")
				}
			})
		}
	}
}
