package exp

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/telemetry"
)

// This file is the large-world scalability soak: a pure collective workload
// (no application on top) cycling every collective family over worlds of up
// to 1024 ranks. It exists to exercise the sharded rendezvous engine at
// sizes the paper experiments never reach, and to pin the engine's
// determinism contract at scale: identical options must produce a
// byte-identical report — including the allreduce results, whose
// floating-point association is fixed by group slot order, never by
// physical goroutine arrival order. CI runs the n=256 soak twice and
// compares the outputs verbatim.

// ScaleOptions parameterises the soak.
type ScaleOptions struct {
	Sizes  []int // world sizes to run, in order
	Cycles int   // collective cycles per size
	VecLen int   // vector length for the element-wise collectives
}

// DefaultScaleOptions covers the tentpole sizes: the largest paper-scale
// world, and the 256/1024-rank worlds the sharded engine targets, with
// 64-element vectors.
func DefaultScaleOptions() ScaleOptions {
	return ScaleOptions{Sizes: []int{64, 256, 1024}, Cycles: 20, VecLen: 64}
}

// ScaleSizeResult is the outcome of one world size: a checksum folding
// every collective result of the run (byte-identical across runs), the
// finishing virtual time, and the per-shape collective counters.
type ScaleSizeResult struct {
	Ranks    int
	Cycles   int
	Checksum float64
	FinishS  float64 // virtual seconds at the final barrier
	Shapes   []mpi.CollectiveShape
}

// ScaleResult is the outcome of a soak across all requested sizes, plus the
// per-shape telemetry records of every size.
type ScaleResult struct {
	Sizes   []ScaleSizeResult
	Records []telemetry.Record
}

// RunScale executes the soak. Every cycle of every size runs the full
// collective mix: a rotating-root broadcast, an element-wise sum allreduce
// (folded in slot order), a float64 allgather, a rotating-root
// gather folded back through a scalar allreduce, and a barrier. All
// payloads are deterministic functions of (rank, cycle, element).
func RunScale(o ScaleOptions) (*ScaleResult, error) {
	res := &ScaleResult{}
	for _, n := range o.Sizes {
		sr, err := runScaleSize(n, o.Cycles, o.VecLen)
		if err != nil {
			return nil, fmt.Errorf("scale n=%d: %w", n, err)
		}
		res.Sizes = append(res.Sizes, sr)
		for i, sh := range sr.Shapes {
			res.Records = append(res.Records, telemetry.CollectiveRecord{
				Base: telemetry.Base{
					K: telemetry.KindCollective, Node: 0, Cycle: -1,
					Time: sr.FinishS, Seq: i,
				},
				Op: sh.Op, Algorithm: sh.Algorithm, Ranks: sh.Ranks,
				Steps: sh.Steps, Count: sh.Count, Bytes: sh.Bytes,
			})
		}
	}
	return res, nil
}

func runScaleSize(n, cycles, vecLen int) (ScaleSizeResult, error) {
	sr := ScaleSizeResult{Ranks: n, Cycles: cycles}
	err := mpi.Run(cluster.New(cluster.Uniform(n)), func(c *mpi.Comm) error {
		g := c.World().AllGroup()
		rank := c.Rank()
		buf := make([]float64, vecLen)
		bcast := make([]float64, vecLen)
		gath := make([]float64, n)
		var checksum float64
		for cycle := 0; cycle < cycles; cycle++ {
			root := cycle % n

			// Rotating-root broadcast of a cycle-dependent vector.
			if rank == root {
				for j := range bcast {
					bcast[j] = float64(cycle*vecLen+j) * 0.5
				}
			}
			c.BcastF64sInto(g, root, bcast)
			checksum += bcast[cycle%vecLen]

			// Element-wise sum allreduce.
			for j := range buf {
				buf[j] = float64(rank+1) * float64(cycle+j+1) * 1e-3
			}
			c.AllreduceF64sInto(g, buf, mpi.Sum)
			checksum += buf[cycle%vecLen]

			// Float64 allgather of a per-rank scalar.
			c.AllgatherF64sInto(g, float64(rank)+float64(cycle)*1e-2, gath)
			checksum += gath[(cycle*7)%n]

			// Rotating-root gather; the root folds its view back through a
			// scalar allreduce so every rank's checksum stays identical.
			parts := c.Gather(g, root, rank*cycle, 8)
			var rootSum float64
			if rank == root {
				for _, p := range parts {
					rootSum += float64(p.(int))
				}
			}
			checksum += c.AllreduceSum(g, rootSum)

			c.Barrier(g)
		}
		if rank == 0 {
			sr.Checksum = checksum
			sr.FinishS = c.Now().Seconds()
			for _, sh := range g.CollectiveStats() {
				if sh.Count > 0 {
					sr.Shapes = append(sr.Shapes, sh)
				}
			}
		}
		return nil
	})
	return sr, err
}

// Table renders the soak report: one row per (size, shape) plus a summary
// row per size with the checksum and finish time. Byte-identical across
// runs with identical options.
func (r *ScaleResult) Table() *Table {
	t := &Table{
		Caption: "Large-world collective soak (sharded engine; deterministic checksums)",
		Header:  []string{"ranks", "op", "algorithm", "steps", "ops", "bytes", "checksum", "finish(s)"},
	}
	for _, sr := range r.Sizes {
		for _, sh := range sr.Shapes {
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", sr.Ranks), sh.Op, sh.Algorithm,
				fmt.Sprintf("%d", sh.Steps), fmt.Sprintf("%d", sh.Count),
				fmt.Sprintf("%d", sh.Bytes), "", "",
			})
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", sr.Ranks), "TOTAL", "", "", "", "",
			fmt.Sprintf("%.6f", sr.Checksum), fmt.Sprintf("%.9f", sr.FinishS),
		})
	}
	return t
}
