package exp

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/apps/jacobi"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/vclock"
)

// This file measures elastic world resizing against its only real
// alternative on a non-dedicated cluster: killing the job and restarting it
// at the new size. An elastic resize keeps every byte that does not change
// owner in place and ships only the contiguous ownership delta through the
// diff schedule; a restart pays the full makespan bookkeeping — drain the
// old world, reload every array over the wire, rerun the remaining
// iterations from the checkpoint. The study validates, through the cost
// model, that resize N→M is strictly cheaper than drop-all+restart in both
// directions (capacity arriving under load, capacity leaving under load).

// ResizeOptions parameterises the resize-vs-restart study.
type ResizeOptions struct {
	// Rows, Cols, Iters shape the Jacobi workload (defaults 512x512x60).
	Rows, Cols, Iters int
	// At is the cycle the membership changes (default Iters/3).
	At int
	// Seed offsets the cluster seeds.
	Seed uint64
}

// DefaultResizeOptions returns the default study shape.
func DefaultResizeOptions() ResizeOptions {
	return ResizeOptions{Rows: 512, Cols: 512, Iters: 60}
}

// ResizeRow is one scenario: an elastic resize from From to To ranks at
// cycle At, against the modeled drop-all+restart baseline.
type ResizeRow struct {
	Scenario string
	From, To int
	At       int
	ResizeS  float64 // elastic-run virtual makespan
	RestartS float64 // restart baseline: partial runs + full-array reload
	ReloadS  float64 // the reload component of the baseline
	MovedMB  float64 // bytes the elastic redistributions actually shipped
	TotalMB  float64 // full working-set size a restart must reload
}

// Saving reports the fractional makespan saving of resizing over restart.
func (r ResizeRow) Saving() float64 {
	if r.RestartS == 0 {
		return 0
	}
	return (r.RestartS - r.ResizeS) / r.RestartS
}

// ResizeResult holds the study.
type ResizeResult struct {
	Rows []ResizeRow
}

// CheaperCount reports on how many scenarios the elastic resize beat the
// restart baseline strictly — the acceptance criterion wants ≥2.
func (r *ResizeResult) CheaperCount() int {
	n := 0
	for _, row := range r.Rows {
		if row.ResizeS < row.RestartS {
			n++
		}
	}
	return n
}

// RunResize executes the resize-vs-restart study: grow 4→6 via timed
// capacity arrivals, shrink 6→4 via an explicit Resize call.
func RunResize(o ResizeOptions) (*ResizeResult, error) {
	if o.Rows == 0 {
		o.Rows = 512
	}
	if o.Cols == 0 {
		o.Cols = 512
	}
	if o.Iters == 0 {
		o.Iters = 60
	}
	if o.At == 0 {
		o.At = o.Iters / 3
	}

	baseCfg := func(iters int) jacobi.Config {
		cfg := jacobi.DefaultConfig()
		cfg.Rows, cfg.Cols, cfg.Iters = o.Rows, o.Cols, iters
		cfg.Core = core.DefaultConfig()
		cfg.Core.Drop = core.DropNever
		return cfg
	}
	dedicated := func(n, iters int) (apps.Result, error) {
		spec := cluster.Uniform(n)
		spec.Seed += o.Seed
		return jacobi.Run(cluster.New(spec), baseCfg(iters))
	}
	// elastic runs cfg on spec and returns it with the megabytes its
	// redistributions shipped.
	elastic := func(spec cluster.Spec, cfg jacobi.Config) (apps.Result, float64, error) {
		ring := traced(&cfg.Core)
		res, err := jacobi.Run(cluster.New(spec), cfg)
		if err != nil {
			return res, 0, err
		}
		redists, err := redistsOf(ring)
		var bytes int64
		for _, recs := range redists {
			for _, r := range recs {
				bytes += r.BytesSent
			}
		}
		return res, float64(bytes) / 1e6, err
	}
	// A restart reloads the full working set (both ping-pong buffers) over
	// the wire of the new world; the cost model is the cluster's own.
	net := cluster.New(cluster.Uniform(1)).Net()
	totalBytes := float64(2 * o.Rows * o.Cols * 8)
	reload := vclock.Duration(net.Latency).Seconds() + totalBytes/net.BytesPerSec

	// Reference checksum: an undisturbed dedicated run of the full length.
	ref, err := dedicated(4, o.Iters)
	if err != nil {
		return nil, fmt.Errorf("resize reference: %w", err)
	}

	res := &ResizeResult{}
	addScenario := func(name string, from, to int, elastic apps.Result, movedMB float64) error {
		if elastic.Checksum != ref.Checksum {
			return fmt.Errorf("resize %s: checksum %v differs from dedicated run %v — resize corrupted data",
				name, elastic.Checksum, ref.Checksum)
		}
		// Restart baseline: run the old world to the resize point, reload
		// the full working set, run the rest on the new world.
		before, err := dedicated(from, o.At)
		if err != nil {
			return fmt.Errorf("resize %s baseline head: %w", name, err)
		}
		after, err := dedicated(to, o.Iters-o.At)
		if err != nil {
			return fmt.Errorf("resize %s baseline tail: %w", name, err)
		}
		res.Rows = append(res.Rows, ResizeRow{
			Scenario: name,
			From:     from,
			To:       to,
			At:       o.At,
			ResizeS:  elastic.Elapsed,
			RestartS: before.Elapsed + reload + after.Elapsed,
			ReloadS:  reload,
			MovedMB:  movedMB,
			TotalMB:  totalBytes / 1e6,
		})
		return nil
	}

	// Scenario 1: capacity arrives under load — two nodes join at cycle At.
	growSpec := cluster.Uniform(4).WithArrival(1.0, o.At).WithArrival(1.0, o.At)
	growSpec.Seed += o.Seed
	grow, moved, err := elastic(growSpec, baseCfg(o.Iters))
	if err != nil {
		return nil, fmt.Errorf("resize grow: %w", err)
	}
	if err := addScenario("grow", 4, 6, grow, moved); err != nil {
		return nil, err
	}

	// Scenario 2: capacity leaves under load — an explicit shrink releases
	// the two highest ranks at cycle At.
	shrinkSpec := cluster.Uniform(6)
	shrinkSpec.Seed += o.Seed
	shrinkCfg := baseCfg(o.Iters)
	shrinkCfg.ResizeAt, shrinkCfg.ResizeTo = o.At, 4
	shrink, moved, err := elastic(shrinkSpec, shrinkCfg)
	if err != nil {
		return nil, fmt.Errorf("resize shrink: %w", err)
	}
	if err := addScenario("shrink", 6, 4, shrink, moved); err != nil {
		return nil, err
	}
	return res, nil
}

// Table renders the study.
func (r *ResizeResult) Table() *Table {
	t := &Table{
		Caption: "Elastic resizing vs drop-all+restart: Jacobi, membership change mid-run; restart pays partial reruns plus a full working-set reload",
		Header:  []string{"scenario", "nodes", "at", "resize(s)", "restart(s)", "saving", "moved(MB)", "reload(MB)"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Scenario,
			fmt.Sprintf("%d->%d", row.From, row.To),
			fmt.Sprint(row.At),
			f2(row.ResizeS), f2(row.RestartS), pct(row.Saving()),
			f2(row.MovedMB), f2(row.TotalMB),
		})
	}
	return t
}
