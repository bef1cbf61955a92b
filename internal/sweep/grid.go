// Package sweep runs many deterministic virtual-time worlds side by side.
// A World (world.go) is one application run on its own cluster, and
// RunWorlds (engine.go) runs a list of them on a pool, each straight through
// to completion. A Grid enumerates a parameter space (scenario × ranks ×
// grace period × overlap × faults × replication × one-sided commits ×
// elastic resize) into Cells, and Run runs each cell's World, Jobs at a
// time; the paper studies in internal/exp run their own lists of Worlds.
//
// The cells share no node, message or clock, and every world is
// deterministic in virtual time on its own, so the per-cell results are
// independent of worker-pool width, GOMAXPROCS and the order the worlds
// finish in. The report writers in report.go keep wall-clock information
// on segregated "# wall-time:" lines so that everything else is
// byte-comparable across runs.
package sweep

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Cell is one point of the parameter grid.
type Cell struct {
	// Index is the cell's position in Grid.Cells() enumeration order; it is
	// the stable sort key of every report.
	Index int
	// Scenario names the application: "jacobi", "sor", "cg" or "particles".
	Scenario string
	// Ranks is the world size.
	Ranks int
	// GP is the adaptation grace period in phase cycles.
	GP int
	// Overlap enables communication/computation overlap where the scenario
	// supports it (jacobi, sor); cg and particles ignore it.
	Overlap bool
	// Fault selects the injected fault: "none" or "crash" (the CI crash
	// scenario, Grid.CrashNode at Grid.CrashCycle).
	Fault string
	// Replicate enables buddy replication of dense arrays.
	Replicate bool
	// RMA routes the data movers through one-sided windows, both as Puts
	// under pairwise epochs: redistribution commits run in RedistRMA mode
	// (joiner-bound rows of a grow cell included) and replica refreshes (when
	// Replicate is set) use the deferred-epoch path (core.Config.ReplicaRMA).
	RMA bool
	// Resize selects elastic membership change: "none", "grow" (the world
	// gains Grid.ResizeAdd timed arrivals at Grid.ResizeCycle and
	// auto-grows into them mid-run), or "growskew" (the same growth, but a
	// competing process lands on node 0 two cycles before the arrivals, so
	// the diff schedule redistributes into an already-skewed world). Empty
	// means "none". Growth needs mid-run joiners: jacobi and sor only.
	Resize string
}

// Key renders the cell as a stable, human-greppable identifier, e.g.
// "jacobi/r4/gp3/ov1/fnone/rep0/rma0/rznone".
func (c Cell) Key() string {
	rz := c.Resize
	if rz == "" {
		rz = "none"
	}
	return fmt.Sprintf("%s/r%d/gp%d/ov%s/f%s/rep%s/rma%s/rz%s",
		c.Scenario, c.Ranks, c.GP, bit(c.Overlap), c.Fault, bit(c.Replicate), bit(c.RMA), rz)
}

func bit(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// Grid is a full sweep specification: the axes that are crossed into cells
// plus the shared workload knobs every cell runs under.
type Grid struct {
	// Axes. The cross product of these, in this nesting order (scenario
	// outermost, elastic resize innermost), is the cell list.
	Scenarios []string
	Ranks     []int
	GPs       []int
	Overlaps  []bool
	Faults    []string
	Reps      []bool
	RMAs      []bool
	Resizes   []string

	// Workload knobs shared by all cells.
	Rows, Cols  int     // grid size (jacobi/sor/particles); cg uses Rows*Cols/Scale
	Iters       int     // phase cycles per world
	CostPerElem float64 // modelled per-element compute cost, ns
	CPNode      int     // node receiving the competing process
	CPCycle     int     // phase cycle at which it arrives
	CrashNode   int     // node killed by "crash" cells
	CrashCycle  int     // phase cycle of the crash
	ResizeCycle int     // phase cycle the "grow" arrivals come up at
	ResizeAdd   int     // nodes added by "grow" cells
	RingCap     int     // per-world telemetry ring capacity
}

// Smoke returns the CI-sized grid: 2 scenarios × 2 world sizes × fault
// none/crash × replication on/off × one-sided commits on/off × resize
// none/grow/growskew = 96 cells (overlap pinned on — its off/on
// equivalence has its own dedicated tests), each a few dozen phase cycles,
// small enough to sweep in seconds yet exercising every adaptation path
// (CP arrival with unconditional drop, crash recovery with and without
// replicas, both data movers, and elastic growth into arrival capacity —
// including growth into a world already skewed by a competing process).
func Smoke() Grid {
	return Grid{
		Scenarios: []string{"jacobi", "sor"},
		Ranks:     []int{4, 8},
		GPs:       []int{3},
		Overlaps:  []bool{true},
		Faults:    []string{"none", "crash"},
		Reps:      []bool{false, true},
		RMAs:      []bool{false, true},
		Resizes:   []string{"none", "grow", "growskew"},

		// CostPerElem is high enough that the competing process visibly
		// degrades its node on a 96x96 grid, so the drop path actually
		// fires in the fault-free cells.
		Rows: 96, Cols: 96, Iters: 30, CostPerElem: 40e3,
		CPNode: 1, CPCycle: 10,
		CrashNode: 2, CrashCycle: 12,
		ResizeCycle: 18, ResizeAdd: 1,
		RingCap: 1 << 15,
	}
}

// Cells enumerates the grid in deterministic nesting order and assigns
// each cell its Index.
func (g *Grid) Cells() []Cell {
	var cells []Cell
	for _, scen := range g.Scenarios {
		for _, ranks := range g.Ranks {
			for _, gp := range g.GPs {
				for _, ov := range g.Overlaps {
					for _, f := range g.Faults {
						for _, rep := range g.Reps {
							for _, rma := range g.RMAs {
								for _, rz := range g.Resizes {
									cells = append(cells, Cell{
										Index:    len(cells),
										Scenario: scen, Ranks: ranks, GP: gp,
										Overlap: ov, Fault: f, Replicate: rep, RMA: rma,
										Resize: rz,
									})
								}
							}
						}
					}
				}
			}
		}
	}
	return cells
}

// Validate rejects grids that cannot run: unknown axis values, scenario
// events targeting nodes outside the smallest world, crashes scheduled
// after the run ends, growth for a scenario without mid-run joiners (cg,
// particles), and a cell without room for its telemetry.
func (g *Grid) Validate() error {
	if len(g.Scenarios) == 0 || len(g.Ranks) == 0 || len(g.GPs) == 0 ||
		len(g.Overlaps) == 0 || len(g.Faults) == 0 || len(g.Reps) == 0 ||
		len(g.RMAs) == 0 || len(g.Resizes) == 0 {
		return fmt.Errorf("sweep: empty axis (need scen/ranks/gp/overlap/fault/rep/rma/resize)")
	}
	minRanks := g.Ranks[0]
	for _, r := range g.Ranks {
		if r < 2 {
			return fmt.Errorf("sweep: world size %d too small (need >= 2 ranks)", r)
		}
		if r < minRanks {
			minRanks = r
		}
	}
	for _, s := range g.Scenarios {
		switch s {
		case "jacobi", "sor", "cg", "particles":
		default:
			return fmt.Errorf("sweep: unknown scenario %q (want jacobi|sor|cg|particles)", s)
		}
	}
	for _, f := range g.Faults {
		switch f {
		case "none", "crash":
		default:
			return fmt.Errorf("sweep: unknown fault kind %q (want none|crash)", f)
		}
		if f == "crash" {
			if g.CrashNode >= minRanks {
				return fmt.Errorf("sweep: crash node %d outside smallest world (%d ranks)", g.CrashNode, minRanks)
			}
			if g.CrashCycle >= g.Iters {
				return fmt.Errorf("sweep: crash cycle %d at/after last iteration %d", g.CrashCycle, g.Iters)
			}
		}
	}
	for _, gp := range g.GPs {
		if gp < 1 {
			return fmt.Errorf("sweep: grace period %d < 1", gp)
		}
	}
	for _, rz := range g.Resizes {
		switch rz {
		case "none", "grow", "growskew":
		default:
			return fmt.Errorf("sweep: unknown resize kind %q (want none|grow|growskew)", rz)
		}
		if rz == "grow" || rz == "growskew" {
			for _, s := range g.Scenarios {
				if s == "cg" || s == "particles" {
					return fmt.Errorf("sweep: resize %s needs mid-run joiners, which scenario %s does not support (jacobi and sor do)", rz, s)
				}
			}
			if g.ResizeAdd < 1 {
				return fmt.Errorf("sweep: grow cells need ResizeAdd >= 1, have %d", g.ResizeAdd)
			}
			if g.ResizeCycle < 1 || g.ResizeCycle >= g.Iters {
				return fmt.Errorf("sweep: resize cycle %d outside run of %d iterations", g.ResizeCycle, g.Iters)
			}
		}
		if rz == "growskew" && g.ResizeCycle < 3 {
			return fmt.Errorf("sweep: growskew needs ResizeCycle >= 3 (skew lands at ResizeCycle-2), have %d", g.ResizeCycle)
		}
	}
	for _, k := range []struct {
		name string
		v    int
	}{{"CP node", g.CPNode}, {"CP cycle", g.CPCycle}, {"crash node", g.CrashNode}, {"crash cycle", g.CrashCycle}} {
		if k.v < 0 {
			return fmt.Errorf("sweep: %s %d is negative", k.name, k.v)
		}
	}
	// A world's zero cost is the application's default (World), so a grid
	// cannot ask for free computation.
	if !(g.CostPerElem > 0) || math.IsInf(g.CostPerElem, 0) {
		return fmt.Errorf("sweep: CostPerElem %v is not a finite positive cost", g.CostPerElem)
	}
	if g.CPNode >= minRanks {
		return fmt.Errorf("sweep: CP node %d outside smallest world (%d ranks)", g.CPNode, minRanks)
	}
	if g.Rows < 8 || g.Cols < 8 || g.Iters < 1 {
		return fmt.Errorf("sweep: degenerate workload %dx%dx%d", g.Rows, g.Cols, g.Iters)
	}
	if g.RingCap < 1 {
		return fmt.Errorf("sweep: RingCap %d < 1 (every cell folds its world's telemetry ring)", g.RingCap)
	}
	return nil
}

// ParseSpec overlays a -grid specification onto g. The spec is a
// semicolon-separated list of key=value(,value...) entries; axis keys take
// comma-separated lists, workload keys take a single value:
//
//	scen=jacobi,sor;ranks=4,8;gp=3,5;overlap=0,1;fault=none,crash;rep=0,1;rma=0,1;resize=none,grow,growskew
//	rows=96;cols=96;iters=30;cost=10000;cpnode=1;cpcycle=10;crashnode=2;crashcycle=12;resizecycle=18;resizeadd=1
//
// Unknown keys are an error; unmentioned keys keep their current values.
func (g *Grid) ParseSpec(spec string) error {
	for _, kv := range strings.Split(spec, ";") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return fmt.Errorf("sweep: bad -grid entry %q (want key=value)", kv)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		var err error
		switch key {
		case "scen":
			g.Scenarios = splitList(val)
		case "ranks":
			g.Ranks, err = intList(val)
		case "gp":
			g.GPs, err = intList(val)
		case "overlap":
			g.Overlaps, err = boolList(val)
		case "fault":
			g.Faults = splitList(val)
		case "rep":
			g.Reps, err = boolList(val)
		case "rma":
			g.RMAs, err = boolList(val)
		case "resize":
			g.Resizes = splitList(val)
		case "rows":
			g.Rows, err = strconv.Atoi(val)
		case "cols":
			g.Cols, err = strconv.Atoi(val)
		case "iters":
			g.Iters, err = strconv.Atoi(val)
		case "cost":
			g.CostPerElem, err = strconv.ParseFloat(val, 64)
		case "cpnode":
			g.CPNode, err = strconv.Atoi(val)
		case "cpcycle":
			g.CPCycle, err = strconv.Atoi(val)
		case "crashnode":
			g.CrashNode, err = strconv.Atoi(val)
		case "crashcycle":
			g.CrashCycle, err = strconv.Atoi(val)
		case "resizecycle":
			g.ResizeCycle, err = strconv.Atoi(val)
		case "resizeadd":
			g.ResizeAdd, err = strconv.Atoi(val)
		default:
			return fmt.Errorf("sweep: unknown -grid key %q", key)
		}
		if err != nil {
			return fmt.Errorf("sweep: bad -grid value for %s: %v", key, err)
		}
	}
	return nil
}

func splitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

func intList(s string) ([]int, error) {
	var out []int
	for _, v := range splitList(s) {
		n, err := strconv.Atoi(v)
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}

func boolList(s string) ([]bool, error) {
	var out []bool
	for _, v := range splitList(s) {
		switch v {
		case "0", "false":
			out = append(out, false)
		case "1", "true":
			out = append(out, true)
		default:
			return nil, fmt.Errorf("want 0/1/true/false, got %q", v)
		}
	}
	return out, nil
}
