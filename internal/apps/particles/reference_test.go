package particles

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/drsd"
	"repro/internal/matrix"
	"repro/internal/mpi"
	"repro/internal/vclock"
)

// referenceStep is stepOnce as it stood before the in-place row editor: every
// row is copied out, cleared, and its stayers re-Appended element by element.
// Kept verbatim (integrate is the shared physics) as the model the editor
// step is tested against: rows, charges and messages must be indistinguishable.
func referenceStep(rt *core.Runtime, ps *matrix.Sparse, cfg Config, sc *scratch) {
	appendParticle := func(g int, pt particle) {
		ps.Append(g, pt.pid, pt.x)
		ps.Append(g, pt.pid, pt.y)
		ps.Append(g, pt.pid, pt.vx)
		ps.Append(g, pt.pid, pt.vy)
	}
	me := rt.Comm().Rank()
	lo, hi := rt.Dist().RangeOf(me)
	if lo >= hi {
		return
	}
	var emUp, emDown []particle
	sc.local = sc.local[:0]
	for g := lo; g < hi; g++ {
		pts := readRow(ps, g, nil)
		ps.ClearRow(g)
		for _, pt := range pts {
			pt.x, pt.y, pt.vx, pt.vy = integrate(pt.x, pt.y, pt.vx, pt.vy, cfg.Dt, float64(cfg.Cols), float64(cfg.Rows))
			ng := int(math.Floor(pt.y))
			switch {
			case ng == g:
				appendParticle(g, pt)
			case ng < lo:
				emUp = append(emUp, pt)
			case ng >= hi:
				emDown = append(emDown, pt)
			default:
				sc.local = append(sc.local, move{g: ng, pt: pt})
			}
		}
		rt.ComputeIter(g, vclock.Duration(float64(len(pts))*cfg.CostPerParticle))
	}
	for _, m := range sc.local {
		appendParticle(m.g, m.pt)
	}
	comm := rt.Comm()
	up, down := -1, -1
	if lo > 0 {
		up = rt.Dist().Owner(lo - 1)
	}
	if hi < cfg.Rows {
		down = rt.Dist().Owner(hi)
	}
	var recvUp, recvDown *mpi.Request
	var sends [2]*mpi.Request
	if up >= 0 {
		recvUp = comm.Irecv(up, migrateTag)
	}
	if down >= 0 {
		recvDown = comm.Irecv(down, migrateTag)
	}
	if up >= 0 {
		sends[0] = comm.Isend(up, migrateTag, emUp, 40*len(emUp)+8)
	}
	if down >= 0 {
		sends[1] = comm.Isend(down, migrateTag, emDown, 40*len(emDown)+8)
	}
	insert := func(pts []particle) {
		for _, pt := range pts {
			appendParticle(int(math.Floor(pt.y)), pt)
		}
	}
	if recvUp != nil {
		p, _ := comm.Wait(recvUp)
		insert(p.([]particle))
	}
	if recvDown != nil {
		p, _ := comm.Wait(recvDown)
		insert(p.([]particle))
	}
	for _, req := range sends {
		if req != nil {
			comm.WaitErr(req) // a send completes at post; waiting recycles it
		}
	}
}

// stepRecord is what one rank looks like after one step: its block, the
// ordered contents of its rows folded into one number, and its node's clock
// and /PROC time.
type stepRecord struct {
	lo, hi int
	rows   uint64
	now    vclock.Time
	cpu    vclock.Duration
}

type tracedRun struct {
	steps    [][]stepRecord // by rank
	checkInt int64
	redists  int
	removed  int
}

// runTraced is Run with the step function a parameter and a record per rank
// per step.
func runTraced(spec cluster.Spec, cfg Config, step func(*core.Runtime, *matrix.Sparse, Config, *scratch)) (tracedRun, error) {
	cl := cluster.New(spec)
	out := tracedRun{steps: make([][]stepRecord, cl.N())}
	var mu sync.Mutex
	err := mpi.Run(cl, func(c *mpi.Comm) error {
		rt := core.New(c, cfg.Core)
		ps := rt.RegisterSparse("P", cfg.Rows)
		ph := rt.InitPhase(cfg.Rows)
		ph.AddAccess("P", drsd.ReadWrite, 1, 0)
		rt.Commit()
		lo, hi := ph.Bounds()
		seedParticles(ps, cfg, c.Size(), lo, hi)
		var sc scratch
		var recs []stepRecord
		for t := 0; t < cfg.Steps; t++ {
			if rt.BeginCycle() {
				step(rt, ps, cfg, &sc)
			}
			rt.EndCycle()
			rec := stepRecord{now: c.Now(), cpu: c.Node().CPUTime()}
			if rt.Participating() {
				rec.lo, rec.hi = ph.Bounds()
				for g := rec.lo; g < rec.hi; g++ {
					rec.rows = rec.rows*1099511628211 + uint64(g)
					for e := ps.RowHead(g); e != nil; e = e.Next() {
						rec.rows = (rec.rows*1099511628211+uint64(e.Col))*1099511628211 + math.Float64bits(e.Val)
					}
				}
			}
			recs = append(recs, rec)
		}
		var check float64
		if rt.Participating() {
			lo, hi = ph.Bounds()
			check = rt.AllreduceSum(localChecksum(ps, lo, hi))
		} else {
			check = rt.AllreduceSum(0)
		}
		rt.Finalize()
		mu.Lock()
		defer mu.Unlock()
		out.steps[c.Rank()] = recs
		out.checkInt = int64(check)
		out.redists = max(out.redists, rt.Redistributions())
		if !rt.Participating() {
			out.removed++
		}
		return nil
	})
	return out, err
}

// compareSteps runs one scenario under both step functions and requires
// every rank's per-step record and the final checksum to be equal.
func compareSteps(t *testing.T, name string, spec cluster.Spec, cfg Config) tracedRun {
	t.Helper()
	got, err := runTraced(spec, cfg, stepOnce)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, err := runTraced(spec, cfg, referenceStep)
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	for r := range want.steps {
		for i := range want.steps[r] {
			if got.steps[r][i] != want.steps[r][i] {
				t.Fatalf("%s: rank %d after step %d:\n got  %+v\n want %+v", name, r, i, got.steps[r][i], want.steps[r][i])
			}
		}
	}
	if got.checkInt != want.checkInt || got.redists != want.redists || got.removed != want.removed {
		t.Fatalf("%s: CheckInt/redists/removed %d/%d/%d, want %d/%d/%d", name,
			got.checkInt, got.redists, got.removed, want.checkInt, want.redists, want.removed)
	}
	return got
}

// Axes of the differential test, one PRNG sub-stream each: a failing seed is
// its own repro.
const (
	axisRanks = iota
	axisGrid
	axisExtra
	axisLoad
	axisMem
)

// TestStepMatchesReference compares the editor step with the pre-editor one
// over random (ranks, grid, imbalance, competing-process timeline, memory
// size) — per step, per rank: block, ordered row contents, clock, /PROC time.
func TestStepMatchesReference(t *testing.T) {
	seeds := uint64(24)
	if testing.Short() {
		seeds = 6
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		root := vclock.NewPRNG(seed)
		ranks, grid, extra := root.Fork(axisRanks), root.Fork(axisGrid), root.Fork(axisExtra)
		load, mem := root.Fork(axisLoad), root.Fork(axisMem)

		n := 1 + ranks.Intn(5)
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.Rows, cfg.Cols, cfg.Steps = 2*n+grid.Intn(40), 4+grid.Intn(20), 25+grid.Intn(30)
		cfg.ExtraAllP0, cfg.ExtraTopP0 = extra.Intn(3), 3*extra.Intn(2)
		// A rank's cycle is some 40 ms, so the 1 s load monitor sees a visitor.
		cfg.CostPerParticle = 40e6 * float64(n) / float64(cfg.Rows*cfg.Cols)
		if load.Intn(2) == 0 {
			cfg.Core.Drop = core.DropNever
		}
		spec := cluster.Uniform(n)
		spec.Seed = seed
		for cp := load.Intn(3); cp > 0; cp-- {
			node, at := load.Intn(n), 2+load.Intn(15)
			spec = spec.With(cluster.CycleEvent(node, at, +1))
			if load.Intn(2) == 0 {
				spec = spec.With(cluster.CycleEvent(node, at+5+load.Intn(15), -1))
			}
		}
		if mem.Intn(2) == 0 {
			// One node pages from the start: its bulk charges take the loop.
			spec.Nodes[mem.Intn(n)].MemBytes = 4096
		}
		compareSteps(t, fmt.Sprintf("seed %d (%d ranks, %dx%d)", seed, n, cfg.Rows, cfg.Cols), spec, cfg)
	}
}

// The two adaptations the generator may or may not hit, pinned: a run that
// redistributes and a run that removes the loaded node.
func TestStepMatchesReferenceAcrossAdaptation(t *testing.T) {
	cfg := testConfig()
	cfg.ExtraAllP0 = 2
	cfg.Core.Drop = core.DropNever
	if r := compareSteps(t, "redistributes", loadedSpec(4, 0, 5), cfg); r.redists == 0 || r.removed != 0 {
		t.Fatalf("scenario broken: %d redistributions, %d ranks removed", r.redists, r.removed)
	}
	cfg.Core.Drop = core.DropAlways
	if r := compareSteps(t, "drops a node", loadedSpec(4, 1, 5), cfg); r.removed == 0 {
		t.Fatal("scenario broken: no rank was removed")
	}
}

// A particle whose row no rank owns must fail the world by name, not vanish
// into an emigrant slice that is never sent; and integrate must not produce
// one: a particle landing exactly on the far wall stays in the last row.
func TestFarWallParticleIsConserved(t *testing.T) {
	cfg := testConfig()
	cfg.Rows, cfg.Cols, cfg.Steps, cfg.CostPerParticle = 8, 4, 3, 100
	cfg.BasePerCell = 0
	run := func(planted particle) (census []float64, err error) {
		err = mpi.Run(cluster.New(cluster.Uniform(2)), func(c *mpi.Comm) error {
			rt := core.New(c, core.Config{Adapt: false})
			ps := rt.RegisterSparse("P", cfg.Rows)
			ph := rt.InitPhase(cfg.Rows)
			ph.AddAccess("P", drsd.ReadWrite, 1, 0)
			rt.Commit()
			lo, hi := ph.Bounds()
			if g := int(planted.y); g >= lo && g < hi {
				appendParticle(ps, g, planted)
			}
			var sc scratch
			for step := 0; step < cfg.Steps; step++ {
				rt.BeginCycle()
				stepOnce(rt, ps, cfg, &sc)
				rt.EndCycle()
				n := rt.AllreduceSum(float64(Census(ps, lo, hi)))
				if c.Rank() == 0 {
					census = append(census, n)
				}
			}
			rt.Finalize()
			return nil
		})
		return census, err
	}
	// y + vy*Dt == Rows exactly: 7.5 + 0.5*1.
	cfg.Dt = 1
	census, err := run(particle{pid: 1, x: 3.5, y: 7.5, vx: 0.5, vy: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(census, []float64{1, 1, 1}) {
		t.Fatalf("census per step %v, want the one particle every step", census)
	}
	// Too fast for one bounce to bring back (|vy|*Dt must stay below a row):
	// it ends above row 0, where rank 0 has no neighbour. A named failure.
	_, err = run(particle{pid: 42, x: 1, y: 0.5, vx: 0, vy: -100})
	if err == nil || !strings.Contains(err.Error(), "pid:42") {
		t.Fatalf("lost particle: err = %v, want one naming pid 42", err)
	}
}

// A row that is not whole particles is a named panic, not a nil dereference.
func TestRaggedRowPanicsByName(t *testing.T) {
	s := matrix.NewSparse("P", 4, nil)
	s.SetWindow(0, 4)
	appendParticle(s, 2, particle{pid: 1})
	s.Append(2, 9, 1)
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "P row 2 holds 5 elements") {
			t.Fatalf("panic %q does not name the row", msg)
		}
	}()
	readRow(s, 2, nil)
}
