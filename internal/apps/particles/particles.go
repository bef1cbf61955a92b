// Package particles implements the paper's unbalanced application: a
// scaled-down MP3D-style particle simulation (§5.1, §5.4) on an R×C grid
// of cells. Particles advect deterministically and bounce off the domain
// walls; the per-row computation cost is proportional to the number of
// particles currently in the row, so iteration times are nonuniform and
// evolve — the case that forces Dyn-MPI to measure *per-iteration* times
// during the grace period rather than assume uniform work.
//
// The particle population is stored in a registered sparse array: row g
// holds its particles as runs of four (column=pid) elements (x, y, vx, vy),
// so redistribution moves particles together with their rows through the
// standard pack/unpack path. Migration between rows is explicit
// application-level communication with the owners of adjacent rows,
// exactly as an MPI particle code would do it.
//
// Iterations are deliberately far below the 10 ms /PROC granularity, which
// forces the runtime onto min-filtered wallclock timing — the mechanism
// Figure 7 evaluates via the grace-period length.
package particles

import (
	"fmt"
	"math"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/drsd"
	"repro/internal/matrix"
	"repro/internal/mpi"
	"repro/internal/vclock"
)

// Config parameterises a particle run.
type Config struct {
	// Rows, Cols give the cell grid (the paper uses 256x256).
	Rows, Cols int
	// Steps is the number of time steps (phase cycles; the paper uses 200).
	Steps int
	// BasePerCell is the initial particle count per cell (paper: 1-2).
	BasePerCell int
	// ExtraTopP0 adds this many particles per cell in the top half of the
	// rows initially owned by P0 (the Figure 7 "Part" parameter; the §5.1
	// experiment doubles P0's particles, i.e. ExtraTopP0 = 2*BasePerCell
	// over the whole block — use ExtraAllP0 for that).
	ExtraTopP0 int
	// ExtraAllP0 adds particles per cell across all of P0's initial rows
	// (the §5.1 "twice as many particles" configuration).
	ExtraAllP0 int
	// Dt is the integration step; |vy|*Dt must stay below one row.
	Dt float64
	// CostPerParticle is the modelled reference cost of one particle
	// update in nanoseconds.
	CostPerParticle float64
	// Seed drives particle initialisation.
	Seed uint64
	// Core configures the Dyn-MPI runtime.
	Core core.Config
}

// DefaultConfig returns a laptop-scale configuration.
func DefaultConfig() Config {
	return Config{
		Rows: 128, Cols: 128, Steps: 80,
		BasePerCell: 1, Dt: 0.9,
		CostPerParticle: 400, Seed: 11,
		Core: core.DefaultConfig(),
	}
}

const migrateTag = 21

// particle is the in-flight representation during migration.
type particle struct {
	pid          int32
	x, y, vx, vy float64
}

// move is a particle that changed rows without leaving the rank's block.
type move struct {
	g  int
	pt particle
}

// scratch holds one rank's step buffers, kept across steps so the steady
// state allocates nothing for them: the moves between the rank's own rows,
// and the emigrants bound for the rank above and below, encoded for the wire
// (see encodeEmigrant).
type scratch struct {
	local        []move
	emUp, emDown []float64
}

// An emigrant travels as five float64s: pid, x, y, vx, vy (a pid is an
// int32, so it survives the conversion exactly). Slot 0 of a message is a
// header holding the particle count, so k emigrants are F64Bytes(5k+1) =
// 40k+8 bytes on the wire.
const emigrantVals = 5

// encodeEmigrant appends one particle to an emigrant vector and counts it in
// the header.
func encodeEmigrant(buf []float64, pid int32, x, y, vx, vy float64) []float64 {
	buf = append(buf, float64(pid), x, y, vx, vy)
	buf[0]++
	return buf
}

// insertEmigrants appends every particle of a received emigrant message to
// the row it now lies in, in arrival order.
func insertEmigrants(ps *matrix.Sparse, msg []float64) {
	k := int(msg[0])
	if len(msg) != emigrantVals*k+1 {
		panic(fmt.Sprintf("particles: emigrant message of %d values says it holds %d particles", len(msg), k))
	}
	for i := 1; i < len(msg); i += emigrantVals {
		v := msg[i : i+emigrantVals]
		ps.AppendRun(int(math.Floor(v[2])), int32(v[0]), v[1], v[2], v[3], v[4])
	}
}

// Run executes the particle simulation and returns the result. CheckInt is
// an order-independent integer checksum of the final particle states.
func Run(cl *cluster.Cluster, cfg Config) (apps.Result, error) {
	return apps.Run(cl, cfg.Core, func(rt *core.Runtime) (float64, int64, error) {
		ps := rt.RegisterSparse("P", cfg.Rows)
		ph := rt.InitPhase(cfg.Rows)
		ph.AddAccess("P", drsd.ReadWrite, 1, 0)
		rt.Commit()
		if rt.Joined() {
			return 0, 0, fmt.Errorf("particles: %w", apps.ErrNoJoiner)
		}

		lo, hi := ph.Bounds()
		seedParticles(ps, cfg, rt.Comm().Size(), lo, hi)

		var sc scratch
		for t := 0; t < cfg.Steps; t++ {
			if rt.BeginCycle() {
				stepOnce(rt, ps, cfg, &sc)
			}
			rt.EndCycle()
		}

		local := 0.0
		if rt.Participating() {
			lo, hi = ph.Bounds()
			local = localChecksum(ps, lo, hi)
		}
		return 0, int64(rt.AllreduceSum(local)), nil
	})
}

// seedParticles populates this rank's initially owned rows. Particle
// initial state is a pure function of (pid), and pids are a pure function
// of (row, cell, slot), so every distribution seeds identically.
func seedParticles(ps *matrix.Sparse, cfg Config, worldSize, lo, hi int) {
	p0hi := (cfg.Rows + worldSize - 1) / worldSize // P0's initial block
	perCell := func(g int) int {
		n := cfg.BasePerCell
		if g < p0hi {
			n += cfg.ExtraAllP0
			if g < p0hi/2 {
				n += cfg.ExtraTopP0
			}
		}
		return n
	}
	for g := lo; g < hi; g++ {
		for cell := 0; cell < cfg.Cols; cell++ {
			for s := 0; s < perCell(g); s++ {
				pid := int32((g*cfg.Cols+cell)*64 + s)
				rng := vclock.NewPRNG(cfg.Seed).Fork(uint64(pid) + 1)
				pt := particle{
					pid: pid,
					x:   float64(cell) + rng.Float64(),
					y:   float64(g) + rng.Float64(),
					vx:  (rng.Float64() - 0.5) * 2,
					vy:  (rng.Float64() - 0.5), // |vy| < 0.5 rows per unit time
				}
				appendParticle(ps, g, pt)
			}
		}
	}
}

func appendParticle(ps *matrix.Sparse, g int, pt particle) {
	ps.AppendRun(g, pt.pid, pt.x, pt.y, pt.vx, pt.vy)
}

// readRow decodes a row's particles (groups of four elements) into buf,
// overwriting its contents, and returns the possibly regrown buffer. The
// result is a copy: it stays valid after the row is cleared.
func readRow(ps *matrix.Sparse, g int, buf []particle) []particle {
	if n := ps.RowLen(g); n%4 != 0 {
		panic(fmt.Sprintf("particles: %s row %d holds %d elements, not runs of four", ps.Name, g, n))
	}
	out := buf[:0]
	e := ps.RowHead(g)
	for e != nil {
		pt := particle{pid: e.Col, x: e.Val}
		e = e.Next()
		pt.y = e.Val
		e = e.Next()
		pt.vx = e.Val
		e = e.Next()
		pt.vy = e.Val
		e = e.Next()
		out = append(out, pt)
	}
	return out
}

// integrate advances one particle's state by dt, bouncing off the walls of
// the w×h domain: a pure function, bit-identical on whichever rank computes
// it. A bounce off a far wall stays strictly inside (y == h is a row nobody
// owns). Scalars in and out: a 40-byte particle by value goes through memory.
func integrate(x, y, vx, vy, dt, w, h float64) (float64, float64, float64, float64) {
	x += vx * dt
	y += vy * dt
	if x < 0 {
		x, vx = -x, -vx
	}
	if x >= w {
		x, vx = min(2*w-x, math.Nextafter(w, 0)), -vx
	}
	if y < 0 {
		y, vy = -y, -vy
	}
	if y >= h {
		y, vy = min(2*h-y, math.Nextafter(h, 0)), -vy
	}
	return x, y, vx, vy
}

// stepOnce advances every owned particle one time step where it lies: one
// that stays in its row is written back into its own four nodes, one that
// crosses a row boundary is unlinked — local moves are reinserted once every
// row is done; emigrants travel to the owners of the adjacent rows (one
// exchange per neighbour per step, possibly empty; both sides derive the
// pairing from the distribution). A row ends as its stayers in list order,
// then local moves, then immigrants.
func stepOnce(rt *core.Runtime, ps *matrix.Sparse, cfg Config, sc *scratch) {
	comm := rt.Comm()
	lo, hi := rt.Dist().RangeOf(comm.Rank())
	if lo >= hi {
		return
	}
	dt, w, h := cfg.Dt, float64(cfg.Cols), float64(cfg.Rows)
	// IsendF64s copies the emigrant vectors into recycled message buffers
	// at post time, so they are reused from step to step like sc.local.
	sc.emUp, sc.emDown, sc.local = append(sc.emUp[:0], 0), append(sc.emDown[:0], 0), sc.local[:0]
	for g := lo; g < hi; g++ {
		n := ps.RowLen(g) / 4
		ed := ps.EditRow(g)
		for ed.More() {
			var v [4]float64
			pid := ed.Read(v[:])
			x, y, vx, vy := integrate(v[0], v[1], v[2], v[3], dt, w, h)
			ng := int(math.Floor(y))
			if ng == g {
				ed.Keep(x, y, vx, vy)
				continue
			}
			ed.Drop()
			switch {
			case ng < 0 || ng >= cfg.Rows: // no neighbour to go to: say so, do not lose it
				comm.Abort(fmt.Errorf("particles: %+v left the %d-row domain", particle{pid, x, y, vx, vy}, cfg.Rows))
			case ng < lo:
				sc.emUp = encodeEmigrant(sc.emUp, pid, x, y, vx, vy)
			case ng >= hi:
				sc.emDown = encodeEmigrant(sc.emDown, pid, x, y, vx, vy)
			default:
				sc.local = append(sc.local, move{ng, particle{pid, x, y, vx, vy}})
			}
		}
		ed.Settle()
		rt.ComputeIter(g, vclock.Duration(float64(n)*cfg.CostPerParticle))
	}
	for _, m := range sc.local {
		appendParticle(ps, m.g, m.pt)
	}
	// Exchange emigrants with the adjacent block owners.
	up, down := -1, -1
	if lo > 0 {
		up = rt.Dist().Owner(lo - 1)
	}
	if hi < cfg.Rows {
		down = rt.Dist().Owner(hi)
	}
	// Both receives are posted before either send, so the exchange is
	// deadlock-free by construction — it no longer relies on eager
	// buffering absorbing both outgoing messages — and the two directions
	// overlap. The injection charges and arrival stamps are identical to
	// the former Send/Send/Recv/Recv sequence, so virtual timing is
	// unchanged.
	var recvUp, recvDown *mpi.Request
	var sends [2]*mpi.Request
	if up >= 0 {
		recvUp = comm.Irecv(up, migrateTag)
	}
	if down >= 0 {
		recvDown = comm.Irecv(down, migrateTag)
	}
	if up >= 0 {
		sends[0] = comm.IsendF64s(up, migrateTag, sc.emUp)
	}
	if down >= 0 {
		sends[1] = comm.IsendF64s(down, migrateTag, sc.emDown)
	}
	// Wait, not WaitF64sErr: a neighbour that died fails the whole world
	// here, as a blocking receive would.
	insert := func(req *mpi.Request) {
		p, _ := comm.Wait(req)
		msg := p.(*mpi.F64Msg)
		insertEmigrants(ps, msg.Vals)
		comm.ReleaseF64s(msg)
	}
	if recvUp != nil {
		insert(recvUp)
	}
	if recvDown != nil {
		insert(recvDown)
	}
	for _, req := range sends {
		if req != nil {
			comm.WaitErr(req) // a send completes at post; waiting recycles it
		}
	}
}

// localChecksum folds every owned particle into an order-independent
// integer (kept below 2^30 per particle so the float64 allreduce is exact
// up to ~2^53 total).
func localChecksum(ps *matrix.Sparse, lo, hi int) float64 {
	var sum int64
	var pts []particle
	for g := lo; g < hi; g++ {
		pts = readRow(ps, g, pts)
		for _, pt := range pts {
			h := uint64(pt.pid) * 2654435761
			h ^= math.Float64bits(pt.x) * 31
			h ^= math.Float64bits(pt.y) * 37
			h ^= math.Float64bits(pt.vx) * 41
			h ^= math.Float64bits(pt.vy) * 43
			sum += int64(h & (1<<30 - 1))
		}
	}
	return float64(sum)
}

// Census reports the total particle count owned by rows [lo,hi) — used by
// tests to assert conservation.
func Census(ps *matrix.Sparse, lo, hi int) int {
	n := 0
	for g := lo; g < hi; g++ {
		n += ps.RowLen(g) / 4
	}
	return n
}
