// Package dmpic is a compatibility layer exposing the paper's exact C-style
// Dyn-MPI interface (Figure 2): DMPI_init, DMPI_register_dense_array,
// DMPI_register_sparse_array, DMPI_init_phase, DMPI_add_array_access,
// DMPI_get_start_iter / DMPI_get_end_iter, DMPI_participating,
// DMPI_get_rel_rank, DMPI_get_num_active, and DMPI_Send / DMPI_Recv.
//
// A faithful detail: the paper's programs contain no explicit
// begin-of-cycle call — the runtime hooks the phase-cycle boundary into the
// loop-bounds query. This layer does the same: the first
// DMPI_get_start_iter of each phase cycle closes the previous cycle and
// opens the next (running the load check and any adaptation), exactly as
// the example program in Figure 2 expects.
//
// Method names intentionally keep the paper's underscore style; idiomatic
// Go callers should use package dynmpi instead.
package dmpic

import (
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/drsd"
	"repro/internal/matrix"
	"repro/internal/mpi"
	"repro/internal/vclock"
)

// Distribution and access-mode constants mirroring the paper's macros.
const (
	DMPI_BLOCK = 0 // the only initial distribution the runtime materialises

	DMPI_READ      = drsd.Read
	DMPI_WRITE     = drsd.Write
	DMPI_READWRITE = drsd.ReadWrite
)

// DMPI_NEAREST_NEIGHBOR is the phase communication-pattern tag from
// Figure 2; it is documentation only (the DRSDs carry the information the
// runtime actually uses).
const DMPI_NEAREST_NEIGHBOR = 1

// P is one rank's Dyn-MPI context — the implicit global state a C program
// would hold after DMPI_init.
type P struct {
	rt        *core.Runtime
	phase     *core.Phase
	cycleOpen bool
	part      bool
}

// Run launches an SPMD program over the given simulated cluster; fn
// receives each rank's context after DMPI_init has run. It returns what is
// wrong with cfg (core.Config.Validate) or spec (cluster.Spec.Validate)
// before any rank starts.
func Run(spec cluster.Spec, cfg core.Config, fn func(p *P) error) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	cl, err := cluster.Build(spec)
	if err != nil {
		return err
	}
	return mpi.Run(cl, func(c *mpi.Comm) error {
		return fn(&P{rt: core.New(c, cfg)})
	})
}

// DMPI_init mirrors the paper's initialisation call. numProcessors is
// checked against the launch configuration; dist must be DMPI_BLOCK.
func (p *P) DMPI_init(numProcessors, numPhases, numDims, dist int) {
	if numProcessors != p.rt.Comm().Size() {
		panic("dmpic: DMPI_init processor count does not match the launched world")
	}
	if dist != DMPI_BLOCK {
		panic("dmpic: only DMPI_BLOCK initial distributions are materialised")
	}
}

// DMPI_register_dense_array registers an N-d dense array projected onto
// (rows × rowLen) extended rows.
func (p *P) DMPI_register_dense_array(name string, rows, rowLen int) *matrix.Dense {
	return p.rt.RegisterDense(name, rows, rowLen)
}

// DMPI_register_sparse_array registers a sparse array in the
// vector-of-lists format.
func (p *P) DMPI_register_sparse_array(name string, rows int) *matrix.Sparse {
	return p.rt.RegisterSparse(name, rows)
}

// DMPI_init_phase declares a phase over iterations [1..n] in the paper's
// inclusive style; internally the space is [0..n).
func (p *P) DMPI_init_phase(n, pattern int) {
	_ = pattern
	p.phase = p.rt.InitPhase(n)
}

// DMPI_add_array_access declares one array reference of the partitioned
// loop (a deferred regular section descriptor).
func (p *P) DMPI_add_array_access(name string, mode drsd.Mode, step, off int) {
	p.phase.AddAccess(name, mode, step, off)
}

// DMPI_commit finalises registration so arrays can be filled before the
// first cycle (implicit in the paper's first bounds query; explicit here
// so initial data can be written).
func (p *P) DMPI_commit() { p.rt.Commit() }

// DMPI_get_start_iter returns this rank's first iteration. Its first call
// per phase cycle is the cycle boundary: the previous cycle is closed and
// the runtime's per-cycle machinery (load check, grace measurement,
// redistribution, drop, rejoin) runs.
func (p *P) DMPI_get_start_iter() int {
	if p.cycleOpen {
		p.rt.EndCycle()
	}
	p.part = p.rt.BeginCycle()
	p.cycleOpen = true
	lo, _ := p.phase.Bounds()
	return lo
}

// DMPI_get_end_iter returns one past this rank's last iteration (the
// paper's inclusive end_iter corresponds to this value minus one).
func (p *P) DMPI_get_end_iter() int {
	_, hi := p.phase.Bounds()
	return hi
}

// DMPI_participating reports whether this rank takes part in the current
// cycle (false once physically removed).
func (p *P) DMPI_participating() bool { return p.part }

// DMPI_get_rel_rank returns the rank's current relative rank.
func (p *P) DMPI_get_rel_rank() int { return p.rt.RelRank() }

// DMPI_get_num_active returns the number of participating nodes.
func (p *P) DMPI_get_num_active() int { return p.rt.NumActive() }

// DMPI_Send sends to a relative rank.
func (p *P) DMPI_Send(data []float64, relDst, tag int) {
	buf := append([]float64(nil), data...)
	p.rt.SendRel(relDst, tag, buf, mpi.F64Bytes(len(buf)))
}

// DMPI_Recv receives a []float64 from a relative rank.
func (p *P) DMPI_Recv(relSrc, tag int) []float64 {
	v, _ := p.rt.RecvRelF64s(relSrc, tag)
	return v
}

// DMPI_work charges the computation of iteration g (a substrate necessity:
// on the simulated cluster, CPU cost is declared rather than consumed).
func (p *P) DMPI_work(g int, cost vclock.Duration) { p.rt.ComputeIter(g, cost) }

// DMPI_finalize completes the run (closing the last cycle).
func (p *P) DMPI_finalize() {
	if p.cycleOpen {
		p.rt.EndCycle()
		p.cycleOpen = false
	}
	p.rt.Finalize()
}

// Runtime exposes the underlying runtime for inspection (tests, traces).
func (p *P) Runtime() *core.Runtime { return p.rt }
