// Package apps provides the shared harness for the four applications the
// paper evaluates (Jacobi iteration, Red-Black SOR, Conjugate Gradient, and
// particle simulation): result collection, distribution-independent
// checksums, and rank statistics.
//
// Every application is written against the Dyn-MPI runtime exactly as the
// paper's Figure 2 prescribes — register arrays, declare accesses, query
// bounds every cycle, communicate via relative ranks — and doubles as its
// own baseline: with Config.Adapt=false the runtime is inert and the
// program behaves like its plain-MPI original.
package apps

import (
	"errors"
	"sync"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/vclock"
)

// ErrNoJoiner is what an application without mid-run joiner support (cg,
// particles) returns from a rank spawned by elastic growth: re-running its
// body from cycle 0 would diverge from the world's collectives and hang it.
var ErrNoJoiner = errors.New("mid-run joiners are not supported")

// RankStats captures one rank's end-of-run state.
type RankStats struct {
	Rank      int
	Removed   bool
	Crashed   bool // rank died to an injected fault and never reported
	Redists   int
	Finish    vclock.Time
	SentBytes int64
	SentMsgs  int64
	// RefreshStall is the cumulative virtual stall this rank's replica
	// refreshes cost it (paired receives, or epoch settlements under
	// one-sided refresh); the RMA study compares it across modes.
	RefreshStall vclock.Duration
}

// Result is the outcome of one application run.
type Result struct {
	// Elapsed is the makespan: the latest finish time across ranks, in
	// seconds of virtual time.
	Elapsed float64
	// Checksum is a distribution-independent float checksum of the final
	// data (bit-identical across adaptive and non-adaptive runs for the
	// dense applications).
	Checksum float64
	// CheckInt is an order-independent integer checksum (used by the
	// particle simulation, where float summation order would vary).
	CheckInt int64
	// Redists is the number of redistributions performed.
	Redists int
	// Stats holds per-rank details, indexed by world rank.
	Stats []RankStats
}

// Collector gathers per-rank results inside an mpi.Run closure.
type Collector struct {
	mu    sync.Mutex
	stats map[int]RankStats
	sums  map[int]float64
	ints  map[int]int64
}

// NewCollector creates a result collector for n ranks.
func NewCollector() *Collector {
	return &Collector{stats: map[int]RankStats{}, sums: map[int]float64{}, ints: map[int]int64{}}
}

// Run runs one application world: every rank of cl builds a runtime
// configured by cfg, runs body — which registers the rank's arrays, runs its
// cycles and returns its checksums (see Result) — then finalizes and reports
// to one Collector, whose Result is the world's. A cfg that fails
// core.Config.Validate is returned before any rank starts.
func Run(cl *cluster.Cluster, cfg core.Config, body func(rt *core.Runtime) (checksum float64, checkInt int64, err error)) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	col := NewCollector()
	err := mpi.Run(cl, func(c *mpi.Comm) error {
		rt := core.New(c, cfg)
		sum, check, err := body(rt)
		if err != nil {
			return err
		}
		rt.Finalize()
		col.Report(rt, sum, check)
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	return col.Result(cl.MaxN()), nil
}

// Report records one finalized rank's final state (call once per rank).
func (c *Collector) Report(rt *core.Runtime, checksum float64, checkInt int64) {
	comm := rt.Comm()
	st := RankStats{
		Rank:         comm.Rank(),
		Removed:      !rt.Participating(),
		Redists:      rt.Redistributions(),
		Finish:       comm.Now(),
		SentBytes:    comm.SentBytes,
		SentMsgs:     comm.SentMsgs,
		RefreshStall: rt.ReplicaStall(),
	}
	c.mu.Lock()
	c.stats[st.Rank] = st
	c.sums[st.Rank] = checksum
	c.ints[st.Rank] = checkInt
	c.mu.Unlock()
}

// Result assembles the final Result after mpi.Run returns.
func (c *Collector) Result(n int) Result {
	var r Result
	r.Stats = make([]RankStats, n)
	for i := 0; i < n; i++ {
		st, reported := c.stats[i]
		if !reported {
			// The rank died to an injected crash before reaching Report. A
			// zero-value entry would masquerade as a participant and wipe
			// the checksum with its zero.
			r.Stats[i] = RankStats{Rank: i, Crashed: true}
			continue
		}
		r.Stats[i] = st
		if st.Finish > 0 {
			if s := st.Finish.Seconds(); s > r.Elapsed {
				r.Elapsed = s
			}
		}
		if st.Redists > r.Redists {
			r.Redists = st.Redists
		}
		if !st.Removed {
			// All participants computed the same checksum; take any.
			r.Checksum = c.sums[i]
			r.CheckInt = c.ints[i]
		}
	}
	return r
}

// OrderedChecksum computes a checksum of per-row values summed in global
// row order, independent of how rows are distributed: each rank deposits
// only its owned rows [lo,hi), the collective adds them into one zero vector
// of n rows (x+0 == x, so each row keeps its bits), and the final sum runs
// over that one shared vector in a fixed order on every rank.
func OrderedChecksum(rt *core.Runtime, n int, lo, hi int, rowVal func(g int) float64) float64 {
	rows := make([]float64, hi-lo)
	for g := lo; g < hi; g++ {
		rows[g-lo] = rowVal(g)
	}
	s := 0.0
	for _, v := range rt.AllreduceSumSeg(n, lo, rows) {
		s += v
	}
	return s
}

// HaloExchange performs the standard nearest-neighbour boundary exchange
// for a block distribution: each rank sends its first owned row up and its
// last owned row down, receiving the adjacent ghosts. rowOf must return the
// (resident) row g to send; store is called with received ghost rows. The
// row passed to store is a message buffer, valid only during the call: store
// must copy what it keeps. Ranks owning no rows neither send nor receive.
// tag is a user tag (see core.CheckUserTag).
func HaloExchange(rt *core.Runtime, tag int, n int, rowOf func(g int) []float64, store func(g int, row []float64)) {
	core.CheckUserTag(tag)
	lo, hi, up, down := haloNeighbours(rt, n)
	if lo >= hi {
		return
	}
	comm := rt.Comm()
	// The sends copy the outgoing rows: the sender may overwrite a boundary
	// row (SOR updates it in the very next half-phase) while the receiver is
	// still reading the message.
	if up >= 0 {
		comm.SendF64s(up, tag, rowOf(lo))
	}
	if down >= 0 {
		comm.SendF64s(down, tag, rowOf(hi-1))
	}
	// A dead neighbour cannot ship its boundary row; keep the stale ghost
	// (the runtime's recovery pass re-partitions at the next cycle
	// boundary, after which neighbours are live again).
	if up >= 0 {
		msg, err := comm.RecvF64sErr(up, tag)
		lendGhost(comm, lo-1, msg, err, store)
	}
	if down >= 0 {
		msg, err := comm.RecvF64sErr(down, tag)
		lendGhost(comm, hi, msg, err, store)
	}
}

// lendGhost hands a received ghost row to store for the duration of the call
// and then returns the message buffer to the rank's free list. A failed
// receive (dead neighbour) stores nothing.
func lendGhost(comm *mpi.Comm, g int, msg *mpi.F64Msg, err error, store func(g int, row []float64)) {
	if err == nil {
		store(g, msg.Vals)
		comm.ReleaseF64s(msg)
	}
}

// HaloStep runs one half-phase of a block-distributed stencil on the owned
// rows [lo,hi): compute(lo, hi) produces rows and charges them, and the halo
// exchange on tag ships the boundary rows and stores the ghosts (rowOf and
// store as for HaloExchange). Overlapped, the boundary rows are computed
// first, so they ship while the interior computes over the in-flight wire
// time; row order within a half-phase must therefore be free.
func HaloStep(rt *core.Runtime, tag, n, lo, hi int, overlap bool, compute func(lo, hi int), rowOf func(g int) []float64, store func(g int, row []float64)) {
	if !overlap {
		compute(lo, hi)
		HaloExchange(rt, tag, n, rowOf, store)
		return
	}
	if lo < hi {
		compute(lo, lo+1)
		if hi-1 > lo {
			compute(hi-1, hi)
		}
	}
	HaloExchangeOverlap(rt, tag, n, rowOf, store, func() { compute(lo+1, hi-1) })
}

// haloNeighbours returns this rank's owned range and, when it is not empty,
// the world ranks owning the rows adjacent to it (-1 at the grid edge). A
// rank that does not take part — removed, or owning no rows — gets an empty
// range.
func haloNeighbours(rt *core.Runtime, n int) (lo, hi, up, down int) {
	if !rt.Participating() {
		return 0, 0, -1, -1
	}
	lo, hi = rt.Dist().RangeOf(rt.Comm().Rank())
	up, down = -1, -1
	if lo >= hi {
		return lo, hi, up, down
	}
	if lo > 0 {
		up = rt.Dist().Owner(lo - 1)
	}
	if hi < n {
		down = rt.Dist().Owner(hi)
	}
	return lo, hi, up, down
}

// HaloExchangeOverlap is HaloExchange with communication/computation
// overlap: it posts the ghost receives and Isends copies of the boundary
// rows, charging only the send-side injection CPU, then runs overlap() (the
// work that does not depend on the incoming ghosts — typically the
// interior-row compute) while the wire time elapses in virtual background,
// and then waits for and stores the ghosts. Wire time that elapses behind
// overlap() is free in virtual time and is credited to the rank's
// HiddenWire counter by the Waits. A dead neighbour leaves a stale ghost, as
// in HaloExchange. Callers must compute their boundary rows before calling
// it, since those rows are shipped up front; overlap() runs even on ranks
// that own no rows, so loop structure stays uniform.
func HaloExchangeOverlap(rt *core.Runtime, tag int, n int, rowOf func(g int) []float64, store func(g int, row []float64), overlap func()) {
	core.CheckUserTag(tag)
	lo, hi, up, down := haloNeighbours(rt, n) // up and down are -1 on a rank owning no rows
	comm := rt.Comm()
	var recvUp, recvDown, sendUp, sendDown *mpi.Request
	// Ghost receives first, so a neighbour's send fills the posted request
	// directly instead of passing through the mailbox queue.
	if up >= 0 {
		recvUp = comm.Irecv(up, tag)
	}
	if down >= 0 {
		recvDown = comm.Irecv(down, tag)
	}
	if up >= 0 {
		sendUp = comm.IsendF64s(up, tag, rowOf(lo))
	}
	if down >= 0 {
		sendDown = comm.IsendF64s(down, tag, rowOf(hi-1))
	}
	if overlap != nil {
		overlap()
	}
	if recvUp != nil {
		msg, err := comm.WaitF64sErr(recvUp)
		lendGhost(comm, lo-1, msg, err, store)
	}
	if recvDown != nil {
		msg, err := comm.WaitF64sErr(recvDown)
		lendGhost(comm, hi, msg, err, store)
	}
	// Send requests complete at post; waiting only recycles them.
	if sendUp != nil {
		comm.WaitErr(sendUp)
	}
	if sendDown != nil {
		comm.WaitErr(sendDown)
	}
}
