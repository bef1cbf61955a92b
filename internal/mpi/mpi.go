// Package mpi is a pure-Go message-passing substrate with MPI-like
// semantics, used as the transport underneath the Dyn-MPI runtime. Ranks
// are goroutines inside one process; messages carry real data; every
// operation advances the virtual clocks of the participating nodes
// according to the cluster's network model.
//
// Cost model (see cluster.NetParams): a message of b bytes is available to
// the receiver Latency + b/BytesPerSec after the send; in addition each
// side spends CPUPerMsg + b*CPUPerByte of CPU. The CPU component runs under
// the node's scheduler and is therefore inflated by competing processes —
// the effect that makes communication-aware data distributions necessary.
//
// Point-to-point operations are eager (buffered): Send completes once the
// local CPU work is done; Recv blocks until a matching message is available
// on the virtual clock. Collectives operate on a Group (a subset of world
// ranks) and leave all participants at a common completion time; each
// collective is priced by the tree-shaped algorithm it models (see
// cost.go) and executed by the sharded rendezvous engine (see engine.go).
package mpi

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/vclock"
)

// AnySource matches a message from any sender in Recv.
const AnySource = -1

// AnyTag matches a message with any tag in Recv.
const AnyTag = -1

// errFailed is the panic value used to unwind ranks when the world has
// failed; Run converts it back into the original error.
var errFailed = errors.New("mpi: world failed")

// envelope is one in-flight message. Envelopes are stored by value in the
// mailbox's queue, so the steady-state send path performs no heap
// allocation.
type envelope struct {
	src, tag int
	payload  any
	bytes    int
	avail    vclock.Time // when the data has fully arrived at the receiver
}

// boxStore is where a mailbox's two lists start: one allocation made the
// first time a message waits in the mailbox or a receive is posted on it (a
// rank that only takes part in collectives never pays for it). Four
// envelopes is the most any bench workload queues in one mailbox; past
// four, either list grows by append.
type boxStore struct {
	queue  [4]envelope
	posted [4]*Request
}

// mailbox is one rank's incoming message store: the two lists an MPI
// matching engine keeps. Only the owning rank's goroutine receives from a
// mailbox. A receive takes the oldest queued envelope its (src,tag) pattern
// matches — FIFO per (src,tag), the earliest arrival for a wildcard. A
// receive that finds no queued match is posted, and a sender fills the
// first posted request whose pattern matches; the owner parks on its wake
// channel (World.wake) and is handed a token only when the request it waits
// on is filled, so many senders targeting one receiver with unrelated tags
// never disturb it.
//
// The mailbox also holds its owner's parking state (see resolve.go): asleep
// is set while the owner is parked, and its wait is reqWait or opWait.
type mailbox struct {
	mu sync.Mutex

	asleep atomic.Bool
	opWait atomic.Pointer[opState]

	// Envelopes no receive has taken yet, in arrival order. nil until the
	// store is made, see storage.
	queue []envelope

	// Receives posted by the owning rank, in post order. Senders fill the
	// first matching entry directly, bypassing the queue; reqWait is the
	// one the owner is parked on, nil while it is not and once it is filled
	// or voided.
	posted  []*Request
	reqWait atomic.Pointer[Request]
}

// storage points both lists at a fresh store unless one was made already.
// Callers hold b.mu.
func (b *mailbox) storage() {
	if b.queue == nil {
		s := new(boxStore)
		b.queue, b.posted = s.queue[:0], s.posted[:0]
	}
}

func matches(e *envelope, src, tag int) bool {
	return (src == AnySource || e.src == src) && (tag == AnyTag || e.tag == tag)
}

// take removes and returns the oldest queued envelope matching (src,tag),
// or ok=false when none is queued. Callers hold b.mu.
func (b *mailbox) take(src, tag int) (envelope, bool) {
	for i := range b.queue {
		if matches(&b.queue[i], src, tag) {
			e := b.queue[i]
			b.queue = slices.Delete(b.queue, i, i+1) // clears the vacated slot for the GC
			return e, true
		}
	}
	return envelope{}, false
}

// World owns the shared state of one simulated run: mailboxes, the default
// all-ranks group, and failure propagation.
//
// A world's capacity is fixed at creation from the cluster's seed size plus
// its arrival capacity. Every per-rank structure (mailboxes, endpoints, dead
// bitmap) is one slice of that capacity, made once and never reallocated, so
// Spawn — which grows the running world into the preallocated slots — is
// race-free with zero cost on the steady-state paths: a send to a
// not-yet-spawned rank simply enqueues into its (empty) mailbox and is
// drained when the joiner starts.
type World struct {
	cl     *cluster.Cluster
	n      int // seed size: ranks [0,n) run from the start
	cap    int // capacity: seed + arrivals; bounds every rank ID
	boxes  []mailbox
	comms  []Comm // rank r's endpoint, initialised by NewComm(r)
	all    *Group
	failed atomic.Bool
	errMu  sync.Mutex
	err    error
	groups struct {
		sync.Mutex
		list  []*Group
		byKey map[string]*Group
	}

	// spawned[i] marks arrival slot n+i as claimed.
	spawned []atomic.Bool

	// SPMD harness state, set by Run so Spawn can launch joiners running
	// the same rank function under the same WaitGroup.
	runFn func(*Comm) error
	runWG sync.WaitGroup

	// Liveness: dead[r] is set once rank r crashes (injected fault).
	// deadCount lets hot paths skip the per-rank check with one atomic
	// load while no rank has died.
	dead      []atomic.Bool
	deadCount atomic.Int32
	flt       *fault.Set // scenario faults; nil when none are injected

	// Quiescence, see resolve.go: live counts the ranks launched and not
	// yet returned, asleep the parked ones. Both change under mu.
	mu     sync.Mutex
	live   int
	asleep int

	// wake[r] is rank r's one parking spot: a capacity-1 channel used as a
	// binary semaphore. A rank blocks in at most one wait at a time — a
	// collective or a receive — so one channel serves every op of every
	// group it is in and every request it posts. A token is handed only by
	// whoever clears the rank's asleep flag, so the channel is empty
	// whenever a rank parks. A token names no op: the rank rechecks what it
	// waits on, so a token from a wake meant for an earlier park is a
	// spurious recheck.
	wake []chan struct{}
}

// NewWorld creates a world with one rank per cluster seed node, plus
// preallocated capacity for every arrival node.
func NewWorld(cl *cluster.Cluster) *World {
	w := &World{cl: cl, n: cl.N(), cap: cl.MaxN(), flt: cl.FaultSet()}
	w.spawned = make([]atomic.Bool, w.cap-w.n)
	w.dead = make([]atomic.Bool, w.cap)
	w.boxes = make([]mailbox, w.cap)
	w.comms = make([]Comm, w.cap)
	w.wake = make([]chan struct{}, w.cap)
	for i := range w.wake {
		w.wake[i] = make(chan struct{}, 1)
	}
	members := make([]int, w.n)
	for i := range members {
		members[i] = i
	}
	w.all = w.NewGroup(members)
	return w
}

// N reports the number of seed ranks (the world size a run starts with).
func (w *World) N() int { return w.n }

// Cap reports the world's rank capacity: seed ranks plus arrival slots.
func (w *World) Cap() int { return w.cap }

// Cluster returns the underlying cluster model.
func (w *World) Cluster() *cluster.Cluster { return w.cl }

// fail records the first error and wakes every parked rank so the whole
// world unwinds instead of deadlocking: every wait rechecks w.failed after
// each wake and after announcing itself asleep, whatever it was waiting for.
func (w *World) fail(err error) {
	w.errMu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.errMu.Unlock()
	w.failed.Store(true)
	for r := range w.boxes {
		b := &w.boxes[r]
		b.mu.Lock()
		b.reqWait.Store(nil)
		for i := range b.posted { // pending requests are void; everyone unwinds
			b.posted[i] = nil
		}
		b.posted = b.posted[:0]
		b.mu.Unlock()
		w.signal(r)
	}
}

// Err returns the first error recorded by fail.
func (w *World) Err() error {
	w.errMu.Lock()
	defer w.errMu.Unlock()
	return w.err
}

// Comm is one rank's endpoint. All methods must be called from the rank's
// own goroutine.
type Comm struct {
	w    *World
	rank int
	node *cluster.Node

	// Traffic counters, maintained by this rank only.
	SentMsgs, SentBytes int64
	RecvMsgs, RecvBytes int64

	// RecvStall accumulates the receive-side stall: for every blocking
	// Recv and every request Wait, the span the clock had to jump forward
	// to reach the message's arrival stamp. Zero when the data was already
	// there. The redistribution stall metric is a delta of this counter.
	RecvStall vclock.Duration

	// HiddenWire accumulates the wire time the nonblocking layer hid
	// behind this rank's compute: for each credited Wait, the in-flight
	// span between post and arrival minus the part the caller actually
	// stalled on. Telemetry reports it per cycle as HiddenWireNs.
	HiddenWire vclock.Duration

	// reqFree is the rank-local nonblocking request pool (see request.go),
	// on reqArr until more than that many requests are free at once.
	reqFree []*Request
	reqArr  [4]*Request

	// sbuf is a pinned scratch vector for the scalar collectives
	// (AllreduceSum/Max, AllgatherF64sInto), so depositing a scalar into a
	// collective performs no per-op allocation. Safe because every Comm
	// method runs on the rank's own goroutine and each collective copies
	// its result out before returning.
	sbuf [1]float64

	// lastGroup/lastSlot cache this rank's slot in the most recently used
	// group, so the steady state (the same group every cycle) resolves its
	// slot without a map lookup. See groupSlot in engine.go.
	lastGroup *Group
	lastSlot  int

	// flt is this rank's injected-fault state; nil when the scenario has
	// no faults for this node, which keeps the hot-path cost to one nil
	// check per operation.
	flt *fault.NodeState

	// bufFree is the rank-local free list of float64 message buffers.
	// Ownership moves with the message: SendF64s/IsendF64s copy the caller's
	// values into a buffer popped here (or a fresh one), the envelope carries
	// it to the receiver, and the receiver — the only holder from then on —
	// pushes it onto its own list with ReleaseF64s. Symmetric traffic (a halo
	// exchange) therefore circulates a handful of buffers and allocates
	// nothing; a buffer sent to a dead rank is simply dropped with its
	// envelope. No lock: every Comm method runs on the rank's own goroutine,
	// and the mailbox mutex orders the sender's fill before the receiver's
	// reads. The list lives on bufArr: maxBufFree bounds it.
	bufFree []*F64Msg
	bufArr  [maxBufFree]*F64Msg
}

// NewComm returns rank r's endpoint, the world's one per rank. Typically Run
// constructs these.
func (w *World) NewComm(r int) *Comm {
	c := &w.comms[r]
	*c = Comm{w: w, rank: r, node: w.cl.Node(r), flt: w.flt.Node(r)}
	c.reqFree, c.bufFree = c.reqArr[:0], c.bufArr[:0]
	return c
}

// Rank reports this endpoint's world rank.
func (c *Comm) Rank() int { return c.rank }

// Size reports the seed world size (the rank count the run started with).
func (c *Comm) Size() int { return c.w.n }

// Spawned reports whether this rank joined after the seed world started
// (its rank ID lies beyond the seed size). Joiners bootstrap their runtime
// state from the membership protocol instead of the SPMD initial state.
func (c *Comm) Spawned() bool { return c.rank >= c.w.n }

// Node returns the cluster node this rank runs on.
func (c *Comm) Node() *cluster.Node { return c.node }

// World returns the communicator's world.
func (c *Comm) World() *World { return c.w }

// Now reports the rank's current virtual time.
func (c *Comm) Now() vclock.Time { return c.node.Now() }

func (c *Comm) checkFailed() {
	if c.w.failed.Load() {
		panic(errFailed)
	}
}

// cpuCost returns the per-side CPU cost of transferring b bytes.
func cpuCost(net cluster.NetParams, b int) vclock.Duration {
	return net.CPUPerMsg + vclock.Duration(float64(b)*net.CPUPerByte)
}

// wireTime returns the latency+bandwidth component for b bytes.
func wireTime(net cluster.NetParams, b int) vclock.Duration {
	return net.Latency + vclock.FromSeconds(float64(b)/net.BytesPerSec)
}

// Send transfers payload (bytes long on the wire) to rank dst with the
// given tag. The payload is handed over by reference: the sender must not
// mutate it afterwards (ownership transfer, as in a zero-copy MPI).
func (c *Comm) Send(dst, tag int, payload any, bytes int) {
	c.inject("send", dst, tag, payload, bytes)
}

// F64Msg is a float64 message buffer, the payload of SendF64s/IsendF64s.
// It travels by pointer, so the envelope carries it without boxing a slice
// header and without growing (a slice field would take the 48-byte envelope
// to 72 bytes and cost every message, typed or not, a duffcopy per hop).
type F64Msg struct {
	Vals []float64
}

// SendF64s is Send with MPI's eager-copy contract for a float64 vector: vals
// is copied into a recycled message buffer before the call returns, so the
// caller may overwrite it immediately. Wire size, virtual cost and matching
// are those of Send(dst, tag, vals, F64Bytes(len(vals))); the receiver takes
// the message with RecvF64sErr (or WaitF64sErr) and hands the buffer back
// with ReleaseF64s; an untyped receive sees the *F64Msg itself.
func (c *Comm) SendF64s(dst, tag int, vals []float64) {
	c.inject("send", dst, tag, c.copyBuf(vals), F64Bytes(len(vals)))
}

// inject is the send half shared by the blocking and nonblocking sends: it
// charges the CPU injection cost, stamps the arrival time, delivers the
// envelope and returns that stamp.
func (c *Comm) inject(op string, dst, tag int, payload any, bytes int) vclock.Time {
	c.checkFailed()
	if dst < 0 || dst >= c.w.cap {
		panic(fmt.Sprintf("mpi: %s to invalid rank %d", op, dst))
	}
	if tag < 0 {
		panic(fmt.Sprintf("mpi: %s with invalid tag %d", op, tag))
	}
	var faultDelay vclock.Duration
	if c.flt != nil {
		c.pollFaults()
		faultDelay = c.messageFault(dst)
	}
	net := c.w.cl.Net()
	c.node.Compute(cpuCost(net, bytes))
	env := envelope{
		src:     c.rank,
		tag:     tag,
		payload: payload,
		bytes:   bytes,
		avail:   c.node.Now().Add(wireTime(net, bytes) + faultDelay),
	}
	c.SentMsgs++
	c.SentBytes += int64(bytes)
	c.w.deliver(dst, env)
	return env.avail
}

// maxBufFree bounds a rank's message-buffer free list. Symmetric traffic
// settles at two to four entries; the cap only matters to a rank that
// receives more than it sends (a gather root), whose surplus goes to the GC.
const maxBufFree = 8

// copyBuf returns a message buffer holding a copy of vals, recycled from the
// rank's free list when there is one.
func (c *Comm) copyBuf(vals []float64) *F64Msg {
	var m *F64Msg
	if k := len(c.bufFree); k > 0 {
		m = c.bufFree[k-1]
		c.bufFree[k-1] = nil
		c.bufFree = c.bufFree[:k-1]
	} else {
		m = new(F64Msg)
	}
	if cap(m.Vals) < len(vals) {
		m.Vals = make([]float64, len(vals))
	}
	m.Vals = m.Vals[:len(vals)]
	copy(m.Vals, vals)
	return m
}

// ReleaseF64s hands a buffer returned by RecvF64sErr or WaitF64sErr to this
// rank's free list; the caller must not touch it afterwards.
func (c *Comm) ReleaseF64s(m *F64Msg) {
	if len(c.bufFree) < maxBufFree {
		c.bufFree = append(c.bufFree, m)
	}
}

// asF64Msg unwraps the payload of a float64 send; anything else is a type
// mismatch between the two ends and panics.
func (c *Comm) asF64Msg(p any, st Status) *F64Msg {
	m, ok := p.(*F64Msg)
	if !ok {
		panic(fmt.Sprintf("mpi: rank %d expected a float64 send from %d tag %d, got %T", c.rank, st.Source, st.Tag, p))
	}
	return m
}

// deliver hands env to dst's mailbox. The first posted receive whose pattern
// matches the envelope — in post order, wildcards included — is filled
// directly, bypassing the queue, and the owner is woken when it is parked
// on that request; otherwise the envelope is queued. This preserves
// FIFO order per (src,tag): a receive is only posted on a queue miss, so a
// posted request never coexists with an older queued match.
//
// Envelopes addressed to a dead rank are dropped: nothing will ever receive
// them, and enqueueing them would grow the corpse's mailbox without bound
// (one ping per poll cycle from the rejoin protocol alone). Together with
// Kill's queue purge this keeps a dead rank's mailbox pinned at zero
// regardless of whether a racing send lands before or after the death is
// published.
func (w *World) deliver(dst int, env envelope) {
	if w.deadCount.Load() > 0 && w.dead[dst].Load() {
		return
	}
	box := &w.boxes[dst]
	box.mu.Lock()
	for _, r := range box.posted {
		if matches(&env, r.src, r.tag) {
			removePosted(box, r)
			r.env = env
			r.done = true
			parked := box.reqWait.CompareAndSwap(r, nil)
			box.mu.Unlock()
			if parked {
				w.signal(dst) // outside box.mu: resolve takes it under w.mu
			}
			return
		}
	}
	box.storage()
	box.queue = append(box.queue, env)
	box.mu.Unlock()
}

// Status describes a received message.
type Status struct {
	Source int
	Tag    int
	Bytes  int
}

// Recv blocks until a message matching (src, tag) is available, advances
// the virtual clock to its arrival, charges receive-side CPU, and returns
// the payload. src may be AnySource and tag AnyTag; note that AnySource
// matching order depends on physical goroutine scheduling and is therefore
// only deterministic when at most one candidate sender exists.
//
// If src is a crashed rank and no matching message is queued, or an
// AnySource receive can no longer be filled (see RecvErr), Recv fails the
// whole world (bounded waiting); callers that can survive a dead peer should
// use RecvErr. A receive nothing can ever fill fails the world with a
// *DeadlockError.
func (c *Comm) Recv(src, tag int) (any, Status) {
	p, st, err := c.RecvErr(src, tag)
	c.must(err)
	return p, st
}

// RecvErr is Recv with bounded waiting under failures: when src is dead and
// no matching message is queued, it returns a *RankFailedError (Op "recv")
// instead of blocking forever. It is a posted receive completed at once —
// Irecv plus Wait, wildcards allowed — so it matches and parks exactly as a
// request does. Messages src sent before crashing are still delivered first
// — a crashed rank's sends complete before its death is published (same
// goroutine) — so the error is deterministic; it comes at once, or at the
// next point where no live rank can move (see resolve.go). An AnySource
// receive cannot fail this way, since any live rank could still send; it
// fails at such a point where every parked rank waits in such a receive, so
// no rank is left that could send.
func (c *Comm) RecvErr(src, tag int) (any, Status, error) {
	return c.waitErr(c.post("recv", src, tag), false)
}

// must fails the whole world with a non-nil err, naming this rank, and
// unwinds it: what Recv, Wait, the collectives, Fence and the PSCW calls do
// with the error of their *Err forms.
func (c *Comm) must(err error) {
	if err != nil {
		c.w.fail(fmt.Errorf("rank %d: %w", c.rank, err))
		panic(errFailed)
	}
}

// RecvF64sErr is RecvErr for the message of a SendF64s/IsendF64s: the
// returned buffer belongs to the caller, who copies out of Vals (or lends it
// to a callback) and then hands it to ReleaseF64s so this rank's next
// SendF64s can reuse it.
func (c *Comm) RecvF64sErr(src, tag int) (*F64Msg, error) {
	p, st, err := c.RecvErr(src, tag)
	if err != nil {
		return nil, err
	}
	return c.asF64Msg(p, st), nil
}

// F64Bytes reports the wire size of n float64 values.
func F64Bytes(n int) int { return 8 * n }

// Abort fails the whole world with err and unwinds the calling rank.
func (c *Comm) Abort(err error) {
	c.w.fail(err)
	panic(errFailed)
}

// --- SPMD harness --------------------------------------------------------

// Run spawns one goroutine per cluster node executing fn and waits for all
// of them. The first error (returned or panicked) aborts the whole world.
func Run(cl *cluster.Cluster, fn func(*Comm) error) error {
	w := NewWorld(cl)
	return w.Run(fn)
}

// Run executes fn on every seed rank of an existing world. The function and
// WaitGroup are retained on the world so Spawn can launch joiner ranks
// running the same SPMD body mid-run. Every seed rank is counted live
// before any launches, so an early parker never finds the world quiescent.
func (w *World) Run(fn func(*Comm) error) error {
	w.runFn = fn
	w.live = w.n
	for r := 0; r < w.n; r++ {
		w.launch(r)
	}
	w.runWG.Wait()
	return w.Err()
}

// launch starts rank's goroutine running the world's SPMD function. The
// caller has counted the rank live.
func (w *World) launch(rank int) {
	w.runWG.Add(1)
	go func() {
		defer w.runWG.Done()
		defer w.exit()
		comm := w.NewComm(rank)
		defer func() {
			if p := recover(); p != nil {
				unwound := false
				if err, ok := p.(error); ok {
					// errFailed: unwound by another rank's failure.
					// errCrashed: injected crash, this rank simply stops.
					unwound = errors.Is(err, errFailed) || errors.Is(err, errCrashed)
				}
				if !unwound {
					w.fail(fmt.Errorf("rank %d panicked: %v", rank, p))
				}
			}
			// The world, which holds every Comm, outlives each of its ranks:
			// the others run on and the caller keeps it. Let go of what only
			// this rank used.
			comm.reqFree, comm.bufFree = nil, nil
			clear(comm.reqArr[:])
			clear(comm.bufArr[:])
		}()
		if err := w.runFn(comm); err != nil {
			w.fail(fmt.Errorf("rank %d: %w", rank, err))
		}
	}()
}

// Spawn grows the running world, starting a goroutine for each given rank
// that executes the same SPMD function Run launched the seed ranks with.
// Rank IDs must lie in the arrival capacity [N, Cap), in any order. Spawn is
// idempotent: any running rank may call it, concurrently with others, and a
// rank already spawned is skipped, so each starts exactly once (every member
// that decides a grow spawns, so the spawn survives any caller's death). A
// running caller also guarantees the run's WaitGroup is still held. The new
// ranks' mailboxes already exist — anything sent to them before they start
// is waiting when they do — and their node clocks start at zero, jumping
// forward to the cluster-wide present at their first receive.
func (w *World) Spawn(ranks []int) {
	if w.runFn == nil {
		panic("mpi: Spawn before Run")
	}
	for _, r := range ranks {
		if r < w.n || r >= w.cap {
			panic(fmt.Sprintf("mpi: Spawn rank %d outside arrival capacity [%d,%d)", r, w.n, w.cap))
		}
		if !w.spawned[r-w.n].Swap(true) {
			w.mu.Lock()
			w.live++
			w.mu.Unlock()
			w.launch(r)
		}
	}
}

// QueuedMsgs reports the number of envelopes currently queued in rank's
// mailbox (excluding filled posted requests). Tests use it to assert dead
// ranks' mailboxes do not accrete messages.
func (w *World) QueuedMsgs(rank int) int {
	b := &w.boxes[rank]
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.queue)
}

// --- collectives ---------------------------------------------------------
//
// The Group type, the sharded rendezvous engine, and the orphan-reclaim
// machinery live in engine.go; the per-collective cost model lives in
// cost.go. This section is the public collective API: each entry point
// describes its operation as a collDesc and runs it through the engine.

// rendezvous runs a collective, failing the whole world when a group
// member is dead. The *Err entry points use rendezvousErr directly and
// survive the death instead. Vector ([]float64) contributions are passed
// through vec so the hot collectives never box a slice through an
// interface; everything else travels boxed through contrib.
func (c *Comm) rendezvous(g *Group, contrib any, vec []float64, desc *collDesc, dst []float64) any {
	value, err := c.rendezvousErr(g, contrib, vec, desc, dst)
	c.must(err)
	return value
}

// Barrier synchronises the group.
func (c *Comm) Barrier(g *Group) {
	c.rendezvous(g, nil, nil, &collDesc{kind: opBarrier}, nil)
}

// BarrierErr is Barrier returning an error instead of failing the world
// when a group member is dead.
func (c *Comm) BarrierErr(g *Group) error {
	_, err := c.rendezvousErr(g, nil, nil, &collDesc{kind: opBarrier}, nil)
	return err
}

// bcastRootSlot resolves root to its group slot, panicking (and thereby
// failing the world from inside a rank) when root is not a member.
func (g *Group) bcastRootSlot(root int) int {
	s, ok := g.Slot(root)
	if !ok {
		panic(fmt.Sprintf("mpi: bcast root %d not in group", root))
	}
	return s
}

// BcastErr distributes the root's payload (of the given wire size) to every
// group member and returns it. root is a world rank. When a group member is
// dead it returns an error instead of failing the world; if the root itself
// died the error names it and no payload is delivered.
func (c *Comm) BcastErr(g *Group, root int, payload any, bytes int) (any, error) {
	rootSlot := g.bcastRootSlot(root)
	var contrib any
	if c.rank == root {
		contrib = payload
	}
	return c.rendezvousErr(g, contrib, nil, &collDesc{kind: opBcast, bytes: bytes, rootSlot: rootSlot}, nil)
}

// BcastF64sInto distributes the root's buf contents into every member's buf
// (all members pass same-length buffers; the root's is the source, and a
// member's buf shorter than the root's fails the run). The shared
// intermediate is recycled and each member copies out before releasing the
// op, so the root may overwrite its buffer as soon as the call returns and
// steady-state broadcasts allocate nothing. Wire size and virtual cost are
// identical to BcastErr with an F64Bytes payload.
func (c *Comm) BcastF64sInto(g *Group, root int, buf []float64) {
	rootSlot := g.bcastRootSlot(root)
	var vec []float64
	if c.rank == root {
		vec = buf
	}
	c.rendezvous(g, nil, vec, &collDesc{kind: opBcast, bytes: F64Bytes(len(buf)), rootSlot: rootSlot}, buf)
}

// AllreduceF64sInto reduces buf element-wise across the group and stores the
// result back into buf (which is both this rank's contribution and its
// destination). The contributions are folded in group-slot order, so the
// result is bit-identical on every member and in every run. The shared
// intermediate vector is recycled inside the group, so steady-state
// reductions allocate nothing. buf must not be mutated by the caller until
// the call returns; afterwards the caller owns it fully — nothing retains a
// reference.
func (c *Comm) AllreduceF64sInto(g *Group, buf []float64, op func(a, b float64) float64) {
	c.rendezvous(g, nil, buf, &collDesc{kind: opAllreduce, bytes: F64Bytes(len(buf)), rfn: op, rop: ropOf(op)}, buf)
}

// Sum and Max are common allreduce operators.
func Sum(a, b float64) float64 { return a + b }

// Max returns the larger of a and b (allreduce operator).
func Max(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// sumPC/maxPC identify the package's well-known operators by code pointer,
// so the reduction loop can run direct arithmetic instead of an indirect
// call per element (the dominant per-element cost; see foldInto in
// engine.go). Unknown operators take the general path unchanged.
var (
	sumPC = reflect.ValueOf(Sum).Pointer()
	maxPC = reflect.ValueOf(Max).Pointer()
)

func ropOf(op func(a, b float64) float64) uint8 {
	switch reflect.ValueOf(op).Pointer() {
	case sumPC:
		return ropSum
	case maxPC:
		return ropMax
	}
	return ropCustom
}

// AllreduceSum reduces a single value by summation.
func (c *Comm) AllreduceSum(g *Group, v float64) float64 {
	c.sbuf[0] = v
	c.rendezvous(g, nil, c.sbuf[:], &collDesc{kind: opAllreduce, bytes: 8, rfn: Sum, rop: ropSum}, c.sbuf[:])
	return c.sbuf[0]
}

// AllreduceMax reduces a single value by maximum.
func (c *Comm) AllreduceMax(g *Group, v float64) float64 {
	c.sbuf[0] = v
	c.rendezvous(g, nil, c.sbuf[:], &collDesc{kind: opAllreduce, bytes: 8, rfn: Max, rop: ropMax}, c.sbuf[:])
	return c.sbuf[0]
}

// AllreduceF64sIntoErr is AllreduceF64sInto returning an error instead of
// failing the world when a group member is dead. On error buf is untouched
// (the copy-out happens only on success), so the caller may retry.
func (c *Comm) AllreduceF64sIntoErr(g *Group, buf []float64, op func(a, b float64) float64) error {
	_, err := c.rendezvousErr(g, nil, buf, &collDesc{kind: opAllreduce, bytes: F64Bytes(len(buf)), rfn: op, rop: ropOf(op)}, buf)
	return err
}

// AllreduceSumErr is AllreduceSum returning an error instead of failing the
// world when a group member is dead.
func (c *Comm) AllreduceSumErr(g *Group, v float64) (float64, error) {
	c.sbuf[0] = v
	if _, err := c.rendezvousErr(g, nil, c.sbuf[:], &collDesc{kind: opAllreduce, bytes: 8, rfn: Sum, rop: ropSum}, c.sbuf[:]); err != nil {
		return 0, err
	}
	return c.sbuf[0], nil
}

// AllreduceMaxErr is AllreduceMax returning an error instead of failing the
// world when a group member is dead.
func (c *Comm) AllreduceMaxErr(g *Group, v float64) (float64, error) {
	c.sbuf[0] = v
	if _, err := c.rendezvousErr(g, nil, c.sbuf[:], &collDesc{kind: opAllreduce, bytes: 8, rfn: Max, rop: ropMax}, c.sbuf[:]); err != nil {
		return 0, err
	}
	return c.sbuf[0], nil
}

// AllgatherErr collects every member's contribution, ordered by group slot,
// on every member. bytes is the wire size of one contribution. When a group
// member is dead it returns an error instead of failing the world.
func (c *Comm) AllgatherErr(g *Group, contrib any, bytes int) ([]any, error) {
	res, err := c.rendezvousErr(g, contrib, nil, &collDesc{kind: opAllgather, bytes: bytes}, nil)
	if err != nil {
		return nil, err
	}
	return res.([]any), nil
}

// AllgatherF64sInto gathers one float64 per member, ordered by slot, into
// dst (which must have length >= the group size: a shorter dst fails the
// run before anything is deposited). Contributions travel through the
// rank's pinned scratch and the shared result vector is recycled with
// copy-out-before-release semantics (the same contract as BcastF64sInto),
// so steady-state gathers perform no boxing and no allocation. Wire size and
// virtual cost are identical to an 8-byte AllgatherErr.
func (c *Comm) AllgatherF64sInto(g *Group, v float64, dst []float64) {
	c.must(c.AllgatherF64sIntoErr(g, v, dst))
}

// AllgatherF64sIntoErr is AllgatherF64sInto returning an error instead of
// failing the world when a group member is dead. On error dst is untouched,
// so the caller may retry over a rebuilt group.
func (c *Comm) AllgatherF64sIntoErr(g *Group, v float64, dst []float64) error {
	if len(dst) < len(g.members) {
		panic(fmt.Sprintf("mpi: %s destination has length %d, want %d", kindNames[opAllgatherF64], len(dst), len(g.members)))
	}
	c.sbuf[0] = v
	_, err := c.rendezvousErr(g, nil, c.sbuf[:], &collDesc{kind: opAllgatherF64, bytes: 8}, dst)
	return err
}

// Gather collects contributions on root (world rank); root receives the
// slot-ordered slice, everyone else nil. Unlike Allgather it is priced as a
// root-terminated binomial gather — only n-1 contribution blocks cross the
// wire in total (see gatherCost) — and non-root members are handed nil
// without a copy of the gathered slice.
func (c *Comm) Gather(g *Group, root int, contrib any, bytes int) []any {
	rootSlot, ok := g.Slot(root)
	if !ok {
		panic(fmt.Sprintf("mpi: gather root %d not in group", root))
	}
	res := c.rendezvous(g, contrib, nil, &collDesc{kind: opGather, bytes: bytes, rootSlot: rootSlot}, nil)
	if res == nil {
		return nil
	}
	return res.([]any)
}
