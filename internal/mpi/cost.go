package mpi

import (
	"repro/internal/cluster"
	"repro/internal/vclock"
)

// This file is the collective cost model: one named function per collective,
// each charging the wire time and per-member CPU of the tree the virtual
// implementation models. The shapes (and the exact arithmetic, which the
// golden traces pin byte-for-byte) are:
//
//	barrier    dissemination (butterfly): steps rounds of zero-byte pairwise
//	           notifications — steps*Latency wire, steps*CPUPerMsg CPU.
//	bcast      binomial tree rooted at the source: steps rounds each moving
//	           the full payload one level deeper.
//	allreduce  recursive doubling: steps rounds of pairwise exchange of the
//	           full vector, combine after each round — the same per-step
//	           charge as bcast.
//	allgather  recursive doubling: round k exchanges 2^k contributions, so
//	           the model conservatively charges every round at the dominant
//	           final-round volume (half the total payload plus one block).
//	gather     root-terminated binomial tree (recursive halving): round k
//	           ships 2^k-block aggregates toward the root, so across the
//	           whole tree exactly n-1 blocks cross the wire — per-byte work
//	           scales with n-1, not steps*n/2 as the allgather does. Prior
//	           to this model Gather was priced as a full Allgather.
//
// steps is the tree depth ceil(log2 n). The small-n cross-check tests
// (crosscheck_test.go) validate each closed form against a per-message
// Send/Recv simulation of the same tree; the property tests
// (costmodel_test.go) pin monotonicity in group size and payload bytes.

// treeSteps returns ceil(log2(n)), the depth of the modelled trees.
func treeSteps(n int) int {
	if n <= 1 {
		return 0
	}
	s := 0
	for v := n - 1; v > 0; v >>= 1 {
		s++
	}
	return s
}

// collCost is the virtual charge of one collective: wire extends the
// group's common completion time past the last arrival, and cpuEach is
// charged to every member's CPU clock after the rendezvous (and is
// therefore inflated by competing processes, like any CPU work).
type collCost struct {
	wire    vclock.Duration
	cpuEach vclock.Duration
}

// barrierCost prices the dissemination barrier.
func barrierCost(net cluster.NetParams, n int) collCost {
	steps := vclock.Duration(treeSteps(n))
	return collCost{wire: steps * net.Latency, cpuEach: steps * net.CPUPerMsg}
}

// bcastCost prices the binomial-tree broadcast of a bytes-sized payload.
func bcastCost(net cluster.NetParams, n, bytes int) collCost {
	steps := vclock.Duration(treeSteps(n))
	return collCost{
		wire:    steps * wireTime(net, bytes),
		cpuEach: steps * cpuCost(net, bytes),
	}
}

// allreduceCost prices the recursive-doubling allreduce of a bytes-sized
// vector: every round moves the full vector, so the charge matches bcast.
func allreduceCost(net cluster.NetParams, n, bytes int) collCost {
	steps := vclock.Duration(treeSteps(n))
	return collCost{
		wire:    steps * wireTime(net, bytes),
		cpuEach: steps * cpuCost(net, bytes),
	}
}

// allgatherCost prices the recursive-doubling allgather of one bytes-sized
// contribution per member. Round k exchanges 2^k contributions; the model
// charges every round at the dominant final-round volume (total/2 + bytes),
// a deliberate over-approximation the existing golden traces pin.
func allgatherCost(net cluster.NetParams, n, bytes int) collCost {
	steps := vclock.Duration(treeSteps(n))
	total := bytes * n
	return collCost{
		wire:    steps * wireTime(net, total/2+bytes),
		cpuEach: steps * cpuCost(net, total/2+bytes),
	}
}

// gatherCost prices the root-terminated binomial gather: latency is paid
// once per tree level, but only n-1 contribution blocks cross the wire in
// total (recursive halving toward the root), so the per-byte component
// scales with n-1 — strictly cheaper than the allgather for n >= 2 with a
// non-empty payload.
func gatherCost(net cluster.NetParams, n, bytes int) collCost {
	steps := treeSteps(n)
	vol := float64((n - 1) * bytes)
	return collCost{
		wire:    vclock.Duration(steps)*net.Latency + vclock.FromSeconds(vol/net.BytesPerSec),
		cpuEach: vclock.Duration(steps)*net.CPUPerMsg + vclock.Duration(vol*net.CPUPerByte),
	}
}

// --- nonblocking overlap pricing -----------------------------------------
//
// The nonblocking layer (request.go) needs no cost table of its own — every
// charge it makes is Send/Recv's cpuCost plus a WaitUntil to the arrival
// stamp — but the *residual stall* of an overlapped receive has a closed
// form that the decision machinery and the halo-overlap cross-check test
// price against per-message simulation:
//
//	post Isend(b)        sender pays cpuCost(b); arrival = now + wire(b)
//	compute W            wall time W elapses on the receiver
//	Wait                 stalls max(0, wire(b) + skew - W), then pays
//	                     cpuCost(b)
//
// where skew is the sender-minus-receiver clock offset when the send
// completed. nbRecvStall below folds the skew into its overlap argument:
// callers pass the receiver wall time elapsed since the matching send
// completed (on a common phase-start reference).

// --- one-sided (RMA) pricing ---------------------------------------------
//
// The one-sided layer (window.go) likewise reuses the point-to-point
// closed forms; its epoch arithmetic, which the RMA crosscheck tests
// validate against per-message Send/Recv simulation, is:
//
//	Put(b)               origin pays cpuCost(b) at post;
//	                     arrival = post + wireTime(b). The target pays
//	                     nothing per message.
//	Fence                synchronisation = barrierCost(n) exactly (the
//	                     same dissemination butterfly); then the owner
//	                     settles each deposit in arrival order, stalling
//	                     nbRecvStall(b, overlap) where overlap is the
//	                     owner's wall time already elapsed past the
//	                     deposit's post — wire time hidden behind the
//	                     owner's compute is credited to Comm.HiddenWire,
//	                     never charged.
//
// Relative to a paired Isend/Irecv+Wait of the same payload, the target
// side of a Put therefore saves exactly cpuCost(b) — the receive-side
// copy — per message, plus the per-message matching stall; that closed
// delta is what the crosscheck tests assert and the refresh/redist
// consumers in internal/core spend.
//
// General active-target synchronization (PSCW) replaces the fence's
// dissemination butterfly with pairwise control messages that are priced
// as ordinary 8-byte sends and receives — the identity that makes the
// closed form below cross-validate exactly against per-message simulation
// (window_test.go's PSCW mirrors):
//
//	Post(origins)        sender side of one 8-byte Send per origin:
//	                     cpuCost(8) each; the notification arrives
//	                     wireTime(8) later.
//	Start(targets)       receiver side of one 8-byte Recv per target:
//	                     stall to the post's arrival, then cpuCost(8).
//	Complete()           one 8-byte Send per target (cpuCost(8) each,
//	                     arrival wireTime(8) later).
//	Wait()               receiver side of one 8-byte Recv per posted
//	                     origin (stall + cpuCost(8) each), then the owner
//	                     settles that epoch's deposits exactly as a fence
//	                     would — same nbRecvStall overlap form, same
//	                     HiddenWire credit.
//
// An epoch over k pairs therefore prices as k control round-trips —
// O(1) per pair, independent of the group size n — against the fence's
// barrierCost(n) = ceil(log2 n) * (Latency + CPUPerMsg) paid by every
// member. For the replica-refresh ring (each rank posts to one origin and
// starts toward one target) the per-rank sync cost is two 8-byte control
// messages each way instead of a full butterfly: that gap is the 256-rank
// makespan regression the PSCW refresh removes (internal/exp's RMA study
// measures it end to end).

// nbRecvStall predicts the Wait-side stall of a nonblocking receive of b
// bytes when `overlap` of receiver wall time elapsed between the matching
// send's completion and the Wait.
func nbRecvStall(net cluster.NetParams, b int, overlap vclock.Duration) vclock.Duration {
	if s := wireTime(net, b) - overlap; s > 0 {
		return s
	}
	return 0
}

// haloOverlapCycle prices one overlapped halo phase on the middle rank of a
// three-rank chain of unloaded power-1 nodes, all starting the phase at a
// common time: each edge neighbour posts its single boundary Isend first
// (completing one cpuCost after phase start), the middle rank posts two
// Isends (completing at 2*cpuCost), everyone computes `interior`, and the
// middle rank's two Waits then drain the residual stall. Both incoming
// arrivals are stamped cpuCost + wireTime after phase start while the first
// Wait begins at 2*cpuCost + interior, so the overlapped span seen by
// nbRecvStall is interior + cpuCost and the second Wait never stalls. The
// result is the middle rank's wall time from phase start to both ghosts
// stored, excluding the boundary compute that follows.
func haloOverlapCycle(net cluster.NetParams, b int, interior vclock.Duration) vclock.Duration {
	c := cpuCost(net, b)
	stall := nbRecvStall(net, b, interior+c)
	return 2*c + interior + stall + 2*c
}
