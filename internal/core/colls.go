package core

import (
	"fmt"

	"repro/internal/mpi"
)

// This file implements the paper's modified global communication routines
// (§4.4): physically removed nodes "do not participate in the send-in
// phase, but do participate in the send-out" — they contribute nothing to
// reductions, but still receive results (convergence flags, termination
// notices) so their global state stays current.
//
// Every routine survives rank crashes: a collective that fails because a
// group member died is retried over the shrunken group (absorbFailure; the
// error is identical on every member, so all retry together and the data
// redistribution runs at the next cycle boundary).
//
// The root is a fixed address. A removed rank keeps the membership it was
// removed under (only a non-empty rejoin verdict replaces it), so it receives
// from the root of that day; nothing forwards it a hand-over. Hence no drop
// may remove the root while any rank is removed (dropLoaded pins it, as shrink
// always keeps active[0]): a second drop that took it left the earlier leaver
// parked in recvOut on a rank that no longer sends — the smoke grid's deadlock.

// sendOutRoot is the active rank responsible for forwarding global results
// to removed nodes.
func (rt *Runtime) sendOutRoot() int { return rt.active[0] }

// sendOut forwards a global result to every removed rank (called by the
// send-out root only).
func (rt *Runtime) sendOut(v []float64) {
	if rt.comm.Rank() != rt.sendOutRoot() {
		return
	}
	for _, r := range rt.removed {
		// Deterministic dead guard (see knownDead): never ship global
		// results to a corpse's mailbox.
		if rt.knownDead(r) {
			continue
		}
		rt.comm.Send(r, tagGlobal, v, mpi.F64Bytes(len(v)))
	}
}

// recvRoot is a removed rank's receive from its send-out root. Removed ranks
// take no part in the survivors' agreement on a new root, so a crashed root
// aborts the world with an explicit error instead of leaving them parked.
func (rt *Runtime) recvRoot(tag int) any {
	p, _, err := rt.comm.RecvErr(rt.sendOutRoot(), tag)
	if err != nil {
		rt.comm.Abort(fmt.Errorf("core: removed rank %d: send-out root %d crashed: %w",
			rt.comm.Rank(), rt.sendOutRoot(), err))
	}
	return p
}

// recvOut receives the next global result on a removed rank.
func (rt *Runtime) recvOut() []float64 { return rt.recvRoot(tagGlobal).([]float64) }

// AllreduceF64s reduces a vector across the active nodes and returns the
// result in a fresh slice, leaving vals untouched; removed nodes receive the
// result without contributing. Every rank — active or removed — must call
// global operations in the same order.
func (rt *Runtime) AllreduceF64s(vals []float64, op func(a, b float64) float64) []float64 {
	out := append([]float64(nil), vals...)
	rt.AllreduceF64sInto(out, op)
	return out
}

// AllreduceF64sInto reduces buf element-wise across the active nodes,
// storing the result back into buf (send-out aware). Nothing retains the
// buffer afterwards, so per-cycle reductions can recycle one slice
// indefinitely.
func (rt *Runtime) AllreduceF64sInto(buf []float64, op func(a, b float64) float64) {
	if rt.isOut {
		copy(buf, rt.recvOut())
		return
	}
	for {
		// On error buf is untouched, so the retry contributes intact values.
		if err := rt.comm.AllreduceF64sIntoErr(rt.group, buf, op); err != nil {
			rt.absorbFailure(err)
			continue
		}
		break
	}
	// Send-out must ship a private copy: eager sends park the payload in the
	// receiver's mailbox, and the caller is free to overwrite buf as soon as
	// we return.
	if rt.comm.Rank() == rt.sendOutRoot() && len(rt.removed) > 0 {
		rt.sendOut(append([]float64(nil), buf...))
	}
}

// AllreduceSum reduces one value by summation (send-out aware).
func (rt *Runtime) AllreduceSum(v float64) float64 {
	if rt.isOut {
		return rt.recvOut()[0]
	}
	var out float64
	for {
		var err error
		out, err = rt.comm.AllreduceSumErr(rt.group, v)
		if err != nil {
			rt.absorbFailure(err)
			continue
		}
		break
	}
	if rt.comm.Rank() == rt.sendOutRoot() && len(rt.removed) > 0 {
		rt.sendOut([]float64{out})
	}
	return out
}

// AllreduceMax reduces one value by maximum (send-out aware).
func (rt *Runtime) AllreduceMax(v float64) float64 {
	if rt.isOut {
		return rt.recvOut()[0]
	}
	var out float64
	for {
		var err error
		out, err = rt.comm.AllreduceMaxErr(rt.group, v)
		if err != nil {
			rt.absorbFailure(err)
			continue
		}
		break
	}
	if rt.comm.Rank() == rt.sendOutRoot() && len(rt.removed) > 0 {
		rt.sendOut([]float64{out})
	}
	return out
}

// BcastF64s distributes a vector from the active relative-rank root to all
// nodes, including removed ones. If the root itself crashes, the retry
// re-resolves relRoot against the shrunken active list, so the new root's
// buffer is the one broadcast.
func (rt *Runtime) BcastF64s(relRoot int, vals []float64) []float64 {
	if rt.isOut {
		return rt.recvOut()
	}
	for {
		root := rt.active[relRoot]
		out, err := rt.comm.BcastErr(rt.group, root, vals, mpi.F64Bytes(len(vals)))
		if err != nil {
			rt.absorbFailure(err)
			continue
		}
		res := out.([]float64)
		rt.sendOut(res)
		return res
	}
}

// Barrier synchronises the active nodes. Removed nodes pass through
// immediately: the paper explicitly avoids "participating nodes being
// delayed by removed nodes".
func (rt *Runtime) Barrier() {
	if rt.isOut {
		return
	}
	for {
		if err := rt.comm.BarrierErr(rt.group); err != nil {
			rt.absorbFailure(err)
			continue
		}
		return
	}
}

// Finalize completes the run: active nodes synchronise and the send-out
// root notifies every removed node that the computation terminated
// (removed nodes block here until that notice arrives).
func (rt *Runtime) Finalize() {
	rt.ensureCommitted()
	if rt.isOut {
		rt.recvRoot(tagDone)
		return
	}
	rt.Barrier()
	if rt.comm.Rank() == rt.sendOutRoot() {
		for _, r := range rt.removed {
			if rt.knownDead(r) {
				continue
			}
			rt.comm.Send(r, tagDone, nil, 0)
		}
	}
}
