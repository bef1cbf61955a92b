package core

import (
	"slices"

	"repro/internal/distribution"
	"repro/internal/drsd"
	"repro/internal/loadmon"
	"repro/internal/mpi"
	"repro/internal/telemetry"
	"repro/internal/timing"
)

// BeginCycle opens one phase cycle: it materialises scenario events, runs
// the per-cycle load check (§4.2: "check system load at every phase cycle")
// and drives the adaptation state machine — grace-period measurement,
// redistribution, and the drop decision. It reports whether this rank
// participates in the cycle.
func (rt *Runtime) BeginCycle() bool {
	rt.ensureCommitted()
	rt.node.OnCycle(rt.cycle)
	rt.comm.InjectCycleFaults(rt.cycle)
	if rt.isOut {
		rt.removedCycle()
		return !rt.isOut // true exactly when this node just rejoined
	}
	rt.beginCycleTelemetry()
	if rt.lateEntry {
		// A joiner's first BeginCycle: the actives ran this cycle's
		// adaptation step before admitting it, so entering the load
		// exchange would wait on a collective nobody else runs. Run the
		// cycle body directly; adaptation resumes next cycle.
		rt.lateEntry = false
		return true
	}
	if !rt.cfg.Adapt {
		return true
	}
	if len(rt.pendingDead) > 0 {
		// A death every survivor recorded mid-cycle (a failed collective, or
		// a redistribution whose closing barrier failed) is recovered here,
		// the one point every surviving active rank is guaranteed to reach.
		rt.handleFailure()
	}

	loads, removedRanks, removedLoads, err := rt.exchangeLoads()
	if err != nil {
		// A member died inside the load exchange: every member got the same
		// error, so absorbing and recovering here is symmetric. Skip this
		// cycle's adaptation step; the fresh baseline resumes next cycle.
		rt.absorbFailure(err)
		rt.handleFailure()
		rt.closePoll()
		return true
	}
	if rt.cfg.Telemetry != nil {
		if rel := rt.RelRank(); rel >= 0 && rel < len(loads) {
			rt.cycLoad = loads[rel]
		}
	}
	// A crashed removed node reports load -1 (the root's poll sentinel,
	// carried to every member through the allgather, so all prune the same
	// set); not being 0, it is never readmitted below.
	var deadRemoved []int
	for i, r := range removedRanks {
		if removedLoads[i] < 0 {
			deadRemoved = append(deadRemoved, r)
		}
	}
	if len(deadRemoved) > 0 {
		rt.absorbDead(deadRemoved)
		rt.handleFailure()
	}
	if rt.maybeRejoin(loads, removedRanks, removedLoads) {
		// Membership changed this cycle; the state machine resumes on the
		// fresh baseline next cycle.
		return true
	}
	if rt.maybeResize(loads) {
		// Elastic resize (capacity arrival or explicit Resize target): the
		// membership and distribution changed; resume on the fresh baseline.
		return !rt.isOut
	}

	// The live measurement window is the adaptation state: the grace period
	// (collector), the post-redistribution grace (cycTimer), or neither.
	switch {
	case rt.collector != nil:
		if loadmon.Changed(rt.graceLoads, loads) {
			rt.enterGrace(loads) // load moved again: restart the measurement
		} else if rt.collector.Cycles() >= rt.cfg.GracePeriod {
			rt.decideRedistribution(loads)
		}
	case loadmon.Changed(rt.baseLoads, loads) && (rt.cfg.MaxRedists == 0 || rt.redists < rt.cfg.MaxRedists):
		// A fresh load change. It also restarts a post-redistribution grace
		// on the new baseline rather than feed maybeDrop loads the installed
		// distribution was never built for.
		rt.enterGrace(loads)
	case rt.cycTimer == nil: // no window open
	case rt.cycTimer.Cycles() >= timing.PostRedistGrace:
		rt.maybeDrop(loads)
	default:
		rt.cycTimer.Begin()
	}
	return !rt.isOut
}

// EndCycle closes the phase cycle, feeding whichever measurement window is
// active.
func (rt *Runtime) EndCycle() {
	if rt.isOut {
		rt.cycle++
		return
	}
	if rt.collector != nil {
		rt.collector.EndCycle()
	}
	if rt.cycTimer != nil && rt.cycTimer.Open() {
		rt.cycTimer.End()
	}
	rt.endCycleTelemetry()
	if rt.cfg.Replicate && rt.cfg.ReplicaEvery > 0 && rt.cycle%rt.cfg.ReplicaEvery == 0 {
		rt.refreshReplicasNow()
	}
	rt.cycle++
}

// enterGrace starts (or restarts) the grace period: the application keeps
// running on the old distribution while per-iteration unloaded times and
// per-cycle communication are measured.
func (rt *Runtime) enterGrace(loads []int) {
	rt.graceLoads = append(rt.graceLoads[:0], loads...)
	lo, hi := rt.dist.RangeOf(rt.comm.Rank())
	rt.grace.Reset(rt.node, lo, hi)
	rt.grace0 = rt.counters()
	rt.collector, rt.cycTimer = &rt.grace, nil
}

// measureComm converts the traffic accumulated since grace start into
// per-cycle communication costs (CPU seconds and wire seconds per node),
// reduced to the cluster-wide maximum so every rank uses the same value.
// Wire time that the overlap machinery hid behind computation during the
// grace window is subtracted: an application using nonblocking halos does
// not stall for that time, so pricing it into candidate distributions would
// overestimate communication and bias decisions toward too-coarse blocks.
func (rt *Runtime) measureComm(cycles int) (commCPU, commWire float64, err error) {
	net := rt.comm.World().Cluster().Net()
	d, cpu := rt.grace0.since(rt)
	msgs, bytes := float64(d.msgs), float64(d.bytes)
	per := 1.0 / float64(cycles)
	cpu *= per
	wire := (msgs/2*net.Latency.Seconds() + bytes/2/net.BytesPerSec) * per
	if hidden := d.hidden.Seconds() * per; hidden > 0 {
		wire -= hidden
		if wire < 0 {
			wire = 0
		}
	}
	buf := [2]float64{cpu, wire}
	if err := rt.comm.AllreduceF64sIntoErr(rt.group, buf[:], mpi.Max); err != nil {
		return 0, 0, err
	}
	return buf[0], buf[1], nil
}

// gatherEstimates assembles the global per-iteration cost vector from every
// active rank's grace-period collector. Each rank deposits its own range's
// estimates, and every rank gets the same assembled slice: one vector per
// decision per world, which nothing writes (membership).
func (rt *Runtime) gatherEstimates() ([]float64, error) {
	lo, hi := rt.collector.Range()
	rt.estBuf = atLeast(rt.estBuf, hi-lo)[:hi-lo]
	rt.collector.EstimatesInto(rt.estBuf)
	return rt.comm.AllgatherSegErr(rt.group, rt.n, lo, rt.estBuf)
}

// abandonDecision gives up on an in-flight redistribution decision after a
// member died inside one of its collectives. Every member observed the same
// error, so all abandon together; recovery runs at the top of the next
// cycle and rebuilds the baseline.
func (rt *Runtime) abandonDecision(err error) {
	rt.absorbFailure(err)
	rt.collector = nil
}

// decideRedistribution ends a grace period: it gathers the decision's inputs
// from every active rank, decides (§4.3 + §4.4) and applies the verdict.
func (rt *Runtime) decideRedistribution(loads []int) {
	iterCosts, err := rt.gatherEstimates()
	if err != nil {
		rt.abandonDecision(err)
		return
	}
	commCPU, commWire, err := rt.measureComm(rt.collector.Cycles())
	if err != nil {
		rt.abandonDecision(err)
		return
	}
	rt.collector = nil
	rt.iterCosts = iterCosts
	rt.commCPU, rt.commWire = commCPU, commWire
	rt.decide(loads, false, 0)
}

// maybeDrop asks for the paper's drop verdict after the post-redistribution
// grace period, on the cycle time measured there.
func (rt *Runtime) maybeDrop(loads []int) {
	measured, err := rt.comm.AllreduceErr(rt.group, rt.cycTimer.Average(), mpi.Max)
	rt.cycTimer = nil
	if err != nil {
		rt.absorbFailure(err)
		return
	}
	rt.decide(loads, true, measured)
}

// decide runs distribution.Decide on the inputs every active rank agreed on
// and applies the verdict: the same code runs whether or not a sink listens.
func (rt *Runtime) decide(loads []int, dropCheck bool, measured float64) {
	in := distribution.Input{
		Nodes:     rt.nodesOf(rt.active, loads),
		IterCosts: rt.iterCosts,
		CommCPU:   rt.commCPU,
		CommWire:  rt.commWire,
		Method:    rt.cfg.Method,
		Drop:      rt.cfg.Drop,
		DropCheck: dropCheck,
		MeasuredS: measured,
		Scratch:   &rt.decision,
	}
	v := distribution.Decide(in)
	if rt.cfg.Telemetry != nil {
		rt.cfg.Telemetry.Emit(rt.decisionRecord(in, v))
	}
	switch {
	case v.Drop:
		rt.baseLoads = append([]int(nil), loads...)
		rt.dropLoaded(in.Nodes)
	case v.Counts != nil:
		rt.applyDistribution(drsd.NewBlock(rt.active, v.Counts), nil)
		rt.baseLoads = append([]int(nil), loads...)
		rt.redists++
		if v.Chosen == "logical-drop" {
			// Loaded nodes stay with one iteration each (§2.2): ranks are
			// static, but those nodes keep slowing every communication step.
			rt.emitMembership(v.Chosen, nil, nil)
		}
		if v.Post {
			rt.post.Reset(rt.node)
			rt.cycTimer = &rt.post
			rt.cycTimer.Begin() // covers the remainder of this (post-redist) cycle
		}
	}
}

// decisionRecord is a decision's one record: its inputs and its verdict,
// copied out of the scratch they live in.
func (rt *Runtime) decisionRecord(in distribution.Input, v distribution.Verdict) telemetry.DecisionRecord {
	loads, powers := make([]int, len(in.Nodes)), make([]float64, len(in.Nodes))
	for i, n := range in.Nodes {
		loads[i], powers[i] = n.Load, n.Power
	}
	cands := make([]telemetry.Candidate, len(v.Candidates))
	for i, c := range v.Candidates {
		cands[i] = telemetry.Candidate{Label: c.Label, Counts: slices.Clone(c.Counts), PredictedS: c.PredictedS}
	}
	var graceVT float64
	if !in.DropCheck {
		graceVT = rt.grace0.at.Seconds()
	}
	return telemetry.DecisionRecord{
		Base:       rt.stamp(telemetry.KindDecision),
		Method:     v.Method,
		Loads:      loads,
		Powers:     powers,
		CommCPUS:   in.CommCPU,
		CommWireS:  in.CommWire,
		IterCosts:  telemetry.CostRuns(in.IterCosts),
		Candidates: cands,
		Chosen:     v.Chosen,
		Counts:     slices.Clone(v.Counts),
		PredictedS: v.PredictedS,
		MeasuredS:  in.MeasuredS,
		GraceVT:    graceVT,
	}
}

// dropLoaded physically removes every loaded node: data moves to the
// unloaded nodes, the collective group shrinks, relative ranks are
// re-assigned, and removed ranks switch to the send-out-only protocol.
func (rt *Runtime) dropLoaded(nodes []distribution.Node) {
	stay, loads := make([]int, 0, len(nodes)), make([]int, 0, len(nodes))
	var out []int
	for _, n := range nodes {
		if n.Load == 0 {
			stay, loads = append(stay, n.Rank), append(loads, n.Load)
		} else {
			out = append(out, n.Rank)
		}
	}
	if len(stay) > 0 && len(out) > 0 {
		rt.transit(rt.removal(causeDrop, stay, out, loads, make([]int, len(stay)))) // unloaded by construction
	}
}
