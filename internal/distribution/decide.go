package distribution

// Method selects the balancing algorithm.
type Method int

const (
	// SuccessiveBalancing is the paper's algorithm (§4.3), the default.
	SuccessiveBalancing Method = iota
	// RelativePower is the naive baseline from prior work [2].
	RelativePower
)

// DropPolicy controls node removal.
type DropPolicy int

const (
	// DropAuto applies the paper's §4.4 decision: after the
	// post-redistribution grace period, drop the loaded nodes if the
	// predicted unloaded-only configuration beats the measured times.
	DropAuto DropPolicy = iota
	// DropNever disables node removal.
	DropNever
	// DropAlways physically removes every loaded node at the
	// redistribution point (used by the Figure 6 "Drop" experiments).
	DropAlways
	// DropLogical is the §2.2 alternative to physical dropping: loaded
	// nodes stay in the computation with a minimum assignment (one
	// iteration), so ranks remain static but the nodes keep slowing down
	// communication.
	DropLogical
)

// Input is everything a decision reads: what the runtime measured, and its
// configured policy.
type Input struct {
	Nodes     []Node    // the active nodes, in relative-rank order
	IterCosts []float64 // per-iteration unloaded cost on a power-1 node (s)
	CommCPU   float64   // per-node per-cycle communication CPU (s)
	CommWire  float64   // per-node per-cycle wire time (s)
	Method    Method
	Drop      DropPolicy
	// DropCheck asks for drop-auto's keep-or-drop verdict on the distribution
	// installed at the last grace period's end, whose worst measured cycle
	// time is MeasuredS. Otherwise the decision ends a grace period.
	DropCheck bool
	MeasuredS float64
	// Scratch holds the verdict's slices; nil decides into fresh memory.
	Scratch *Scratch
}

// Candidate is one distribution a decision considered.
type Candidate struct {
	Label      string
	Counts     []int // iterations per node; nil for the unloaded-only prediction
	PredictedS float64
}

// Verdict is what a decision concluded and what the runtime must do.
type Verdict struct {
	Method     string      // the rule that decided: a method's or a drop policy's label
	Chosen     string      // the chosen candidate's label, or "drop", "logical-drop", "keep"
	Counts     []int       // iterations per node to install; nil when none are
	Candidates []Candidate // every distribution considered, chosen or not
	PredictedS float64     // predicted cycle time of the choice; 0 when it has none
	Drop       bool        // physically remove the loaded nodes
	Post       bool        // after installing Counts, measure them and ask for drop-auto's verdict
}

// Scratch is what a decision computes and nothing retains. A verdict's
// slices live in it until the next Decide on the same Scratch.
type Scratch struct {
	fr     []float64 // fractions of the candidate being partitioned
	sub    []Node    // the unloaded nodes
	rp, sb []int     // candidate counts (rp also the unloaded-only partition)
	counts []int     // drop-logical's counts
	cands  [2]Candidate
}

// Decide is the whole adaptation policy (§4.3, §4.4), a pure function of
// its input. At a grace period's end drop-always and drop-logical act on a
// mix of loaded and unloaded nodes; otherwise both the relative-power and
// the successive-balancing distributions are computed and priced, and the
// configured method's is chosen. A drop check compares the unloaded nodes'
// predicted cycle time against the measured one.
func Decide(in Input) Verdict {
	s := in.Scratch
	if s == nil {
		s = new(Scratch)
	}
	loaded, unloaded := false, false
	for _, n := range in.Nodes {
		if n.Load > 0 {
			loaded = true
		} else {
			unloaded = true
		}
	}
	mixed := loaded && unloaded
	switch {
	case in.DropCheck:
		return s.dropCheck(in, mixed)
	case in.Drop == DropAlways && mixed:
		return Verdict{Method: "drop-always", Chosen: "drop", Drop: true}
	case in.Drop == DropLogical && mixed:
		return Verdict{Method: "drop-logical", Chosen: "logical-drop", Counts: s.logical(in)}
	}
	var total float64
	for _, w := range in.IterCosts {
		total += w
	}
	s.fr = RelativePowerFractionsInto(s.fr, in.Nodes)
	s.rp = PartitionWeightedInto(s.rp, in.IterCosts, s.fr)
	s.fr = successiveBalancingInto(s.fr, in.Nodes, total, in.CommCPU, AnalyticModel{})
	s.sb = PartitionWeightedInto(s.sb, in.IterCosts, s.fr)
	s.cands = [2]Candidate{
		{Label: "relative-power", Counts: s.rp, PredictedS: PredictCycleTime(in.Nodes, s.rp, in.IterCosts, in.CommCPU, in.CommWire)},
		{Label: "successive-balancing", Counts: s.sb, PredictedS: PredictCycleTime(in.Nodes, s.sb, in.IterCosts, in.CommCPU, in.CommWire)},
	}
	c := s.cands[1]
	if in.Method == RelativePower {
		c = s.cands[0]
	}
	return Verdict{Method: c.Label, Chosen: c.Label, Counts: c.Counts, Candidates: s.cands[:],
		PredictedS: c.PredictedS, Post: in.Drop == DropAuto && mixed}
}

// dropCheck is drop-auto's verdict: the unloaded nodes' predicted cycle
// time, reliable because unloaded nodes are predictable, against the
// measured one. Without both loaded and unloaded nodes there is nothing to
// predict, and the verdict is keep.
func (s *Scratch) dropCheck(in Input, mixed bool) Verdict {
	v := Verdict{Method: "drop-auto", Chosen: "keep"}
	if !mixed {
		return v
	}
	s.unloaded(in.Nodes)
	s.fr = RelativePowerFractionsInto(s.fr, s.sub)
	s.rp = PartitionWeightedInto(s.rp, in.IterCosts, s.fr)
	v.PredictedS = PredictCycleTime(s.sub, s.rp, in.IterCosts, in.CommCPU, in.CommWire)
	s.cands[0] = Candidate{Label: "unloaded-only", PredictedS: v.PredictedS}
	v.Candidates = s.cands[:1]
	if v.PredictedS < in.MeasuredS {
		v.Chosen, v.Drop = "drop", true
	}
	return v
}

// logical gives each loaded node exactly one iteration and splits the rest
// across the unloaded nodes by relative power. The weighting uses a prefix of
// the iteration costs, exact for uniform workloads — the regime in which
// logical dropping is compared against physical dropping. The partition
// covers the rest exactly, so no rounding remainder reaches a loaded node and
// breaks the minimum assignment the logical drop exists to provide.
func (s *Scratch) logical(in Input) []int {
	s.unloaded(in.Nodes)
	rest := len(in.IterCosts) - (len(in.Nodes) - len(s.sub))
	s.fr = RelativePowerFractionsInto(s.fr, s.sub)
	s.rp = PartitionWeightedInto(s.rp, in.IterCosts[:rest], s.fr)
	s.counts = sized(s.counts, len(in.Nodes))
	j := 0
	for i, node := range in.Nodes {
		s.counts[i] = 1
		if node.Load == 0 {
			s.counts[i] = s.rp[j]
			j++
		}
	}
	return s.counts
}

// unloaded fills s.sub with the nodes carrying no competing process.
func (s *Scratch) unloaded(nodes []Node) {
	s.sub = s.sub[:0]
	for _, n := range nodes {
		if n.Load == 0 {
			s.sub = append(s.sub, n)
		}
	}
}
