// Package fault provides deterministic, virtual-time fault injection for
// the Dyn-MPI simulator: node crashes at a cycle or virtual time, transient
// stalls, and per-link message drops and delays.
//
// Determinism is the design constraint everything else bends around. A
// fault triggers exclusively on state owned by the faulting node's own
// goroutine — its virtual clock, its cycle counter, its per-link send
// counters — never on wall time, scheduling order, or another node's
// progress. Two runs of the same scenario therefore inject exactly the same
// faults at exactly the same virtual instants, so crash experiments replay
// bit-identically the way everything else in the simulator does.
//
// A scenario declares its faults as a []Fault on the cluster Spec (or the
// dynexp -fault flag, parsed by ParseSpecs); NewSet validates them and
// partitions them per node, and the mpi layer polls the node's NodeState at
// operation entry points.
package fault

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/vclock"
)

// Kind enumerates the supported fault types.
type Kind int

const (
	// Crash kills the node permanently: the rank's goroutine exits and
	// every later interaction with it fails.
	Crash Kind = iota
	// Stall freezes the node for Dur of virtual time, then resumes.
	Stall
	// Drop discards the first transmission of a message on a link; the
	// modelled retransmission delivers it Dur later (DefaultRetransmit
	// when Dur is zero).
	Drop
	// Delay adds Dur to a message's delivery time on a link.
	Delay
)

// String reports the scenario-syntax name of the kind.
func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Stall:
		return "stall"
	case Drop:
		return "drop"
	case Delay:
		return "delay"
	}
	return fmt.Sprintf("fault.Kind(%d)", int(k))
}

// DefaultRetransmit is the modelled retransmission delay applied to dropped
// messages when the fault does not specify one.
const DefaultRetransmit = 200 * vclock.Millisecond

// Fault is one injected fault. Node faults (Crash, Stall) trigger either at
// the start of cycle AtCycle (when AtCycle >= 0) or at the first
// communication operation at or after virtual time At. Message faults
// (Drop, Delay) apply to Count consecutive messages on the Node->To link,
// starting with the After-th message sent on that link (0-based).
type Fault struct {
	Kind Kind
	Node int // faulting node (the sender, for message faults)

	// Node-fault trigger: cycle takes precedence when >= 0.
	AtCycle int
	At      vclock.Time

	// Message-fault window.
	To    int // destination rank
	After int // 0-based index of the first affected message on the link
	Count int // number of affected messages (0 means 1)

	// Dur is the stall length, added delay, or drop retransmission delay.
	Dur vclock.Duration
}

// CrashAtCycle returns a fault that crashes node at the start of cycle.
func CrashAtCycle(node, cycle int) Fault {
	return Fault{Kind: Crash, Node: node, AtCycle: cycle}
}

// CrashAt returns a fault that crashes node at its first communication
// operation at or after virtual time t.
func CrashAt(node int, t vclock.Time) Fault {
	return Fault{Kind: Crash, Node: node, AtCycle: -1, At: t}
}

// StallAtCycle returns a fault that freezes node for dur at the start of
// cycle.
func StallAtCycle(node, cycle int, dur vclock.Duration) Fault {
	return Fault{Kind: Stall, Node: node, AtCycle: cycle, Dur: dur}
}

// DropMsgs returns a fault that drops count messages on the node->to link
// starting with the after-th (0-based); each is redelivered after
// DefaultRetransmit.
func DropMsgs(node, to, after, count int) Fault {
	return Fault{Kind: Drop, Node: node, AtCycle: -1, To: to, After: after, Count: count}
}

// DelayMsgs returns a fault that adds dur to the delivery of count messages
// on the node->to link starting with the after-th (0-based).
func DelayMsgs(node, to, after, count int, dur vclock.Duration) Fault {
	return Fault{Kind: Delay, Node: node, AtCycle: -1, To: to, After: after, Count: count, Dur: dur}
}

// Set holds a validated scenario's faults partitioned per node. A nil *Set
// is valid and empty.
type Set struct {
	nodes []*NodeState
}

// NodeState holds one node's faults, in the forms its own goroutine polls:
// cycle-triggered node faults, time-triggered node faults (consumed in
// virtual-time order), and per-destination message-fault rules with the
// link's send counter.
type NodeState struct {
	cycle []Fault // node faults with AtCycle >= 0, sorted by AtCycle
	timed []Fault // node faults triggered by At, sorted by At
	next  int     // cursor into timed
	links []linkState
}

type linkState struct {
	to    int
	sent  int // messages sent on this link so far
	rules []msgRule
}

type msgRule struct {
	kind         Kind
	after, count int
	dur          vclock.Duration
}

// NewSet validates faults for an n-node cluster and partitions them per
// node. It returns an error naming the first invalid fault.
func NewSet(n int, faults []Fault) (*Set, error) {
	if len(faults) == 0 {
		return nil, nil
	}
	s := &Set{nodes: make([]*NodeState, n)}
	node := func(id int) *NodeState {
		if s.nodes[id] == nil {
			s.nodes[id] = &NodeState{}
		}
		return s.nodes[id]
	}
	for i, f := range faults {
		if f.Node < 0 || f.Node >= n {
			return nil, fmt.Errorf("fault %d (%s): node %d out of range [0,%d)", i, f.Kind, f.Node, n)
		}
		switch f.Kind {
		case Crash, Stall:
			if f.Kind == Stall && f.Dur <= 0 {
				return nil, fmt.Errorf("fault %d (stall): needs a positive duration", i)
			}
			if f.AtCycle < 0 && f.At < 0 {
				return nil, fmt.Errorf("fault %d (%s): needs cycle or time trigger", i, f.Kind)
			}
			ns := node(f.Node)
			if f.AtCycle >= 0 {
				ns.cycle = append(ns.cycle, f)
			} else {
				ns.timed = append(ns.timed, f)
			}
		case Drop, Delay:
			if f.To < 0 || f.To >= n {
				return nil, fmt.Errorf("fault %d (%s): destination %d out of range [0,%d)", i, f.Kind, f.To, n)
			}
			if f.To == f.Node {
				return nil, fmt.Errorf("fault %d (%s): self link %d->%d", i, f.Kind, f.Node, f.To)
			}
			if f.Kind == Delay && f.Dur <= 0 {
				return nil, fmt.Errorf("fault %d (delay): needs a positive duration", i)
			}
			if f.After < 0 {
				return nil, fmt.Errorf("fault %d (%s): negative message index %d", i, f.Kind, f.After)
			}
			if f.Count == 0 {
				f.Count = 1
			}
			if f.Count < 0 {
				return nil, fmt.Errorf("fault %d (%s): negative count %d", i, f.Kind, f.Count)
			}
			if f.Kind == Drop && f.Dur < 0 {
				return nil, fmt.Errorf("fault %d (drop): negative duration %v", i, f.Dur)
			}
			if f.Kind == Drop && f.Dur == 0 {
				f.Dur = DefaultRetransmit
			}
			ns := node(f.Node)
			var l *linkState
			for j := range ns.links {
				if ns.links[j].to == f.To {
					l = &ns.links[j]
					break
				}
			}
			if l == nil {
				ns.links = append(ns.links, linkState{to: f.To})
				l = &ns.links[len(ns.links)-1]
			}
			l.rules = append(l.rules, msgRule{kind: f.Kind, after: f.After, count: f.Count, dur: f.Dur})
		default:
			return nil, fmt.Errorf("fault %d: unknown kind %d", i, int(f.Kind))
		}
	}
	for _, ns := range s.nodes {
		if ns == nil {
			continue
		}
		sort.SliceStable(ns.cycle, func(a, b int) bool { return ns.cycle[a].AtCycle < ns.cycle[b].AtCycle })
		sort.SliceStable(ns.timed, func(a, b int) bool { return ns.timed[a].At < ns.timed[b].At })
	}
	return s, nil
}

// Node returns the fault state for node id, or nil when the node has none.
// It is nil-safe: a nil Set has no faults.
func (s *Set) Node(id int) *NodeState {
	if s == nil || id < 0 || id >= len(s.nodes) {
		return nil
	}
	return s.nodes[id]
}

// Empty reports whether the set holds no faults.
func (s *Set) Empty() bool { return s == nil || len(s.nodes) == 0 }

// AtCycle returns the node faults triggered at the start of cycle, in
// declaration order. The returned slice aliases internal state; callers
// must not retain it.
func (ns *NodeState) AtCycle(cycle int) []Fault {
	lo := sort.Search(len(ns.cycle), func(i int) bool { return ns.cycle[i].AtCycle >= cycle })
	hi := lo
	for hi < len(ns.cycle) && ns.cycle[hi].AtCycle == cycle {
		hi++
	}
	return ns.cycle[lo:hi]
}

// TimedDue consumes and returns the next time-triggered node fault due at
// or before now, if any.
func (ns *NodeState) TimedDue(now vclock.Time) (Fault, bool) {
	if ns.next < len(ns.timed) && ns.timed[ns.next].At <= now {
		f := ns.timed[ns.next]
		ns.next++
		return f, true
	}
	return Fault{}, false
}

// MessageFault advances the send counter for the link to dst and reports
// whether the message being sent hits a drop or delay rule; extra is the
// added delivery delay.
func (ns *NodeState) MessageFault(dst int) (kind Kind, extra vclock.Duration, hit bool) {
	for i := range ns.links {
		l := &ns.links[i]
		if l.to != dst {
			continue
		}
		idx := l.sent
		l.sent++
		for _, r := range l.rules {
			if idx >= r.after && idx < r.after+r.count {
				return r.kind, r.dur, true
			}
		}
		return 0, 0, false
	}
	return 0, 0, false
}

// ParseSpecs parses the dynexp -fault syntax: semicolon-separated specs of
// the form "kind:key=value,key=value,...". Examples:
//
//	crash:node=1,cycle=12
//	crash:node=1,t=0.25
//	stall:node=2,cycle=8,dur=50ms
//	drop:node=0,to=1,after=5,count=3
//	delay:node=0,to=2,count=4,dur=10ms
//
// Keys: node, cycle, t (virtual seconds, float), dur (Go duration syntax),
// to, after, count. cycle and t trigger node faults only; a message fault
// rejects them, and parses to exactly what DropMsgs or DelayMsgs builds.
func ParseSpecs(s string) ([]Fault, error) {
	var out []Fault
	for _, spec := range strings.Split(s, ";") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		kindStr, rest, ok := strings.Cut(spec, ":")
		if !ok {
			return nil, fmt.Errorf("fault spec %q: want kind:key=value,...", spec)
		}
		// At stays -1, unset, on a node fault without a t= key, so that
		// NewSet can reject a node fault with no trigger.
		f := Fault{AtCycle: -1, To: -1}
		switch kindStr {
		case "crash":
			f.Kind, f.At = Crash, -1
		case "stall":
			f.Kind, f.At = Stall, -1
		case "drop":
			f.Kind = Drop
		case "delay":
			f.Kind = Delay
		default:
			return nil, fmt.Errorf("fault spec %q: unknown kind %q", spec, kindStr)
		}
		f.Node = -1
		msg := f.Kind == Drop || f.Kind == Delay
		for _, kv := range strings.Split(rest, ",") {
			key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok {
				return nil, fmt.Errorf("fault spec %q: bad key=value %q", spec, kv)
			}
			if msg && (key == "cycle" || key == "t") {
				return nil, fmt.Errorf("fault spec %q: %s= does not apply to a %s fault", spec, key, kindStr)
			}
			switch key {
			case "node", "to", "cycle", "after", "count":
				v, err := strconv.Atoi(val)
				if err != nil {
					return nil, fmt.Errorf("fault spec %q: %s: %v", spec, key, err)
				}
				switch key {
				case "node":
					f.Node = v
				case "to":
					f.To = v
				case "cycle":
					f.AtCycle = v
				case "after":
					f.After = v
				case "count":
					f.Count = v
				}
			case "t":
				v, err := strconv.ParseFloat(val, 64)
				if err != nil {
					return nil, fmt.Errorf("fault spec %q: t: %v", spec, err)
				}
				if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					return nil, fmt.Errorf("fault spec %q: t=%v is not a finite non-negative time", spec, v)
				}
				f.At = vclock.Time(vclock.FromSeconds(v))
			case "dur":
				d, err := time.ParseDuration(val)
				if err != nil {
					return nil, fmt.Errorf("fault spec %q: dur: %v", spec, err)
				}
				f.Dur = vclock.Duration(d.Nanoseconds())
			default:
				return nil, fmt.Errorf("fault spec %q: unknown key %q", spec, key)
			}
		}
		if f.Node < 0 {
			return nil, fmt.Errorf("fault spec %q: missing node", spec)
		}
		if msg && f.To < 0 {
			return nil, fmt.Errorf("fault spec %q: missing to", spec)
		}
		out = append(out, f)
	}
	return out, nil
}
