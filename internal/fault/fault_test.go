package fault

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/vclock"
)

func TestNewSetValidation(t *testing.T) {
	cases := []struct {
		name   string
		faults []Fault
		substr string
	}{
		{"node out of range", []Fault{CrashAtCycle(4, 1)}, "out of range"},
		{"negative node", []Fault{CrashAtCycle(-1, 1)}, "out of range"},
		{"stall without dur", []Fault{{Kind: Stall, Node: 0, AtCycle: 3}}, "duration"},
		{"delay without dur", []Fault{{Kind: Delay, Node: 0, AtCycle: -1, To: 1, Count: 1}}, "duration"},
		{"drop bad dest", []Fault{DropMsgs(0, 9, 0, 1)}, "out of range"},
		{"self link", []Fault{DropMsgs(1, 1, 0, 1)}, "self link"},
		{"negative after", []Fault{DropMsgs(0, 1, -2, 1)}, "message index"},
		{"negative drop dur", []Fault{{Kind: Drop, Node: 0, AtCycle: -1, To: 1, Count: 1, Dur: -5 * vclock.Millisecond}}, "negative duration"},
		{"no trigger", []Fault{{Kind: Crash, Node: 0, AtCycle: -1, At: -1}}, "trigger"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := NewSet(4, c.faults)
			if err == nil || !strings.Contains(err.Error(), c.substr) {
				t.Fatalf("NewSet = %v, want error containing %q", err, c.substr)
			}
		})
	}
	if s, err := NewSet(4, nil); err != nil || s != nil {
		t.Fatalf("empty fault list: got %v, %v", s, err)
	}
}

func TestNodePartitioning(t *testing.T) {
	s, err := NewSet(4, []Fault{
		CrashAtCycle(2, 7),
		StallAtCycle(1, 3, 50*vclock.Millisecond),
		CrashAtCycle(1, 9),
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Node(0) != nil || s.Node(3) != nil {
		t.Error("nodes without faults should have nil state")
	}
	if s.Node(-1) != nil || s.Node(99) != nil {
		t.Error("out-of-range Node() should be nil")
	}
	var nilSet *Set
	if nilSet.Node(0) != nil || !nilSet.Empty() {
		t.Error("nil Set should be empty and nil-safe")
	}
	n1 := s.Node(1)
	if got := n1.AtCycle(3); len(got) != 1 || got[0].Kind != Stall {
		t.Errorf("node 1 cycle 3: got %v", got)
	}
	if got := n1.AtCycle(9); len(got) != 1 || got[0].Kind != Crash {
		t.Errorf("node 1 cycle 9: got %v", got)
	}
	if got := n1.AtCycle(5); len(got) != 0 {
		t.Errorf("node 1 cycle 5: got %v, want none", got)
	}
}

func TestTimedDue(t *testing.T) {
	s, err := NewSet(2, []Fault{
		CrashAt(0, vclock.Time(300*vclock.Millisecond)),
		{Kind: Stall, Node: 0, AtCycle: -1, At: vclock.Time(100 * vclock.Millisecond), Dur: vclock.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	ns := s.Node(0)
	if _, ok := ns.TimedDue(vclock.Time(50 * vclock.Millisecond)); ok {
		t.Fatal("fault due before its time")
	}
	f, ok := ns.TimedDue(vclock.Time(150 * vclock.Millisecond))
	if !ok || f.Kind != Stall {
		t.Fatalf("want stall first (sorted by time), got %v ok=%v", f, ok)
	}
	f, ok = ns.TimedDue(vclock.Time(400 * vclock.Millisecond))
	if !ok || f.Kind != Crash {
		t.Fatalf("want crash second, got %v ok=%v", f, ok)
	}
	if _, ok := ns.TimedDue(vclock.Time(999 * vclock.Millisecond)); ok {
		t.Fatal("timed faults should be consumed exactly once")
	}
}

func TestMessageFaultWindow(t *testing.T) {
	s, err := NewSet(3, []Fault{
		DropMsgs(0, 1, 2, 2),                         // messages 2,3 on 0->1
		DelayMsgs(0, 2, 0, 1, 10*vclock.Millisecond), // message 0 on 0->2
	})
	if err != nil {
		t.Fatal(err)
	}
	ns := s.Node(0)
	// Link 0->1: indices 0..4, faults at 2 and 3.
	wantHit := []bool{false, false, true, true, false}
	for i, want := range wantHit {
		kind, extra, hit := ns.MessageFault(1)
		if hit != want {
			t.Fatalf("msg %d on 0->1: hit=%v want %v", i, hit, want)
		}
		if hit {
			if kind != Drop {
				t.Fatalf("msg %d: kind %v want Drop", i, kind)
			}
			if extra != DefaultRetransmit {
				t.Fatalf("msg %d: extra %v want DefaultRetransmit", i, extra)
			}
		}
	}
	// Link 0->2 counts independently.
	kind, extra, hit := ns.MessageFault(2)
	if !hit || kind != Delay || extra != 10*vclock.Millisecond {
		t.Fatalf("0->2 msg 0: kind=%v extra=%v hit=%v", kind, extra, hit)
	}
	if _, _, hit := ns.MessageFault(2); hit {
		t.Fatal("0->2 msg 1 should not hit")
	}
	// A link with no rules never hits.
	if _, _, hit := s.Node(0).MessageFault(0); hit {
		t.Fatal("unruled link hit a fault")
	}
}

func TestParseSpecs(t *testing.T) {
	faults, err := ParseSpecs("crash:node=1,cycle=12; stall:node=2,cycle=8,dur=50ms;drop:node=0,to=1,after=5,count=3;delay:node=0,to=2,count=4,dur=10ms;crash:node=3,t=0.25")
	if err != nil {
		t.Fatal(err)
	}
	if len(faults) != 5 {
		t.Fatalf("parsed %d faults, want 5", len(faults))
	}
	want := []Fault{
		{Kind: Crash, Node: 1, AtCycle: 12, At: -1, To: -1},
		{Kind: Stall, Node: 2, AtCycle: 8, At: -1, To: -1, Dur: 50 * vclock.Millisecond},
		{Kind: Drop, Node: 0, AtCycle: -1, To: 1, After: 5, Count: 3},
		{Kind: Delay, Node: 0, AtCycle: -1, To: 2, Count: 4, Dur: 10 * vclock.Millisecond},
		{Kind: Crash, Node: 3, AtCycle: -1, To: -1, At: vclock.Time(250 * vclock.Millisecond)},
	}
	for i := range want {
		if faults[i] != want[i] {
			t.Errorf("fault %d: got %+v want %+v", i, faults[i], want[i])
		}
	}
	// Parsed specs must validate.
	if _, err := NewSet(4, faults); err != nil {
		t.Fatalf("parsed specs failed validation: %v", err)
	}

	bad := []string{
		"boom:node=1",
		"crash:node",
		"crash:cycle=1",
		"drop:node=0,after=1",
		"crash:node=x,cycle=1",
		"stall:node=1,cycle=1,dur=banana",
		"crash:node=1,cycle=1,flavor=up",
		// Nothing reads a trigger on a message fault.
		"drop:node=0,to=1,cycle=3",
		"delay:node=0,to=1,dur=1ms,t=0.5",
	}
	for _, spec := range bad {
		if _, err := ParseSpecs(spec); err == nil {
			t.Errorf("ParseSpecs(%q) accepted invalid spec", spec)
		}
	}

	// A time trigger that is not a finite non-negative time is rejected by
	// name, before NewSet could mistake it for a missing trigger.
	for _, spec := range []string{"crash:node=1,t=NaN", "crash:node=1,t=+Inf", "crash:node=1,t=-3"} {
		if _, err := ParseSpecs(spec); err == nil || !strings.Contains(err.Error(), "t=") {
			t.Errorf("ParseSpecs(%q) = %v, want an error naming t", spec, err)
		}
	}
	// A node fault with neither trigger parses, and NewSet rejects it
	// instead of crashing the node at t = 0.
	for _, spec := range []string{"crash:node=1", "stall:node=1,dur=5ms"} {
		fs, err := ParseSpecs(spec)
		if err != nil {
			t.Fatalf("ParseSpecs(%q): %v", spec, err)
		}
		if _, err := NewSet(4, fs); err == nil || !strings.Contains(err.Error(), "needs cycle or time trigger") {
			t.Errorf("NewSet(%q) = %v, want a missing-trigger error", spec, err)
		}
	}
	// t=0 is a trigger.
	if fs, err := ParseSpecs("crash:node=1,t=0"); err != nil || fs[0].At != 0 {
		t.Errorf("ParseSpecs(t=0) = %+v, %v", fs, err)
	} else if _, err := NewSet(4, fs); err != nil {
		t.Errorf("NewSet(t=0): %v", err)
	}
}

// TestParsedMessageFaultsEqualBuilt: a drop or delay spec parses to exactly
// the fault DropMsgs or DelayMsgs builds, the unset trigger included.
func TestParsedMessageFaultsEqualBuilt(t *testing.T) {
	parsed, err := ParseSpecs("drop:node=0,to=1,after=2,count=3;delay:node=2,to=1,count=4,dur=10ms;drop:node=3,to=0")
	if err != nil {
		t.Fatal(err)
	}
	built := []Fault{
		DropMsgs(0, 1, 2, 3),
		DelayMsgs(2, 1, 0, 4, 10*vclock.Millisecond),
		DropMsgs(3, 0, 0, 0),
	}
	if !reflect.DeepEqual(parsed, built) {
		t.Fatalf("ParseSpecs gave %+v, the helpers %+v", parsed, built)
	}
}
