package sweep

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/fault"
	"repro/internal/telemetry"
)

// replayRun is what one copy of a world leaves to compare: its sorted
// record stream as JSONL and its application result.
type replayRun struct {
	jsonl []byte
	res   apps.Result
}

// replayDiff describes the first difference between two runs of one world,
// or returns "" when they are the same bytes and the same result.
func replayDiff(a, b replayRun) string {
	if !bytes.Equal(a.jsonl, b.jsonl) {
		al, bl := bytes.Split(a.jsonl, []byte("\n")), bytes.Split(b.jsonl, []byte("\n"))
		for i := range min(len(al), len(bl)) {
			if !bytes.Equal(al[i], bl[i]) {
				return fmt.Sprintf("record %d differs:\n %s\n %s", i, al[i], bl[i])
			}
		}
		return fmt.Sprintf("%d records against %d", len(al), len(bl))
	}
	if !reflect.DeepEqual(a.res, b.res) {
		return fmt.Sprintf("result differs:\n %+v\n %+v", a.res, b.res)
	}
	return ""
}

// TestTwoVictimCrashReplays is the replay oracle: "same spec, same bytes"
// needs no model of the right answer, so it holds wherever a world can run.
// Each of the smoke grid's 48 crash cells gets a second victim — node 3 or
// the root, node 0, at cycle 12 beside the first victim or at cycle 13 — and
// each of those 192 worlds runs twice in one RunWorlds call, at positions i
// and i+192, so the two copies run at different times and, mostly, on
// different workers. Their sorted record streams and their results (the
// makespan, both checksums and every rank's statistics) must be equal, and
// both victims must die. -short keeps victim 3 at cycle 12.
func TestTwoVictimCrashReplays(t *testing.T) {
	victims := []struct{ node, cycle int }{{3, 12}, {3, 13}, {0, 12}, {0, 13}}
	if testing.Short() {
		victims = victims[:1]
	}
	g := Smoke()
	var worlds []World
	var names []string
	for _, c := range g.Cells() {
		if c.Fault != "crash" {
			continue
		}
		for _, v := range victims {
			w := g.World(c)
			w.Spec.Faults = append(w.Spec.Faults, fault.CrashAtCycle(v.node, v.cycle))
			worlds = append(worlds, w)
			names = append(names, fmt.Sprintf("%s+crash%d@%d", c.Key(), v.node, v.cycle))
		}
	}
	n := len(worlds)
	if n != 48*len(victims) {
		t.Fatalf("%d two-victim worlds, want %d", n, 48*len(victims))
	}
	first := make([]*replayRun, n)
	replayed := 0
	RunWorlds(append(worlds, worlds...), 4, func(i int, o Outcome) {
		k := i % n
		if o.Err != nil {
			t.Errorf("%s (copy %d): %v", names[k], i/n, o.Err)
			return
		}
		crashed := 0
		for _, rs := range o.Res.Stats {
			if rs.Crashed {
				crashed++
			}
		}
		if crashed != 2 {
			t.Errorf("%s (copy %d): %d ranks crashed, want 2", names[k], i/n, crashed)
		}
		recs := o.Ring.Records()
		telemetry.Sort(recs)
		var buf bytes.Buffer
		if err := telemetry.WriteJSONL(&buf, recs); err != nil {
			t.Errorf("%s: encode: %v", names[k], err)
			return
		}
		run := &replayRun{jsonl: buf.Bytes(), res: o.Res}
		if first[k] == nil {
			first[k] = run
			return
		}
		if d := replayDiff(*first[k], *run); d != "" {
			t.Errorf("%s does not replay: %s", names[k], d)
		}
		first[k] = nil
		replayed++
	})
	if replayed != n && !t.Failed() {
		t.Errorf("%d of %d worlds replayed", replayed, n)
	}
}
