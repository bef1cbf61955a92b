package exp

import (
	"math"
	"testing"

	"repro/internal/telemetry"
)

// redist is one node's redistribution record spanning [start, end] virtual
// seconds at cycle.
func redist(cycle int, start, end float64) telemetry.RedistRecord {
	return telemetry.RedistRecord{Base: telemetry.Base{K: telemetry.KindRedist, Cycle: cycle, Time: end}, StartVT: start}
}

func TestLastRedistEnd(t *testing.T) {
	s, c, ok := lastRedistEnd([]telemetry.RedistRecord{redist(8, 2.4, 2.5), redist(20, 5.0, 5.1)})
	if !ok || s != 5.1 || c != 20 {
		t.Fatalf("lastRedistEnd = %v %v %v", s, c, ok)
	}
}

func TestAvgCycleAfterRedist(t *testing.T) {
	byNode := [][]telemetry.RedistRecord{
		{redist(20, 1.9, 2.0)},
		nil, // a node that never redistributed
	}
	avg, ok := avgCycleAfterRedist(byNode, 12.0, 120)
	if !ok {
		t.Fatal("no average")
	}
	want := (12.0 - 2.0) / 100
	if math.Abs(avg-want) > 1e-12 {
		t.Fatalf("avg = %v, want %v", avg, want)
	}
	// No redistribution anywhere -> not ok.
	if _, ok := avgCycleAfterRedist([][]telemetry.RedistRecord{nil}, 0, 10); ok {
		t.Fatal("expected no average without redistribution")
	}
	// Redistribution on the final cycle -> no post-redist cycles.
	if _, ok := avgCycleAfterRedist([][]telemetry.RedistRecord{{redist(10, 4.9, 5)}}, 5, 10); ok {
		t.Fatal("expected no average when redistribution ends the run")
	}
}

func TestTotalRedistSeconds(t *testing.T) {
	byNode := [][]telemetry.RedistRecord{
		{redist(0, 1.0, 1.2), redist(0, 4.0, 4.3)},
		{redist(0, 1.0, 1.1)},
	}
	got := totalRedistSeconds(byNode)
	if math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("totalRedistSeconds = %v, want 0.5 (slowest node)", got)
	}
}

func TestFormatters(t *testing.T) {
	if f2(1.234) != "1.23" || f3(1.2345) != "1.234" {
		t.Fatal("float formatters")
	}
	if pct(0.256) != "26%" {
		t.Fatalf("pct = %s", pct(0.256))
	}
	if pad("ab", 4) != "ab  " || pad("abcd", 2) != "abcd" {
		t.Fatal("pad")
	}
}
