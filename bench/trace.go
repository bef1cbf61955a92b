package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call from bench/ into a layer. Spans of one phase cycle
// share the cycle span as parent; a span opened inside another (the interior
// kernel folded into an overlapped halo exchange) names that one instead.
type span struct {
	Name   string `json:"name"`
	World  int    `json:"world"` // index of the world run within the trace
	Rank   int    `json:"rank"`
	Cycle  int    `json:"cycle"` // -1 outside the cycle loop
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0: none
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the benchmark ends. Each rank records
// into its own rankTrace without locking and hands the batch over when its
// body returns.
type spanLog struct {
	epoch time.Time

	mu     sync.Mutex
	worlds int
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// world reserves the next world index.
func (l *spanLog) world() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.worlds++
	return l.worlds
}

// take removes and returns everything recorded so far.
func (l *spanLog) take() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.spans
	l.spans = nil
	return out
}

// rankTrace records one rank's spans. A nil *rankTrace records nothing, so
// the rank body is written once for traced and untraced runs.
type rankTrace struct {
	log         *spanLog
	world, rank int
	spans       []span
}

func (l *spanLog) rank(world, rank int) *rankTrace {
	if l == nil {
		return nil
	}
	return &rankTrace{log: l, world: world, rank: rank}
}

// begin opens a span and returns its id (0 when not tracing).
func (t *rankTrace) begin(name string, cycle int, parent int64) int64 {
	if t == nil {
		return 0
	}
	// Unique across the log: world, rank and a per-rank sequence number.
	id := int64(t.world)<<44 | int64(t.rank)<<24 | int64(len(t.spans)+1)
	t.spans = append(t.spans, span{
		Name: name, World: t.world, Rank: t.rank, Cycle: cycle, ID: id, Parent: parent,
		Start: int64(time.Since(t.log.epoch)),
	})
	return id
}

// at returns the span begin returned id for: the low 24 bits of an id are
// its position in the rank's log, from 1.
func (t *rankTrace) at(id int64) *span { return &t.spans[id&(1<<24-1)-1] }

// end closes a span.
func (t *rankTrace) end(id int64) {
	if t != nil {
		t.at(id).End = int64(time.Since(t.log.epoch))
	}
}

// rename retitles a span (a BeginCycle call turns out to have
// redistributed only once it returns).
func (t *rankTrace) rename(id int64, name string) {
	if t != nil {
		t.at(id).Name = name
	}
}

// flush hands the rank's spans to the log.
func (t *rankTrace) flush() {
	if t == nil {
		return
	}
	t.log.mu.Lock()
	t.log.spans = append(t.log.spans, t.spans...)
	t.log.mu.Unlock()
	t.spans = nil
}

// spanStats folds spans into per-name samples of host microseconds. Spans
// of one name under one cycle span are summed first, so a kernel split into
// a boundary and an interior call counts once per cycle, and a span's own
// time excludes what its children cover.
type spanStats struct {
	us map[string][]float64
}

func (s *spanStats) add(spans []span) {
	if s.us == nil {
		s.us = map[string][]float64{}
	}
	child := map[int64]int64{} // parent id -> time covered by children
	for _, sp := range spans {
		if sp.Parent != 0 {
			child[sp.Parent] += sp.End - sp.Start
		}
	}
	type key struct {
		name        string
		world, rank int
		cycle       int
	}
	sums := map[key]int64{}
	var order []key
	for _, sp := range spans {
		self := sp.End - sp.Start
		if sp.Name != spanCycle {
			self -= child[sp.ID] // the cycle span is reported whole
		}
		k := key{sp.Name, sp.World, sp.Rank, sp.Cycle}
		if _, seen := sums[k]; !seen {
			order = append(order, k)
		}
		sums[k] += self
	}
	for _, k := range order {
		s.us[k.name] = append(s.us[k.name], float64(sums[k])/1e3)
	}
}

// p50 reports the median sample of a span name, or 0 when it never ran.
func (s *spanStats) p50(name string) float64 { return quantile(s.us[name], 0.5) }

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
