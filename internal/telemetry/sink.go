package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Sink receives telemetry records. Implementations must be safe for
// concurrent use: every rank goroutine of a run emits into the same sink.
type Sink interface {
	Emit(Record)
}

// nopSink swallows everything.
type nopSink struct{}

func (nopSink) Emit(Record) {}

// Nop returns the no-op sink.
func Nop() Sink { return nopSink{} }

// Ring is a bounded in-memory sink. When full it drops the oldest records,
// keeping the most recent ones; Dropped reports how many were lost.
type Ring struct {
	mu      sync.Mutex
	buf     []Record // grows by doubling up to max, then wraps
	max     int
	start   int // index of the oldest record
	n       int // records currently held
	dropped int
}

// ringInitial is the slot count a Ring starts with: most worlds of a sweep
// emit far fewer records than the capacity their ring is allowed.
const ringInitial = 256

// NewRing creates a ring buffer holding up to capacity records.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		panic("telemetry: non-positive ring capacity")
	}
	return &Ring{buf: make([]Record, min(capacity, ringInitial)), max: capacity}
}

// Emit implements Sink.
func (r *Ring) Emit(rec Record) {
	r.mu.Lock()
	if r.n == len(r.buf) && !r.grow() {
		r.buf[r.start] = rec
		r.start = (r.start + 1) % len(r.buf)
		r.dropped++
	} else {
		r.buf[(r.start+r.n)%len(r.buf)] = rec
		r.n++
	}
	r.mu.Unlock()
}

// grow doubles a full buffer, up to max, and reports whether it could.
// Nothing has been evicted before the buffer reaches max, so start is 0
// and the held records are buf[:n] in arrival order: a plain copy.
func (r *Ring) grow() bool {
	if len(r.buf) == r.max {
		return false
	}
	grown := make([]Record, min(2*len(r.buf), r.max))
	copy(grown, r.buf)
	r.buf = grown
	return true
}

// Records returns a snapshot of the held records in arrival order.
func (r *Ring) Records() []Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Record, r.n)
	for i := 0; i < r.n; i++ {
		out[i] = r.buf[(r.start+i)%len(r.buf)]
	}
	return out
}

// Dropped reports how many records were evicted because the ring was full.
func (r *Ring) Dropped() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Len reports the number of records currently held.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// JSONLWriter encodes each record as one JSON object per line. Encoding
// happens under a mutex in arrival order; for a deterministic file, collect
// into a Ring, Sort, and use WriteJSONL instead.
type JSONLWriter struct {
	mu  sync.Mutex
	w   *bufio.Writer
	err error
}

// NewJSONLWriter creates a JSONL sink over w.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	return &JSONLWriter{w: bufio.NewWriter(w)}
}

// Emit implements Sink.
func (j *JSONLWriter) Emit(rec Record) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	b, err := json.Marshal(rec)
	if err == nil {
		_, err = j.w.Write(append(b, '\n'))
	}
	if err != nil {
		j.err = err
	}
}

// Flush flushes buffered output and returns the first error encountered.
func (j *JSONLWriter) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.w.Flush(); err != nil && j.err == nil {
		j.err = err
	}
	return j.err
}

// multiSink fans every record out to several sinks.
type multiSink []Sink

func (m multiSink) Emit(rec Record) {
	for _, s := range m {
		s.Emit(rec)
	}
}

// Multi returns a sink that forwards every record to all of sinks.
func Multi(sinks ...Sink) Sink { return multiSink(sinks) }

// WriteJSONL writes records to w, one JSON object per line, in slice order.
func WriteJSONL(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// DecodeJSONL parses a JSONL trace back into typed records. Unknown kinds
// are an error, so traces and decoder stay in sync.
func DecodeJSONL(r io.Reader) ([]Record, error) {
	var out []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var base Base
		if err := json.Unmarshal(raw, &base); err != nil {
			return nil, fmt.Errorf("telemetry: line %d: %w", line, err)
		}
		var rec Record
		var err error
		switch base.K {
		case KindIteration:
			var v IterationRecord
			err = json.Unmarshal(raw, &v)
			rec = v
		case KindDecision:
			var v DecisionRecord
			err = json.Unmarshal(raw, &v)
			rec = v
		case KindRedist:
			var v RedistRecord
			err = json.Unmarshal(raw, &v)
			rec = v
		case KindMembership:
			var v MembershipRecord
			err = json.Unmarshal(raw, &v)
			rec = v
		case KindLoadSample:
			var v LoadSampleRecord
			err = json.Unmarshal(raw, &v)
			rec = v
		case KindLoadEvent:
			var v LoadEventRecord
			err = json.Unmarshal(raw, &v)
			rec = v
		case KindFailure:
			var v FailureRecord
			err = json.Unmarshal(raw, &v)
			rec = v
		default:
			return nil, fmt.Errorf("telemetry: line %d: unknown kind %q", line, base.K)
		}
		if err != nil {
			return nil, fmt.Errorf("telemetry: line %d: %w", line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
