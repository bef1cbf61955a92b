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
// The two kinds emitted on every rank every cycle travel by value through
// their own methods — a struct argument to an interface method is not boxed,
// so a sink that stores them typed (Ring) costs a cycle no allocation. Every
// other kind goes through Emit; handing Emit one of the two means the same.
type Sink interface {
	Emit(Record)
	EmitIteration(IterationRecord)
	EmitLoadSample(LoadSampleRecord)
}

// fifo is a queue kept in fixed-size chunks: growing it never copies a
// record and over-allocates by at most one chunk, and a chunk drained at
// the head is reused at the tail, so a full Ring evicts without allocating.
type fifo[T any] struct {
	chunks [][]T // each of length 1<<bits
	bits   uint8
	head   int // offset of the oldest element in chunks[0]
	n      int
}

func (q *fifo[T]) push(v T) {
	if (q.head+q.n)>>q.bits == len(q.chunks) {
		q.chunks = append(q.chunks, make([]T, 1<<q.bits))
	}
	q.n++
	*q.at(q.n - 1) = v
}

// at returns the i-th oldest element.
func (q *fifo[T]) at(i int) *T {
	pos := q.head + i
	return &q.chunks[pos>>q.bits][pos&(1<<q.bits-1)]
}

func (q *fifo[T]) drop() {
	q.n--
	if q.head++; q.head == 1<<q.bits {
		spare := q.chunks[0]
		copy(q.chunks, q.chunks[1:])
		q.chunks[len(q.chunks)-1] = spare
		q.head = 0
	}
}

// Ring is a bounded in-memory sink. When full it drops the oldest records,
// keeping the most recent ones; Dropped reports how many were lost. The two
// by-value kinds are held typed, every other kind as the Record it arrived
// as; order names the store of each held record, oldest first, so arrival
// order and oldest-first eviction span the stores.
type Ring struct {
	mu      sync.Mutex
	max     int
	order   fifo[uint8]
	iters   fifo[IterationRecord]
	loads   fifo[LoadSampleRecord]
	others  fifo[Record]
	dropped int
}

// The stores of a Ring, as order names them.
const (
	storeIter uint8 = iota
	storeLoad
	storeOther
)

// NewRing creates a ring buffer holding up to capacity records.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		panic("telemetry: non-positive ring capacity")
	}
	// A sweep's world emits a few hundred records: one 1024-entry index chunk.
	r := &Ring{max: capacity, order: fifo[uint8]{bits: 10}}
	r.iters.bits, r.loads.bits, r.others.bits = 6, 6, 6
	return r
}

// ringPush appends rec to q, the store of r that order calls store.
func ringPush[T any](r *Ring, q *fifo[T], store uint8, rec T) {
	r.mu.Lock()
	if r.order.n == r.max {
		switch *r.order.at(0) {
		case storeIter:
			r.iters.drop()
		case storeLoad:
			r.loads.drop()
		default:
			r.others.drop()
		}
		r.order.drop()
		r.dropped++
	}
	r.order.push(store)
	q.push(rec)
	r.mu.Unlock()
}

// Emit implements Sink.
func (r *Ring) Emit(rec Record) {
	switch v := rec.(type) {
	case IterationRecord:
		r.EmitIteration(v)
	case LoadSampleRecord:
		r.EmitLoadSample(v)
	default:
		ringPush(r, &r.others, storeOther, rec)
	}
}

// EmitIteration and EmitLoadSample implement Sink.
func (r *Ring) EmitIteration(rec IterationRecord)   { ringPush(r, &r.iters, storeIter, rec) }
func (r *Ring) EmitLoadSample(rec LoadSampleRecord) { ringPush(r, &r.loads, storeLoad, rec) }

// Visitor receives a Ring's records without boxing the by-value kinds; a
// nil function skips its records. The pointers are into the ring's storage,
// valid until an emission evicts the record; the functions must not emit.
type Visitor struct {
	Iteration  func(*IterationRecord)
	LoadSample func(*LoadSampleRecord)
	Other      func(Record) // every kind that arrived through Emit
}

// Walk visits the held records in arrival order.
func (r *Ring) Walk(v Visitor) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var next [storeOther + 1]int // per store, the next record to visit
	for i := 0; i < r.order.n; i++ {
		store := *r.order.at(i)
		switch j := next[store]; {
		case store == storeIter && v.Iteration != nil:
			v.Iteration(r.iters.at(j))
		case store == storeLoad && v.LoadSample != nil:
			v.LoadSample(r.loads.at(j))
		case store == storeOther && v.Other != nil:
			v.Other(*r.others.at(j))
		}
		next[store]++
	}
}

// Records materialises a snapshot of the held records in arrival order,
// boxing each by-value record: the post-run path of traces and summaries.
func (r *Ring) Records() []Record {
	out := make([]Record, 0, r.Len())
	r.Walk(Visitor{
		Iteration:  func(v *IterationRecord) { out = append(out, *v) },
		LoadSample: func(v *LoadSampleRecord) { out = append(out, *v) },
		Other:      func(rec Record) { out = append(out, rec) },
	})
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
	return r.order.n
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

// EmitIteration and EmitLoadSample implement Sink.
func (j *JSONLWriter) EmitIteration(rec IterationRecord)   { j.Emit(rec) }
func (j *JSONLWriter) EmitLoadSample(rec LoadSampleRecord) { j.Emit(rec) }

// Flush flushes buffered output and returns the first error encountered.
func (j *JSONLWriter) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.w.Flush(); err != nil && j.err == nil {
		j.err = err
	}
	return j.err
}

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

// decodeAs parses one JSONL line as a T.
func decodeAs[T Record](raw []byte) (Record, error) {
	var v T
	err := json.Unmarshal(raw, &v)
	return v, err
}

// decoders maps every kind the runtime emits to its record type.
var decoders = map[string]func([]byte) (Record, error){
	KindIteration:  decodeAs[IterationRecord],
	KindDecision:   decodeAs[DecisionRecord],
	KindRedist:     decodeAs[RedistRecord],
	KindMembership: decodeAs[MembershipRecord],
	KindLoadSample: decodeAs[LoadSampleRecord],
	KindLoadEvent:  decodeAs[LoadEventRecord],
	KindFailure:    decodeAs[FailureRecord],
	KindCollective: decodeAs[CollectiveRecord],
	KindRMA:        decodeAs[RMARecord],
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
		decode, ok := decoders[base.K]
		if !ok {
			return nil, fmt.Errorf("telemetry: line %d: unknown kind %q", line, base.K)
		}
		rec, err := decode(raw)
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
