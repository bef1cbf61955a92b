package mpi

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"
)

// streams is a partitioned random source: one master seed and an
// independent sub-stream per named concern, so drawing more from one
// concern (one more send, say) leaves every other concern's draws as they
// were.
type streams struct{ seed int64 }

func (s streams) of(name string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(name))
	return rand.New(rand.NewSource(s.seed ^ int64(h.Sum64())))
}

// matchMsg is one message of the model check; id numbers it in send order.
type matchMsg struct{ src, tag, id int }

// refRecv is a receive in the reference model; got is nil while it is
// posted.
type refRecv struct {
	src, tag int
	got      *matchMsg
}

func (r *refRecv) accepts(m matchMsg) bool {
	return (r.src == AnySource || r.src == m.src) && (r.tag == AnyTag || r.tag == m.tag)
}

// matchRef is the reference matching engine: the messages nobody has
// received yet in arrival order, and the posted receives in post order. A
// message fills the first posted receive that accepts it, else it queues;
// a receive takes the oldest queued message it accepts, else it is posted.
type matchRef struct {
	queue  []matchMsg
	posted []*refRecv
}

func (m *matchRef) send(msg matchMsg) {
	for i, r := range m.posted {
		if r.accepts(msg) {
			r.got = &msg
			m.posted = slices.Delete(m.posted, i, i+1)
			return
		}
	}
	m.queue = append(m.queue, msg)
}

func (m *matchRef) post(src, tag int) *refRecv {
	r := &refRecv{src: src, tag: tag}
	for i, msg := range m.queue {
		if r.accepts(msg) {
			r.got = &msg
			m.queue = slices.Delete(m.queue, i, i+1)
			return r
		}
	}
	m.posted = append(m.posted, r)
	return r
}

// matchEvent is one step of a model-check schedule. Sends are performed by
// their source rank, everything else by rank 0.
type matchEvent struct {
	kind     byte // 's' Send, 'i' Irecv, 'r' blocking Recv, 'w' Wait
	rank     int
	src, tag int      // the message's key, or the receive's pattern
	id       int      // the message id of a send; the request index of 'i' and 'w'
	parks    bool     // nothing queued fills it: the sends that follow do
	want     *refRecv // the model's receive, for 'r' and 'w'
}

// matchSchedule is one seeded schedule and what it covers.
type matchSchedule struct {
	ranks    int
	keys     int // distinct (src,tag) keys sent
	maxDepth int // most messages queued at once in the model
	evs      []matchEvent
}

// msgBytes is the wire size the model check gives message id, so Status
// carries something per message besides the key.
func msgBytes(id int) int { return 8 * (1 + id%3) }

// genMatchSchedule draws a schedule for seed from four sub-streams: keys
// (the world size and the key set), sends (the interleaving and which key
// each send uses), recvs (receive kinds and patterns) and waits (the order
// requests are waited on). It runs the reference model alongside, so every
// receive and wait carries the message it must return.
func genMatchSchedule(seed int64) matchSchedule {
	st := streams{seed}
	kr, sr, rr, wr := st.of("keys"), st.of("sends"), st.of("recvs"), st.of("waits")
	s := matchSchedule{ranks: 3 + kr.Intn(2)}
	var keys [][2]int
	for n := 10 + kr.Intn(7); len(keys) < n; {
		k := [2]int{1 + kr.Intn(s.ranks-1), kr.Intn(40)}
		if !slices.Contains(keys, k) {
			keys = append(keys, k)
		}
	}
	s.keys = len(keys)
	var ref matchRef
	var reqs []*refRecv // by request index
	var open []int      // requests not waited yet
	nextID := 0
	send := func(k [2]int) {
		s.evs = append(s.evs, matchEvent{kind: 's', rank: k[0], src: k[0], tag: k[1], id: nextID})
		ref.send(matchMsg{k[0], k[1], nextID})
		nextID++
		s.maxDepth = max(s.maxDepth, len(ref.queue))
	}
	// fill sends until r is filled, every other send steered to a key r
	// accepts.
	fill := func(r *refRecv) {
		for r.got == nil {
			k := keys[sr.Intn(len(keys))]
			if sr.Intn(2) == 0 {
				var ok [][2]int
				for _, k := range keys {
					if r.accepts(matchMsg{src: k[0], tag: k[1]}) {
						ok = append(ok, k)
					}
				}
				k = ok[sr.Intn(len(ok))]
			}
			send(k)
		}
	}
	wait := func(q int) {
		r := reqs[q]
		s.evs = append(s.evs, matchEvent{kind: 'w', id: q, parks: r.got == nil, want: r})
		fill(r)
	}
	for len(s.evs) < 300 {
		switch x := sr.Intn(10); {
		case x < 5:
			for b := 1 + sr.Intn(6); b > 0; b-- {
				send(keys[sr.Intn(len(keys))])
			}
		case x < 7:
			k := keys[rr.Intn(len(keys))]
			s.evs = append(s.evs, matchEvent{kind: 'i', src: k[0], tag: k[1], id: len(reqs)})
			reqs = append(reqs, ref.post(k[0], k[1]))
			open = append(open, len(reqs)-1)
		case x < 9:
			k := keys[rr.Intn(len(keys))]
			src, tag := k[0], k[1]
			switch rr.Intn(4) {
			case 1:
				src = AnySource
			case 2:
				tag = AnyTag
			case 3:
				src, tag = AnySource, AnyTag
			}
			r := ref.post(src, tag)
			s.evs = append(s.evs, matchEvent{kind: 'r', src: src, tag: tag, parks: r.got == nil, want: r})
			fill(r)
		default:
			if len(open) > 0 {
				i := wr.Intn(len(open))
				q := open[i]
				open = slices.Delete(open, i, i+1)
				wait(q)
			}
		}
	}
	// Wait for every open request in random order, then take what is left.
	wr.Shuffle(len(open), func(i, j int) { open[i], open[j] = open[j], open[i] })
	for _, q := range open {
		wait(q)
	}
	for len(ref.queue) > 0 {
		s.evs = append(s.evs, matchEvent{kind: 'r', src: AnySource, tag: AnyTag, want: ref.post(AnySource, AnyTag)})
	}
	return s
}

// runMatchSchedule runs s on a world of s.ranks ranks and returns what each
// of rank 0's receives and waits returned, by event index. The ranks take
// turns in schedule order, handing one token over Go channels, and a send
// delivers before it returns, so arrival order is schedule order. A receive
// or wait that parks hands the token on first: the sends that fill it come
// next. parkWorld's watchdog turns a receive the model fills but the world
// never does into a failure.
func runMatchSchedule(t *testing.T, s matchSchedule) []string {
	t.Helper()
	turn := make([]chan struct{}, s.ranks)
	for r := range turn {
		turn[r] = make(chan struct{}, 1)
	}
	turn[s.evs[0].rank] <- struct{}{}
	got := make([]string, len(s.evs))
	body := func(c *Comm) error {
		reqs := map[int]*Request{}
		for i, ev := range s.evs {
			if ev.rank != c.Rank() {
				continue
			}
			<-turn[ev.rank]
			pass := func() {
				if i+1 < len(s.evs) {
					turn[s.evs[i+1].rank] <- struct{}{}
				}
			}
			if ev.parks {
				pass()
			}
			switch ev.kind {
			case 's':
				c.Send(0, ev.tag, ev.id, msgBytes(ev.id))
			case 'i':
				reqs[ev.id] = c.Irecv(ev.src, ev.tag)
			case 'r':
				p, st := c.Recv(ev.src, ev.tag)
				got[i] = fmt.Sprint(p, st)
			case 'w':
				p, st := c.Wait(reqs[ev.id])
				got[i] = fmt.Sprint(p, st)
			}
			if !ev.parks {
				pass()
			}
		}
		return nil
	}
	w := parkWorld(t, s.ranks, nil, body)
	if n := w.QueuedMsgs(0); n != 0 {
		t.Errorf("%d envelopes left queued, want 0", n)
	}
	return got
}

// TestMatchingAgreesWithReferenceModel runs seeded schedules of sends,
// posted and blocking receives (specific and wildcard) and waits in random
// order against a three- or four-rank world, and checks every payload and
// Status rank 0 receives against the reference model. The schedules use more
// distinct keys than eight and queue more than four messages at once, past
// the inline capacity of a mailbox's store.
func TestMatchingAgreesWithReferenceModel(t *testing.T) {
	const seeds = 24
	maxDepth, parked, wild := 0, 0, 0
	for seed := int64(1); seed <= seeds; seed++ {
		s := genMatchSchedule(seed)
		if s.keys <= 8 {
			t.Fatalf("seed %d: %d keys, want more than 8", seed, s.keys)
		}
		maxDepth = max(maxDepth, s.maxDepth)
		got := runMatchSchedule(t, s)
		for i, ev := range s.evs {
			if ev.want == nil {
				continue
			}
			if ev.parks {
				parked++
			}
			if ev.src == AnySource || ev.tag == AnyTag {
				wild++
			}
			m := ev.want.got
			want := fmt.Sprint(m.id, Status{Source: m.src, Tag: m.tag, Bytes: msgBytes(m.id)})
			if got[i] != want {
				t.Fatalf("seed %d event %d (%c src %d tag %d): got %s, want %s", seed, i, ev.kind, ev.src, ev.tag, got[i], want)
			}
		}
	}
	t.Logf("deepest queue %d, %d parked receives, %d wildcard receives", maxDepth, parked, wild)
	if maxDepth <= 4 || parked == 0 || wild == 0 {
		t.Fatalf("coverage: deepest queue %d, %d parked receives, %d wildcard receives", maxDepth, parked, wild)
	}
}
