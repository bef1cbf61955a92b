package alloctest

import (
	"sync"
	"testing"
)

// node has a pointer field so new(node) is a real heap object, never a
// tiny-allocator share.
type node struct{ next *node }

var sink *node

// slack is the meter's noise on these tests' parked goroutines. Without
// -race both read exactly 0 and k on 300 of 300 runs, and on 599 of 600
// with the CPUs busy elsewhere; under -race they read within 1 of 0 and k,
// exactly on them in four runs of five. A world of ranks reads noisier (see
// Extra).
const slack = 2

// park passes a token k times around a ring of 64 goroutines, each parked
// on its own channel between turns, the way a world's ranks park between
// collectives, and waits for them to exit, as a world does for its ranks.
// With alloc, every repetition also allocates one object.
func park(k int, alloc bool) {
	const n = 64
	ch := make([]chan struct{}, n+1)
	for i := range ch {
		ch[i] = make(chan struct{})
	}
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(in, out chan struct{}) {
			defer wg.Done()
			for range k {
				<-in
				out <- struct{}{}
			}
		}(ch[i], ch[i+1])
	}
	for range k {
		if alloc {
			sink = &node{next: sink}
		}
		ch[0] <- struct{}{}
		<-ch[n]
	}
	wg.Wait()
	sink = nil
}

// Goroutines that park every repetition and allocate nothing read as
// allocation-free: the sudog caches and run queues the parks go through
// are the runtime's, and on one P they are warm after the first run.
func TestParkingAllocFree(t *testing.T) {
	const k = 1000
	extra := Extra(k, func(k int) { park(k, false) })
	t.Logf("%d extra repetitions: %d mallocs", k, extra)
	if extra > slack {
		t.Errorf("%d extra repetitions of 64 parked goroutines cost %d mallocs, want at most %d", k, extra, slack)
	}
}

// The same run with one object per repetition reads k: the meter sees a
// single allocation per cycle through any amount of parking.
func TestParkingPlusOneNewNotAllocFree(t *testing.T) {
	const k = 1000
	extra := Extra(k, func(k int) { park(k, true) })
	t.Logf("%d extra repetitions: %d mallocs", k, extra)
	if extra < k-slack {
		t.Errorf("%d extra repetitions with one new each read %d mallocs, want at least %d", k, extra, k-slack)
	}
}
