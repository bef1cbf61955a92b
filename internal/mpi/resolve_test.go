package mpi

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
)

// deadlockWorld runs body on an n-rank world that must fail with a
// *DeadlockError naming every wait in waits. A 3 s watchdog backs the rule
// up: a world that hangs instead fails the test.
func deadlockWorld(t *testing.T, n int, waits []string, body func(c *Comm) error) {
	t.Helper()
	w := NewWorld(cluster.New(cluster.Uniform(n)))
	done := make(chan error, 1)
	go func() { done <- w.Run(body) }()
	var err error
	select {
	case err = <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("world hung instead of failing with a DeadlockError")
	}
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("want a *DeadlockError, got %v", err)
	}
	if len(dl.Waits) != len(waits) {
		t.Errorf("deadlock names %d waits, want %d: %v", len(dl.Waits), len(waits), err)
	}
	for _, want := range waits {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("deadlock %q does not name %q", err, want)
		}
	}
}

// TestDeadlockMutualRecv: two ranks each receive from the other.
func TestDeadlockMutualRecv(t *testing.T) {
	deadlockWorld(t, 2, []string{"rank 0 in recv from 1 tag 4", "rank 1 in recv from 0 tag 4"}, func(c *Comm) error {
		c.Recv(1-c.Rank(), 4)
		return nil
	})
}

// TestDeadlockRecvFromReturnedRank: a rank receives from a rank that has
// returned without sending. The source is not dead, so no RankFailedError
// applies; nothing can ever fill the receive.
func TestDeadlockRecvFromReturnedRank(t *testing.T) {
	deadlockWorld(t, 2, []string{"rank 0 in recv from 1 tag 7"}, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Recv(1, 7)
		}
		return nil
	})
}

// TestDeadlockBarrierMemberNeverEnters: one member of a barrier returns
// without entering it.
func TestDeadlockBarrierMemberNeverEnters(t *testing.T) {
	deadlockWorld(t, 3, []string{"rank 0 in collective 0 over [0 1 2]", "rank 1 in collective 0 over [0 1 2]"}, func(c *Comm) error {
		if c.Rank() != 2 {
			c.Barrier(c.World().AllGroup())
		}
		return nil
	})
}

// TestDeadlockWildcardBesideCollective: a wildcard receive parks beside a
// collective that needs its rank. Not every wait is a wildcard receive, so
// the stall rule does not apply.
func TestDeadlockWildcardBesideCollective(t *testing.T) {
	deadlockWorld(t, 3, []string{"rank 0 in recv from -1 tag 2", "rank 1 in collective 0 over [0 1 2]", "rank 2 in collective 0 over [0 1 2]"}, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Recv(AnySource, 2)
		}
		c.Barrier(c.World().AllGroup())
		return nil
	})
}

// TestLaunchIsNeverQuiescent: in 500 eight-rank worlds every rank starts by
// parking — the even ranks, rank 0 launched first among them, in a wildcard
// receive, the odd ones in a collective among themselves that then sends
// each even neighbour its message. Seed ranks are counted before any
// launches, so a rank that parks before its peers start never finds the
// world quiescent: none may fail. GOMAXPROCS 8 gives a launched rank idle
// processors to start on before the launcher is done.
func TestLaunchIsNeverQuiescent(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for i := 0; i < 500; i++ {
				err := Run(cluster.New(cluster.Uniform(8)), func(c *Comm) error {
					if c.Rank()%2 == 0 {
						c.Recv(AnySource, 0)
						return nil
					}
					c.AllreduceSum(c.World().NewGroup([]int{1, 3, 5, 7}), 1)
					c.Send(c.Rank()-1, 0, nil, 8)
					return nil
				})
				if err != nil {
					t.Fatalf("world %d: %v", i, err)
				}
			}
		})
	}
}
