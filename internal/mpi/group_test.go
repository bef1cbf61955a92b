package mpi

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/cluster"
)

func TestGroupsAreCanonical(t *testing.T) {
	w := NewWorld(cluster.New(cluster.Uniform(4)))
	a := w.NewGroup([]int{0, 2, 3})
	b := w.NewGroup([]int{0, 2, 3})
	if a != b {
		t.Fatal("same member list produced distinct groups")
	}
	c := w.NewGroup([]int{0, 2})
	if a == c {
		t.Fatal("different member lists shared a group")
	}
}

// The canonical key separates members, so lists whose digits concatenate
// alike are distinct groups, and asking again for a registered group — what
// every rank does at every membership change — allocates nothing.
func TestGroupKeySeparatesMembersAndLookupIsAllocFree(t *testing.T) {
	w := NewWorld(cluster.New(cluster.Uniform(124)))
	a, b, c := w.NewGroup([]int{1, 23}), w.NewGroup([]int{12, 3}), w.NewGroup([]int{123})
	if a == b || a == c || b == c {
		t.Fatal("member lists with the same digit string shared a group")
	}
	members := make([]int, 124) // key longer than NewGroup's stack buffer
	for i := range members {
		members[i] = i
	}
	if w.NewGroup(members) != w.AllGroup() {
		t.Fatal("the all-ranks member list did not resolve to the all-ranks group")
	}
	small := []int{0, 2, 3, 17, 101}
	g := w.NewGroup(small)
	if n := testing.AllocsPerRun(100, func() {
		if w.NewGroup(small) != g {
			t.Fatal("lookup returned a different group")
		}
	}); n != 0 {
		t.Errorf("looking up a registered group: %v allocs per call, want 0", n)
	}
}

func TestConcurrentGroupCreation(t *testing.T) {
	w := NewWorld(cluster.New(cluster.Uniform(8)))
	const goroutines = 16
	out := make([]*Group, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = w.NewGroup([]int{1, 3, 5, 7})
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if out[i] != out[0] {
			t.Fatal("concurrent NewGroup returned distinct groups")
		}
	}
}

func TestGroupAccessors(t *testing.T) {
	w := NewWorld(cluster.New(cluster.Uniform(4)))
	g := w.NewGroup([]int{3, 1})
	if g.Size() != 2 {
		t.Fatal("Size")
	}
	if s, ok := g.Slot(1); !ok || s != 1 {
		t.Fatalf("Slot(1) = %d,%v", s, ok)
	}
	if _, ok := g.Slot(2); ok {
		t.Fatal("non-member has a slot")
	}
	if m := g.members; len(m) != 2 || m[0] != 3 {
		t.Fatalf("members = %v", m)
	}
}

func TestDuplicateGroupMemberPanics(t *testing.T) {
	w := NewWorld(cluster.New(cluster.Uniform(4)))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	w.NewGroup([]int{1, 1})
}

func TestEmptyGroupPanics(t *testing.T) {
	w := NewWorld(cluster.New(cluster.Uniform(2)))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	w.NewGroup(nil)
}

func TestNonMemberCollectivePanics(t *testing.T) {
	err := Run(cluster.New(cluster.Uniform(3)), func(c *Comm) error {
		g := c.World().NewGroup([]int{0, 1})
		if c.Rank() == 2 {
			c.Barrier(g) // not a member: must fail the world
			return nil
		}
		c.Barrier(g)
		return nil
	})
	if err == nil {
		t.Fatal("expected failure for non-member collective")
	}
}

func TestOverlappingGroupsInterleave(t *testing.T) {
	// Two overlapping groups used alternately: operations must not bleed
	// between groups.
	err := Run(cluster.New(cluster.Uniform(3)), func(c *Comm) error {
		left := c.World().NewGroup([]int{0, 1})
		right := c.World().NewGroup([]int{1, 2})
		for i := 0; i < 50; i++ {
			if c.Rank() <= 1 {
				got := c.AllreduceSum(left, float64(c.Rank()+1))
				if got != 3 {
					return fmt.Errorf("left sum %v", got)
				}
			}
			if c.Rank() >= 1 {
				got := c.AllreduceSum(right, float64(c.Rank()+1))
				if got != 5 {
					return fmt.Errorf("right sum %v", got)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
