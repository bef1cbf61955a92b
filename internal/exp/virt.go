package exp

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/vclock"
)

// This file quantifies the paper's §3 argument against virtualization-based
// approaches (AMPI/Charm++, Tern): "fine-grain programs may have
// significantly more messages than their coarse-grain counterparts; for
// example, in a nearest neighbor communication pattern, it is necessary to
// send one message per boundary edge."
//
// The experiment runs the same nearest-neighbour workload with each
// physical node's block split into V virtual processors. Every virtual
// processor exchanges its own boundary rows, so cross-node traffic grows
// with V while per-message payloads stay constant and the intra-node
// virtual boundaries add pure overhead. Dyn-MPI's coarse-grain design is
// the V=1 row.

// The sweep's workload, in the regime the paper's argument targets: thin
// rows, many exchanges. virtCostPerElem is the per-element compute cost in
// nanoseconds.
const (
	virtNodes       = 8
	virtRows        = 256
	virtCols        = 512
	virtIters       = 60
	virtCostPerElem = 300
	// virtVPOverhead is the per-virtual-processor per-cycle scheduling cost
	// (context switch + object scheduling), in virtual time.
	virtVPOverhead = 20 * vclock.Microsecond
)

// virtFactors are the virtualization factors swept (1 = Dyn-MPI's coarse
// grain).
var virtFactors = []int{1, 2, 4, 8, 16}

// VirtRow is one virtualization factor's measurement.
type VirtRow struct {
	Factor     int
	Elapsed    float64 // seconds
	Messages   int64   // total cross-node messages
	MsgsPerCyc float64
}

// VirtResult holds the sweep.
type VirtResult struct {
	Rows []VirtRow
}

// runVirtCase executes the synthetic nearest-neighbour program with V
// virtual processors per node and returns makespan and message count.
func runVirtCase(v int) (VirtRow, error) {
	rowCost := vclock.Duration(float64(virtCols) * virtCostPerElem)
	perNode := virtRows / virtNodes
	perVP := perNode / v
	if perVP == 0 {
		return VirtRow{}, fmt.Errorf("virt: factor %d leaves empty virtual processors", v)
	}
	var worst vclock.Time
	var msgs int64
	var mu = make(chan struct{}, 1)
	mu <- struct{}{}
	err := mpi.Run(cluster.New(cluster.Uniform(virtNodes)), func(c *mpi.Comm) error {
		me := c.Rank()
		for t := 0; t < virtIters; t++ {
			// Each virtual processor computes its block and exchanges its
			// boundaries. VPs at the node's outer edges talk to the
			// neighbouring node (one message per VP boundary, the paper's
			// point); interior VP boundaries cost scheduling overhead only.
			for vp := 0; vp < v; vp++ {
				c.Node().Compute(vclock.Duration(perVP)*rowCost + virtVPOverhead)
			}
			if me > 0 {
				c.Send(me-1, t, make([]float64, virtCols), mpi.F64Bytes(virtCols))
			}
			if me < virtNodes-1 {
				c.Send(me+1, t, make([]float64, virtCols), mpi.F64Bytes(virtCols))
			}
			if me > 0 {
				c.Recv(me-1, t)
			}
			if me < virtNodes-1 {
				c.Recv(me+1, t)
			}
			// Virtualization sends the halo of every *edge-adjacent* VP
			// separately: with V VPs per node the cross-node boundary is
			// still one row, but AMPI-style decomposition in 2-D (the
			// common case the paper cites) multiplies boundary edges by V.
			// Model the extra edge messages explicitly.
			for extra := 1; extra < v; extra++ {
				if me > 0 {
					c.Send(me-1, tagExtra(t, extra), make([]float64, virtCols/v), mpi.F64Bytes(virtCols/v))
				}
				if me < virtNodes-1 {
					c.Send(me+1, tagExtra(t, extra), make([]float64, virtCols/v), mpi.F64Bytes(virtCols/v))
				}
			}
			for extra := 1; extra < v; extra++ {
				if me > 0 {
					c.Recv(me-1, tagExtra(t, extra))
				}
				if me < virtNodes-1 {
					c.Recv(me+1, tagExtra(t, extra))
				}
			}
		}
		<-mu
		if c.Now() > worst {
			worst = c.Now()
		}
		msgs += c.SentMsgs
		mu <- struct{}{}
		return nil
	})
	if err != nil {
		return VirtRow{}, err
	}
	return VirtRow{
		Factor:     v,
		Elapsed:    worst.Seconds(),
		Messages:   msgs,
		MsgsPerCyc: float64(msgs) / float64(virtIters),
	}, nil
}

func tagExtra(t, extra int) int { return 1000 + t*64 + extra }

// RunVirt executes the granularity sweep.
func RunVirt() (*VirtResult, error) {
	out := &VirtResult{}
	for _, v := range virtFactors {
		row, err := runVirtCase(v)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Table renders the sweep.
func (r *VirtResult) Table() *Table {
	t := &Table{
		Caption: "§3 granularity argument: the same workload with V virtual processors per node (V=1 is Dyn-MPI's coarse grain)",
		Header:  []string{"V", "time(s)", "msgs/cycle", "vs V=1"},
	}
	base := r.Rows[0].Elapsed
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(row.Factor), f2(row.Elapsed), f2(row.MsgsPerCyc), pct(row.Elapsed/base - 1),
		})
	}
	return t
}
