package mpi

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/vclock"
)

func TestWireTimeScalesWithSize(t *testing.T) {
	arrival := func(bytes int) vclock.Duration {
		var d vclock.Duration
		err := Run(cluster.New(cluster.Uniform(2)), func(c *Comm) error {
			if c.Rank() == 0 {
				c.Send(1, 0, make([]float64, bytes/8), bytes)
				return nil
			}
			c.Recv(0, 0)
			d = c.Now().Sub(0)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	small := arrival(8)
	big := arrival(1 << 20)
	net := cluster.DefaultNet()
	wantExtra := vclock.FromSeconds(float64(1<<20) / net.BytesPerSec)
	extra := big - small
	if extra < wantExtra/2 || extra > wantExtra*2 {
		t.Fatalf("1MiB message extra time %v, want ~%v", extra, wantExtra)
	}
}

func TestSendCPUChargedToSender(t *testing.T) {
	err := Run(cluster.New(cluster.Uniform(2)), func(c *Comm) error {
		if c.Rank() == 0 {
			before := c.Node().CPUTime()
			c.Send(1, 0, make([]float64, 1024), F64Bytes(1024))
			delta := c.Node().CPUTime() - before
			net := c.World().Cluster().Net()
			want := net.CPUPerMsg + vclock.Duration(float64(F64Bytes(1024))*net.CPUPerByte)
			if delta != want {
				return fmt.Errorf("sender CPU %v, want %v", delta, want)
			}
			return nil
		}
		c.Recv(0, 0)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAllreduceLengthMismatchFailsWorld is the mirror of
// TestAllreduceIntoLengthMismatchAborts: here slot 0 holds the longer
// vector.
func TestAllreduceLengthMismatchFailsWorld(t *testing.T) {
	err := Run(cluster.New(cluster.Uniform(2)), func(c *Comm) error {
		v := make([]float64, 2-c.Rank()) // deliberately ragged
		c.AllreduceF64sInto(c.World().AllGroup(), v, Sum)
		return nil
	})
	if err == nil {
		t.Fatal("ragged allreduce should fail the world")
	}
}

func TestBcastInvalidRootFailsWorld(t *testing.T) {
	err := Run(cluster.New(cluster.Uniform(2)), func(c *Comm) error {
		c.BcastF64sInto(c.World().AllGroup(), 7, nil)
		return nil
	})
	if err == nil {
		t.Fatal("bcast with foreign root should fail the world")
	}
}

func TestRecvF64sTypeMismatchFailsWorld(t *testing.T) {
	err := Run(cluster.New(cluster.Uniform(2)), func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 0, "not floats", 8)
			return nil
		}
		c.RecvF64sErr(0, 0)
		return nil
	})
	if err == nil {
		t.Fatal("type mismatch should fail the world")
	}
}

func TestAbortUnwindsWorld(t *testing.T) {
	err := Run(cluster.New(cluster.Uniform(3)), func(c *Comm) error {
		if c.Rank() == 0 {
			c.Abort(fmt.Errorf("operator abort"))
		}
		c.Barrier(c.World().AllGroup())
		return nil
	})
	if err == nil {
		t.Fatal("expected abort error")
	}
}

func TestGatherBytesAccounting(t *testing.T) {
	// Collectives advance clocks but do not touch the P2P traffic counters
	// (documented behaviour relied on by the runtime's comm measurement).
	err := Run(cluster.New(cluster.Uniform(2)), func(c *Comm) error {
		c.AllreduceSum(c.World().AllGroup(), 1)
		if c.SentMsgs != 0 || c.RecvMsgs != 0 {
			return fmt.Errorf("collective touched P2P counters")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
