package mpi

import (
	"fmt"
	"strings"
	"testing"

	"perfskel/internal/cluster"
)

func TestRequestDoneIsTest(t *testing.T) {
	// Request.Done is MPI_Test: false while in flight, true after.
	var before, afterWait bool
	run(t, 2, freeCfg, cluster.Dedicated(), func(c *Comm) {
		if c.Rank() == 0 {
			r := c.Irecv(1, 1)
			before = r.Done()
			c.Wait(r)
			afterWait = r.Done()
		} else {
			c.Compute(0.5)
			c.Send(0, 1, 8)
		}
	})
	if before {
		t.Error("request done before any send")
	}
	if !afterWait {
		t.Error("request not done after wait")
	}
}

func TestEagerRequestDoneImmediately(t *testing.T) {
	run(t, 2, freeCfg, cluster.Dedicated(), func(c *Comm) {
		if c.Rank() == 0 {
			r := c.Isend(1, 1, 100) // eager
			if !r.Done() {
				t.Error("eager send not done immediately")
			}
			c.Wait(r)
		} else {
			c.Recv(0, 1)
		}
	})
}

func TestAnyTagSpecificSource(t *testing.T) {
	var got Status
	run(t, 2, freeCfg, cluster.Dedicated(), func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 42, 77)
		} else {
			got = c.Recv(0, AnyTag)
		}
	})
	if got.Tag != 42 || got.Bytes != 77 {
		t.Errorf("status = %+v", got)
	}
}

func TestWaitallEmpty(t *testing.T) {
	run(t, 1, freeCfg, cluster.Dedicated(), func(c *Comm) {
		c.Waitall() // no requests: must not block or panic
	})
}

func TestSelfSendRendezvous(t *testing.T) {
	// A rendezvous-size self-message works when the receive is posted
	// first.
	var st Status
	run(t, 1, freeCfg, cluster.Dedicated(), func(c *Comm) {
		r := c.Irecv(0, 1)
		c.Send(0, 1, 10<<20)
		st = c.Wait(r)
	})
	if st.Bytes != 10<<20 {
		t.Errorf("self rendezvous status = %+v", st)
	}
}

func TestInvalidRankPanicsPropagate(t *testing.T) {
	cl := cluster.Build(cluster.Testbed(2), cluster.Dedicated())
	_, err := Run(cl, 2, freeCfg, nil, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(9, 1, 8)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "invalid rank") {
		t.Errorf("err = %v", err)
	}
}

// TestInvalidCollectiveRootPanicsPropagate checks that every rooted
// collective rejects a root outside [0, size) instead of running as
// another root, and that the panic surfaces as a run error.
func TestInvalidCollectiveRootPanicsPropagate(t *testing.T) {
	const size = 4
	colls := map[string]func(c *Comm, root int){
		"Bcast":   func(c *Comm, root int) { c.Bcast(root, 64) },
		"Reduce":  func(c *Comm, root int) { c.Reduce(root, 64) },
		"Gather":  func(c *Comm, root int) { c.Gather(root, 64) },
		"Scatter": func(c *Comm, root int) { c.Scatter(root, 64) },
	}
	for name, call := range colls {
		for _, root := range []int{size, -1} {
			t.Run(fmt.Sprintf("%s/root=%d", name, root), func(t *testing.T) {
				cl := cluster.Build(cluster.Testbed(size), cluster.Dedicated())
				_, err := Run(cl, size, freeCfg, nil, func(c *Comm) { call(c, root) })
				want := fmt.Sprintf("%s with invalid root %d", name, root)
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("err = %v, want it to mention %q", err, want)
				}
			})
		}
	}
}

func TestNegativeBytesPanicsPropagate(t *testing.T) {
	cl := cluster.Build(cluster.Testbed(2), cluster.Dedicated())
	_, err := Run(cl, 2, freeCfg, nil, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, -5)
		} else {
			c.Recv(0, 1)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "negative") {
		t.Errorf("err = %v", err)
	}
}

func TestApplicationTagCollisionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ValidateTag accepted a collective-space tag")
		}
	}()
	ValidateTag(1 << 21)
}

func TestZeroRanksRejected(t *testing.T) {
	cl := cluster.Build(cluster.Testbed(1), cluster.Dedicated())
	if _, err := Run(cl, 0, freeCfg, nil, func(c *Comm) {}); err == nil {
		t.Error("want error for zero ranks")
	}
}

func TestNodeAccessorAndPlacement(t *testing.T) {
	cl := cluster.Build(cluster.Testbed(2), cluster.Dedicated())
	_, err := Run(cl, 4, Config{CallOverhead: -1, Placement: []int{1, 1, 0, 0}}, nil, func(c *Comm) {
		want := []int{1, 1, 0, 0}[c.Rank()]
		if c.Node() != want {
			t.Errorf("rank %d on node %d, want %d", c.Rank(), c.Node(), want)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoallvSizeValidation(t *testing.T) {
	cl := cluster.Build(cluster.Testbed(2), cluster.Dedicated())
	_, err := Run(cl, 2, freeCfg, nil, func(c *Comm) {
		c.Alltoallv([]int64{1, 2, 3}) // wrong length
	})
	if err == nil || !strings.Contains(err.Error(), "Alltoallv") {
		t.Errorf("err = %v", err)
	}
}

func TestAlltoallvTiming(t *testing.T) {
	// Uniform Alltoallv equals Alltoall timing.
	d1 := run(t, 4, freeCfg, cluster.Dedicated(), func(c *Comm) {
		c.Alltoall(1e6)
	})
	d2 := run(t, 4, freeCfg, cluster.Dedicated(), func(c *Comm) {
		c.Alltoallv([]int64{1e6, 1e6, 1e6, 1e6})
	})
	if d1 != d2 {
		t.Errorf("uniform alltoallv %v != alltoall %v", d2, d1)
	}
}

func TestNonPowerOfTwoAllreduce(t *testing.T) {
	// 3 ranks: reduce+bcast fallback must still synchronise everyone.
	exits := make([]float64, 3)
	run(t, 3, freeCfg, cluster.Dedicated(), func(c *Comm) {
		c.Compute(float64(c.Rank()) * 0.3)
		c.Allreduce(64)
		exits[c.Rank()] = c.Now()
	})
	for r, e := range exits {
		if e < 0.6-1e-9 {
			t.Errorf("rank %d left allreduce at %v before last entry", r, e)
		}
	}
}
