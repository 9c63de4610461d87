package mpi

import (
	"testing"

	"perfskel/internal/cluster"
)

// pingPong runs rounds 1 KiB round trips between two ranks on a dedicated
// two-node cluster.
func pingPong(rounds int) {
	cl := cluster.Build(cluster.Testbed(2), cluster.Dedicated())
	_, err := Run(cl, 2, Config{}, nil, func(c *Comm) {
		for i := 0; i < rounds; i++ {
			if c.Rank() == 0 {
				c.Send(1, 1, 1024)
				c.Recv(1, 2)
			} else {
				c.Recv(0, 1)
				c.Send(0, 2, 1024)
			}
		}
	})
	if err != nil {
		panic(err)
	}
}

// TestPingPongAllocBudget pins the allocation budget of the blocking
// point-to-point path at zero. Send and Recv own their message and
// receive request, and give both back to the world's free lists when
// their waits complete; a recycled message keeps its bound transfer
// callback. The route comes from the cluster's path cache and the first
// waiter sits inline in the event. So once the first round trip has
// filled the free lists, a round trip allocates nothing. Subtracting a
// short run from a long one cancels the set-up cost.
func TestPingPongAllocBudget(t *testing.T) {
	const short, long, runs = 200, 600, 5
	a := testing.AllocsPerRun(runs, func() { pingPong(short) })
	b := testing.AllocsPerRun(runs, func() { pingPong(long) })
	perRound := (b - a) / (long - short)
	t.Logf("%.3f allocs/round trip", perRound)
	if perRound > 0.05 {
		t.Fatalf("ping-pong allocates %.3f allocs/round trip, want <= 0.05", perRound)
	}
}
