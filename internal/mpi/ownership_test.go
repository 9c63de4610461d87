package mpi

import (
	"fmt"
	"testing"

	"perfskel/internal/cluster"
	"perfskel/internal/telemetry"
)

// TestUserHandlesSurviveRecycling mixes user-held Isend/Irecv handles
// with blocking traffic, eager and rendezvous sizes and a wildcard
// receive. Blocking calls recycle their messages and receive requests;
// a user handle must never be among them, so after later blocking
// traffic has churned the free lists, every handle still reports Done
// and Wait returns its own status. The probed run exercises waitRaw's
// read of the matched message after the wait.
func TestUserHandlesSurviveRecycling(t *testing.T) {
	const eager, rdv = 1 << 10, 128 << 10
	for _, probed := range []bool{false, true} {
		t.Run(fmt.Sprintf("probed=%v", probed), func(t *testing.T) {
			cfg := freeCfg
			if probed {
				cfg.Probe = telemetry.NewCollector()
			}
			type got struct {
				done, doneLater bool
				st              Status
			}
			var recvs, sends [2]got
			cl := cluster.Build(cluster.Testbed(3), cluster.Dedicated())
			_, err := Run(cl, 3, cfg, nil, func(c *Comm) {
				churn := func() {
					// Blocking traffic that recycles messages and
					// receive requests between the user calls.
					for i := 0; i < 4; i++ {
						c.Barrier()
						c.Allreduce(eager)
						c.Alltoall(rdv)
					}
				}
				switch c.Rank() {
				case 0:
					r1 := c.Irecv(AnySource, 5) // matched by rank 2's eager Send
					r2 := c.Irecv(1, 6)         // matched by rank 1's rendezvous Send
					s1 := c.Isend(1, 7, eager)  // matched by a blocking Recv
					s2 := c.Isend(2, 8, rdv)    // matched by a blocking Recv
					c.Send(1, 9, rdv)
					c.Sendrecv(2, rdv, 2, 10)
					churn()
					for i, r := range []*Request{r1, r2} {
						recvs[i].done = r.Done()
						recvs[i].st = c.Wait(r)
					}
					for i, r := range []*Request{s1, s2} {
						sends[i].done = r.Done()
						c.Wait(r)
					}
					// Waited handles stay the caller's: more blocking
					// traffic must not reuse them.
					churn()
					for i, r := range []*Request{r1, r2} {
						recvs[i].doneLater = r.Done()
					}
					for i, r := range []*Request{s1, s2} {
						sends[i].doneLater = r.Done()
					}
				case 1:
					c.Send(0, 6, rdv)
					c.Recv(0, 7)
					c.Recv(0, 9)
					churn()
					churn()
				case 2:
					c.Send(0, 5, eager)
					c.Recv(0, 8)
					c.Sendrecv(0, eager, 0, 10)
					churn()
					churn()
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			want := []Status{{Source: 2, Tag: 5, Bytes: eager}, {Source: 1, Tag: 6, Bytes: rdv}}
			for i, g := range recvs {
				if !g.done || !g.doneLater || g.st != want[i] {
					t.Errorf("user Irecv %d: done=%v/%v status=%+v, want done and %+v", i, g.done, g.doneLater, g.st, want[i])
				}
			}
			for i, g := range sends {
				if !g.done || !g.doneLater {
					t.Errorf("user Isend %d: done=%v/%v, want done before and after its Wait", i, g.done, g.doneLater)
				}
			}
		})
	}
}
