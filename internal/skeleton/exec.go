package skeleton

import (
	"context"
	"fmt"

	"perfskel/internal/cluster"
	"perfskel/internal/mpi"
)

// Execute runs rank c.Rank()'s part of the skeleton program on the given
// communicator. Non-blocking requests are tracked in issue order; an
// OpWait waits on the oldest outstanding request of the recorded kind,
// which reproduces the application's computation/communication overlap
// structure.
func Execute(p *Program, c *mpi.Comm) {
	if c.Size() != p.NRanks {
		panic(fmt.Sprintf("skeleton: program built for %d ranks run on %d", p.NRanks, c.Size()))
	}
	x := &executor{c: c}
	x.walk(p.PerRank[c.Rank()], 0)
	// Drain any requests left outstanding by approximation artefacts so
	// the rank terminates cleanly.
	x.drain()
}

type executor struct {
	c           *mpi.Comm
	outstanding []*mpi.Request // issue order
	sizes       []int64        // Alltoallv send sizes, reused across calls
}

// walk executes a sequence; iter is the enclosing loop's current
// iteration index, which compute operations with a duration distribution
// use to cycle through their quantiles.
func (x *executor) walk(seq []Node, iter int) {
	for _, nd := range seq {
		switch n := nd.(type) {
		case OpNode:
			x.perform(n.Op, iter)
		case LoopNode:
			for i := 0; i < n.Count; i++ {
				x.walk(n.Body, i)
			}
		}
	}
}

func (x *executor) perform(op Op, iter int) {
	c := x.c
	switch op.Kind {
	case mpi.OpCompute:
		work := op.Work
		if len(op.Dist) > 0 {
			// Offsetting by rank decorrelates the phases of different
			// ranks, reproducing the cross-rank spread of computation
			// durations that drives synchronisation waits in unbalanced
			// scenarios (section 4.4).
			work = op.Dist[(iter+c.Rank())%len(op.Dist)]
		}
		c.Compute(work)
	case mpi.OpSend:
		c.Send(op.Peer, op.Tag, op.Bytes)
	case mpi.OpRecv:
		c.Recv(op.Peer, op.Tag)
	case mpi.OpIsend:
		x.outstanding = append(x.outstanding, c.Isend(op.Peer, op.Tag, op.Bytes))
	case mpi.OpIrecv:
		x.outstanding = append(x.outstanding, c.Irecv(op.Peer, op.Tag))
	case mpi.OpWait:
		if r := x.pop(op.Sub); r != nil {
			c.Wait(r)
		}
	case mpi.OpWaitall:
		if len(x.outstanding) > 0 {
			c.Waitall(x.outstanding...)
			x.outstanding = nil
		}
	case mpi.OpSendrecv:
		c.Sendrecv(op.Peer, op.Bytes, op.Peer2, op.Tag)
	case mpi.OpBarrier:
		c.Barrier()
	case mpi.OpBcast:
		c.Bcast(op.Peer, op.Bytes)
	case mpi.OpReduce:
		c.Reduce(op.Peer, op.Bytes)
	case mpi.OpAllreduce:
		c.Allreduce(op.Bytes)
	case mpi.OpAlltoall:
		c.Alltoall(op.Bytes)
	case mpi.OpAlltoallv:
		// Replayed as a uniform exchange of the recorded mean size.
		if x.sizes == nil {
			x.sizes = make([]int64, c.Size())
		}
		for i := range x.sizes {
			x.sizes[i] = op.Bytes
		}
		c.Alltoallv(x.sizes)
	case mpi.OpAllgather:
		c.Allgather(op.Bytes)
	case mpi.OpGather:
		c.Gather(op.Peer, op.Bytes)
	case mpi.OpScatter:
		c.Scatter(op.Peer, op.Bytes)
	default:
		panic(fmt.Sprintf("skeleton: unknown op %v", op.Kind))
	}
}

// pop removes and returns the oldest outstanding request of the given
// kind (OpIsend/OpIrecv); if kind is unset or absent it falls back to the
// oldest request of any kind, and returns nil when none are outstanding.
func (x *executor) pop(kind mpi.Op) *mpi.Request {
	for i, r := range x.outstanding {
		if kind == mpi.OpInvalid || r.Op() == kind {
			x.outstanding = append(x.outstanding[:i], x.outstanding[i+1:]...)
			return r
		}
	}
	if len(x.outstanding) > 0 {
		r := x.outstanding[0]
		x.outstanding = x.outstanding[1:]
		return r
	}
	return nil
}

func (x *executor) drain() {
	if len(x.outstanding) > 0 {
		x.c.Waitall(x.outstanding...)
		x.outstanding = nil
	}
}

// Run executes the whole skeleton program on a cluster and returns its
// parallel execution time, the quantity the prediction method multiplies
// by the measured scaling ratio.
func Run(p *Program, cl *cluster.Cluster, cfg mpi.Config, mon mpi.Monitor) (float64, error) {
	return RunContext(context.Background(), p, cl, cfg, mon)
}

// RunContext is Run with a cancellation context, checked by the
// simulation engine at event granularity (see mpi.RunContext).
func RunContext(ctx context.Context, p *Program, cl *cluster.Cluster, cfg mpi.Config, mon mpi.Monitor) (float64, error) {
	return mpi.RunContext(ctx, cl, p.NRanks, cfg, mon, func(c *mpi.Comm) { Execute(p, c) })
}
