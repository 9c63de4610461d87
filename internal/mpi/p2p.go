package mpi

import (
	"fmt"

	"perfskel/internal/sim"
	"perfskel/internal/telemetry"
)

// Wildcards for Recv/Irecv matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// Status describes a completed receive.
type Status struct {
	Source int
	Tag    int
	Bytes  int64
}

// Request is a handle to an outstanding non-blocking operation.
type Request struct {
	op    Op // OpIsend or OpIrecv
	peer  int
	tag   int
	bytes int64
	done  sim.Event // completion, embedded so a request is one allocation
	st    Status
	m     *message // matched message, for transfer-window attribution
}

// Op returns the kind of the request (OpIsend or OpIrecv).
func (r *Request) Op() Op { return r.op }

// Done reports whether the operation has completed (the Test of MPI).
func (r *Request) Done() bool { return r.done.Fired() }

// message is an in-flight point-to-point message. Matching is performed
// eagerly on envelope announcement (control traffic is not modelled);
// payload transfer pays latency plus a bandwidth-shared flow.
//
// The sender's request is embedded, and next, the bound m.step both
// engine completions call, is bound once when the message is first
// allocated. Messages are recycled through the world's free list (see
// waitDone), so a blocking exchange allocates nothing in steady state.
type message struct {
	src, dst, tag int
	bytes         int64
	eager         bool
	arrived       bool     // payload fully delivered
	sreq          Request  // sender's request
	rreq          *Request // matched receive, nil until matched

	// holds counts the parties that may still read the message: the
	// sender and the receiver. A blocking call drops its party's hold
	// when its wait completes; a user-held Isend/Irecv handle never
	// does. At zero the message returns to the world's free list.
	holds int8

	// Transfer state, set by startTransfer: the world to deliver into,
	// the crossbar path and whether the flow has started.
	w       *World
	path    []*sim.Resource
	flowing bool
	next    func()

	// id identifies the message to the causal probe; assigned when the
	// transfer starts, zero before.
	id int64

	// Transfer window for telemetry: the virtual interval the payload
	// was in motion (latency plus flow). xferEnd stays zero until
	// delivery.
	xferStart, xferEnd float64
}

// newMessage returns a zeroed message from the free list, or a fresh one
// with its transfer callback bound.
func (w *World) newMessage() *message {
	if n := len(w.freeMsgs); n > 0 {
		m := w.freeMsgs[n-1]
		w.freeMsgs = w.freeMsgs[:n-1]
		return m
	}
	m := &message{}
	m.next = m.step
	return m
}

// newRecv returns a zeroed receive request from the free list, or a
// fresh one.
func (w *World) newRecv() *Request {
	if n := len(w.freeReqs); n > 0 {
		req := w.freeReqs[n-1]
		w.freeReqs = w.freeReqs[:n-1]
		return req
	}
	return &Request{}
}

// drop releases one hold on m and recycles it once nobody holds it. The
// bound callback survives the reset, so a recycled message never
// allocates a closure.
func (w *World) drop(m *message) {
	if m.holds--; m.holds > 0 {
		return
	}
	*m = message{next: m.next}
	w.freeMsgs = append(w.freeMsgs, m)
}

func match(req *Request, m *message) bool {
	return (req.peer == AnySource || req.peer == m.src) &&
		(req.tag == AnyTag || req.tag == m.tag)
}

// startTransfer begins the payload movement of m: one-way latency followed
// by a bandwidth-shared flow across the crossbar path. by is the rank
// whose call triggered the transfer (the sender for eager messages, the
// rank that completed the rendezvous match otherwise); the causal probe
// needs it to anchor the transfer edge on the right rank's timeline.
func (w *World) startTransfer(m *message, by int) {
	src, dst := w.ranks[m.src].node, w.ranks[m.dst].node
	lat := w.cl.PathLatency(src, dst)
	if src == dst {
		lat = w.cfg.SelfLatency
	}
	eng := w.cl.Engine
	m.w, m.path = w, w.cl.Path(src, dst)
	m.xferStart = eng.Now()
	if w.cp != nil {
		m.id = w.cl.NextMsgID()
		w.cp.MsgStart(m.id, m.src, m.dst, src, dst, m.tag, m.bytes,
			w.msgPath(m), m.tag >= collTagBase, by, m.xferStart)
	}
	eng.After(lat, m.next)
}

// step is m's transfer callback. Its first call ends the latency and
// starts the bandwidth-shared flow; the call that ends the flow (or the
// first, on an empty path) delivers the payload.
func (m *message) step() {
	if m.flowing || len(m.path) == 0 {
		m.w.delivered(m)
		return
	}
	m.flowing = true
	m.w.cl.Engine.StartFlow(m.path, float64(m.bytes), m.next)
}

// msgPath labels a message's protocol path for the causal probe.
func (w *World) msgPath(m *message) string {
	if m.eager {
		return telemetry.PathEager
	}
	return telemetry.PathRendezvous
}

// delivered runs when the last payload byte reaches the destination.
func (w *World) delivered(m *message) {
	m.arrived = true
	m.xferEnd = w.cl.Engine.Now()
	if w.cp != nil {
		w.cp.MsgDeliver(m.id, m.xferEnd)
	}
	if !m.eager {
		// Rendezvous send completes only when the payload is delivered.
		m.sreq.done.Fire()
	}
	if m.rreq != nil {
		w.completeRecv(m)
	}
}

// bind matches message m to receive request rreq; by is the rank whose
// call performed the match.
func (w *World) bind(m *message, rreq *Request, by int) {
	m.rreq = rreq
	rreq.m = m
	if !m.eager && !m.arrived {
		// Rendezvous: the transfer starts once the receive is posted.
		w.startTransfer(m, by)
	}
	if m.arrived {
		w.completeRecv(m)
	}
}

func (w *World) completeRecv(m *message) {
	m.rreq.st = Status{Source: m.src, Tag: m.tag, Bytes: m.bytes}
	m.rreq.done.Fire()
}

// isendRaw posts a send without recording it; collectives use it for their
// internal traffic.
func (c *Comm) isendRaw(dst, tag int, bytes int64) *Request {
	if dst < 0 || dst >= c.Size() {
		panic(fmt.Sprintf("mpi: rank %d Isend to invalid rank %d", c.rank, dst))
	}
	if bytes < 0 {
		panic("mpi: negative message size")
	}
	c.overhead()
	w := c.w
	m := w.newMessage()
	m.src, m.dst, m.tag, m.bytes = c.rank, dst, tag, bytes
	m.eager = bytes <= w.cfg.EagerThreshold
	m.holds = 2
	m.sreq = Request{op: OpIsend, peer: dst, tag: tag, bytes: bytes, m: m}
	req := &m.sreq
	if m.eager {
		// Eager: payload leaves immediately, the send buffer is considered
		// consumed, and the sender proceeds.
		w.startTransfer(m, c.rank)
		req.done.Fire()
	}
	dstState := w.ranks[dst]
	for i, rr := range dstState.posted {
		if match(rr, m) {
			dstState.posted = append(dstState.posted[:i], dstState.posted[i+1:]...)
			w.bind(m, rr, c.rank)
			return req
		}
	}
	dstState.pending = append(dstState.pending, m)
	return req
}

// irecvRaw posts a receive without recording it.
func (c *Comm) irecvRaw(src, tag int) *Request {
	if src != AnySource && (src < 0 || src >= c.Size()) {
		panic(fmt.Sprintf("mpi: rank %d Irecv from invalid rank %d", c.rank, src))
	}
	c.overhead()
	w := c.w
	req := w.newRecv()
	req.op, req.peer, req.tag = OpIrecv, src, tag
	st := c.state()
	for i, m := range st.pending {
		if match(req, m) {
			st.pending = append(st.pending[:i], st.pending[i+1:]...)
			w.bind(m, req, c.rank)
			return req
		}
	}
	st.posted = append(st.posted, req)
	return req
}

// waitRaw blocks until req completes, without recording. Under a probe,
// the wait is decomposed: the part overlapping the matched message's
// transfer window counts as transfer (the payload was on the wire), the
// rest as blocked (pure synchronisation — the peer had not arrived).
func (c *Comm) waitRaw(req *Request) Status {
	st := c.state()
	probed := c.w.cfg.Probe != nil
	t0 := 0.0
	if probed {
		t0 = c.Now()
	}
	st.proc.WaitEventReason(&req.done,
		sim.WaitReason(c.rank, req.op.String(), req.peer, req.tag, req.bytes))
	if probed {
		t1 := c.Now()
		if waited := t1 - t0; waited > 0 {
			xfer := 0.0
			if m := req.m; m != nil && m.xferEnd > m.xferStart {
				if o := min64(t1, m.xferEnd) - max64(t0, m.xferStart); o > 0 {
					xfer = o
				}
			}
			st.split.Transfer += xfer
			st.split.Blocked += waited - xfer
			// A wait that actually parked was released by its matched
			// message's delivery: the wake time equals the delivery time
			// exactly, which is what makes the causal DAG tight.
			if w := c.w; w.cp != nil && req.m != nil && req.m.id != 0 {
				kind := telemetry.WaitRecv
				if req.op == OpIsend {
					kind = telemetry.WaitSend
				}
				w.cp.WaitEnd(c.rank, req.m.id, kind, t0, t1)
			}
		}
	}
	if req.op == OpIrecv {
		req.bytes = req.st.Bytes
	}
	return req.st
}

// waitDone is waitRaw for a request owned by the blocking call that
// posted it, which gives up the request once it completes. A send drops
// the sender's hold on its message. A receive unbinds its request, which
// goes back to the free list, and drops the receiver's hold. Both are
// safe because a receive completes only on delivery, after which the
// engine no longer references the message, and the handle never escapes
// the call.
func (c *Comm) waitDone(req *Request) Status {
	stat := c.waitRaw(req)
	w, m := c.w, req.m
	if req.op == OpIrecv {
		m.rreq = nil
		*req = Request{}
		w.freeReqs = append(w.freeReqs, req)
	}
	w.drop(m)
	return stat
}

func min64(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// sendrecvRaw exchanges messages with possibly different peers, as
// MPI_Sendrecv does, without recording.
func (c *Comm) sendrecvRaw(dst, src, tag int, sendBytes int64) Status {
	sr := c.isendRaw(dst, tag, sendBytes)
	rr := c.irecvRaw(src, tag)
	stat := c.waitDone(rr)
	c.waitDone(sr)
	return stat
}

// Isend starts a non-blocking send of bytes to dst with the given tag.
func (c *Comm) Isend(dst, tag int, bytes int64) *Request {
	start := c.beginOp()
	req := c.isendRaw(dst, tag, bytes)
	c.record(OpRecord{Op: OpIsend, Peer: dst, Peer2: None, Bytes: bytes, Tag: tag, Start: start, End: c.Now()})
	return req
}

// Irecv starts a non-blocking receive from src (or AnySource) with the
// given tag (or AnyTag).
func (c *Comm) Irecv(src, tag int) *Request {
	start := c.beginOp()
	req := c.irecvRaw(src, tag)
	c.record(OpRecord{Op: OpIrecv, Peer: src, Peer2: None, Tag: tag, Start: start, End: c.Now()})
	return req
}

// Wait blocks until req completes and returns its status.
func (c *Comm) Wait(req *Request) Status {
	start := c.beginOp()
	stat := c.waitRaw(req)
	peer := req.peer
	if req.op == OpIrecv && stat.Source >= 0 {
		peer = stat.Source
	}
	c.record(OpRecord{Op: OpWait, Sub: req.op, Peer: peer, Peer2: None, Bytes: req.bytes, Tag: req.tag, Start: start, End: c.Now()})
	return stat
}

// Waitall blocks until every request completes.
func (c *Comm) Waitall(reqs ...*Request) {
	start := c.beginOp()
	var total int64
	for _, r := range reqs {
		c.waitRaw(r)
		total += r.bytes
	}
	c.record(OpRecord{Op: OpWaitall, Peer: None, Peer2: None, Bytes: total, Start: start, End: c.Now()})
}

// Send sends bytes to dst and blocks until the send buffer may be reused:
// immediately for eager messages, on delivery for rendezvous ones.
func (c *Comm) Send(dst, tag int, bytes int64) {
	start := c.beginOp()
	c.waitDone(c.isendRaw(dst, tag, bytes))
	c.record(OpRecord{Op: OpSend, Peer: dst, Peer2: None, Bytes: bytes, Tag: tag, Start: start, End: c.Now()})
}

// Recv blocks until a matching message is received.
func (c *Comm) Recv(src, tag int) Status {
	start := c.beginOp()
	stat := c.waitDone(c.irecvRaw(src, tag))
	peer := src
	if stat.Source >= 0 {
		peer = stat.Source
	}
	c.record(OpRecord{Op: OpRecv, Peer: peer, Peer2: None, Bytes: stat.Bytes, Tag: stat.Tag, Start: start, End: c.Now()})
	return stat
}

// Sendrecv sends sendBytes to dst while receiving from src, both with the
// given tag, and returns the receive status.
func (c *Comm) Sendrecv(dst int, sendBytes int64, src, tag int) Status {
	start := c.beginOp()
	stat := c.sendrecvRaw(dst, src, tag, sendBytes)
	c.record(OpRecord{
		Op: OpSendrecv, Peer: dst, Peer2: src,
		Bytes: sendBytes, Byte2: stat.Bytes, Tag: tag,
		Start: start, End: c.Now(),
	})
	return stat
}
