package mpi

import "fmt"

// collTagBase separates collective-internal traffic from application tags.
// Application tags must stay below it.
const collTagBase = 1 << 20

// collTag returns a fresh tag for one collective invocation. Collectives
// must be called by all ranks in the same order (the usual MPI contract),
// which keeps the per-rank sequence numbers aligned.
func (c *Comm) collTag() int {
	st := c.state()
	st.collSeq++
	return collTagBase + st.collSeq
}

// checkRoot panics, as isendRaw does for a bad peer, unless root names a
// rank of the world; the simulator turns the panic into a run error.
func (c *Comm) checkRoot(op string, root int) {
	if root < 0 || root >= c.Size() {
		panic(fmt.Sprintf("mpi: rank %d %s with invalid root %d", c.rank, op, root))
	}
}

// token is the wire size of a zero-payload synchronisation message.
const token = 4

// Barrier blocks until every rank has entered it (dissemination
// algorithm: ceil(log2 n) rounds of pairwise token exchange).
func (c *Comm) Barrier() {
	start := c.beginOp()
	tag := c.collTag()
	size := c.Size()
	for k := 1; k < size; k <<= 1 {
		dst := (c.rank + k) % size
		src := (c.rank - k + size) % size
		c.sendrecvRaw(dst, src, tag, token)
	}
	c.record(OpRecord{Op: OpBarrier, Peer: None, Peer2: None, Start: start, End: c.Now()})
}

// Bcast broadcasts bytes from root to every rank (binomial tree).
func (c *Comm) Bcast(root int, bytes int64) {
	c.checkRoot("Bcast", root)
	start := c.beginOp()
	tag := c.collTag()
	c.bcastRaw(root, tag, bytes)
	c.record(OpRecord{Op: OpBcast, Peer: root, Peer2: None, Bytes: bytes, Start: start, End: c.Now()})
}

func (c *Comm) bcastRaw(root, tag int, bytes int64) {
	size := c.Size()
	if size == 1 {
		return
	}
	vrank := (c.rank - root + size) % size
	mask := 1
	for mask < size {
		if vrank&mask != 0 {
			src := (vrank - mask + root) % size
			r := c.irecvRaw(src, tag)
			c.waitDone(r)
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if vrank+mask < size {
			dst := (vrank + mask + root) % size
			r := c.isendRaw(dst, tag, bytes)
			c.waitDone(r)
		}
		mask >>= 1
	}
}

// Reduce combines bytes from every rank at root (binomial tree; the
// combine step costs CPU per Config.ReduceCostPerByte).
func (c *Comm) Reduce(root int, bytes int64) {
	c.checkRoot("Reduce", root)
	start := c.beginOp()
	tag := c.collTag()
	c.reduceRaw(root, tag, bytes)
	c.record(OpRecord{Op: OpReduce, Peer: root, Peer2: None, Bytes: bytes, Start: start, End: c.Now()})
}

func (c *Comm) reduceRaw(root, tag int, bytes int64) {
	size := c.Size()
	if size == 1 {
		return
	}
	vrank := (c.rank - root + size) % size
	mask := 1
	for mask < size {
		if vrank&mask == 0 {
			if vrank+mask < size {
				src := (vrank + mask + root) % size
				r := c.irecvRaw(src, tag)
				c.waitDone(r)
				c.reduceCost(bytes)
			}
		} else {
			dst := (vrank - mask + root) % size
			r := c.isendRaw(dst, tag, bytes)
			c.waitDone(r)
			break
		}
		mask <<= 1
	}
}

// Allreduce combines bytes across all ranks and leaves the result
// everywhere. Power-of-two worlds use recursive doubling; otherwise a
// reduce-to-zero plus broadcast, as classic MPICH does.
func (c *Comm) Allreduce(bytes int64) {
	start := c.beginOp()
	tag := c.collTag()
	size := c.Size()
	if size&(size-1) == 0 {
		for mask := 1; mask < size; mask <<= 1 {
			partner := c.rank ^ mask
			c.sendrecvRaw(partner, partner, tag, bytes)
			c.reduceCost(bytes)
		}
	} else {
		c.reduceRaw(0, tag, bytes)
		c.bcastRaw(0, tag, bytes)
	}
	c.record(OpRecord{Op: OpAllreduce, Peer: None, Peer2: None, Bytes: bytes, Start: start, End: c.Now()})
}

// Alltoall exchanges bytesPerPair with every other rank (pairwise
// exchange: n-1 sendrecv steps). The recorded Bytes field holds the
// per-pair count, matching the MPI sendcount convention.
func (c *Comm) Alltoall(bytesPerPair int64) {
	start := c.beginOp()
	tag := c.collTag()
	size := c.Size()
	for i := 1; i < size; i++ {
		dst := (c.rank + i) % size
		src := (c.rank - i + size) % size
		c.sendrecvRaw(dst, src, tag, bytesPerPair)
	}
	c.record(OpRecord{Op: OpAlltoall, Peer: None, Peer2: None, Bytes: bytesPerPair, Start: start, End: c.Now()})
}

// Alltoallv exchanges sizes[i] bytes with rank i (sizes[rank] itself is
// ignored), the variable-size all-to-all the NAS IS benchmark uses for its
// key redistribution. The recorded Bytes field holds the mean per-pair
// size, so clustering and skeleton generation treat the call as an
// average-size exchange — the "average event" treatment of section 3.2.
func (c *Comm) Alltoallv(sizes []int64) {
	if len(sizes) != c.Size() {
		panic(fmt.Sprintf("mpi: Alltoallv with %d sizes for %d ranks", len(sizes), c.Size()))
	}
	start := c.beginOp()
	tag := c.collTag()
	size := c.Size()
	var total int64
	for i := 1; i < size; i++ {
		dst := (c.rank + i) % size
		src := (c.rank - i + size) % size
		c.sendrecvRaw(dst, src, tag, sizes[dst])
		total += sizes[dst]
	}
	mean := int64(0)
	if size > 1 {
		mean = total / int64(size-1)
	}
	c.record(OpRecord{Op: OpAlltoallv, Peer: None, Peer2: None, Bytes: mean, Start: start, End: c.Now()})
}

// Allgather collects bytesPerRank from every rank at every rank (ring
// algorithm: n-1 forwarding steps).
func (c *Comm) Allgather(bytesPerRank int64) {
	start := c.beginOp()
	tag := c.collTag()
	size := c.Size()
	right := (c.rank + 1) % size
	left := (c.rank - 1 + size) % size
	for i := 1; i < size; i++ {
		c.sendrecvRaw(right, left, tag, bytesPerRank)
	}
	c.record(OpRecord{Op: OpAllgather, Peer: None, Peer2: None, Bytes: bytesPerRank, Start: start, End: c.Now()})
}

// Gather collects bytesPerRank from every rank at root (linear algorithm).
func (c *Comm) Gather(root int, bytesPerRank int64) {
	c.checkRoot("Gather", root)
	start := c.beginOp()
	tag := c.collTag()
	if c.rank == root {
		reqs := make([]*Request, 0, c.Size()-1)
		for r := 0; r < c.Size(); r++ {
			if r == root {
				continue
			}
			reqs = append(reqs, c.irecvRaw(r, tag))
		}
		for _, r := range reqs {
			c.waitDone(r)
		}
	} else {
		r := c.isendRaw(root, tag, bytesPerRank)
		c.waitDone(r)
	}
	c.record(OpRecord{Op: OpGather, Peer: root, Peer2: None, Bytes: bytesPerRank, Start: start, End: c.Now()})
}

// Scatter distributes bytesPerRank from root to every rank (linear
// algorithm).
func (c *Comm) Scatter(root int, bytesPerRank int64) {
	c.checkRoot("Scatter", root)
	start := c.beginOp()
	tag := c.collTag()
	if c.rank == root {
		reqs := make([]*Request, 0, c.Size()-1)
		for r := 0; r < c.Size(); r++ {
			if r == root {
				continue
			}
			reqs = append(reqs, c.isendRaw(r, tag, bytesPerRank))
		}
		for _, r := range reqs {
			c.waitDone(r)
		}
	} else {
		r := c.irecvRaw(root, tag)
		c.waitDone(r)
	}
	c.record(OpRecord{Op: OpScatter, Peer: root, Peer2: None, Bytes: bytesPerRank, Start: start, End: c.Now()})
}

// ValidateTag panics if an application tag collides with the collective
// tag space.
func ValidateTag(tag int) {
	if tag >= collTagBase {
		panic(fmt.Sprintf("mpi: application tag %d collides with collective tag space", tag))
	}
}
