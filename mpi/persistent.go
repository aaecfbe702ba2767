package mpi

// Persistent collectives (MPI-4: MPI_Barrier_init, MPI_Bcast_init, …).
//
// Each *Init constructor runs its collective's planX — the builder and
// binding the blocking and nonblocking entry points run, so validation,
// tag minting and schedule compilation happen exactly once — for a plan
// of its own, outside the communicator's cache, bound to the (fixed)
// user buffers for life and frozen into a PersistentRequest. Start
// re-packs the buffers and runs the schedule's first steps on the
// caller; whoever waits for the activation runs the rest. Like every
// collective, *Init is a collective call: all members must invoke the
// matching constructor in the same program order, and a constructor
// that fails local validation consumes the collective instance on the
// failing member so peers stay tag-aligned.
//
// Activations of one persistent collective reuse its pre-minted tags:
// Start enforces that the previous activation has completed locally,
// which keeps successive activations' traffic aligned pairwise.

// initColl freezes a plan into a persistent request: the *Init entry
// points. The plan's refresh hook runs at every Start, its fin hook at
// every completion.
func (c *Intracomm) initColl(p *collPlan, err error) (*PersistentRequest, error) {
	if err != nil {
		return nil, c.raise(err)
	}
	return &PersistentRequest{comm: &c.Comm, pcol: p.plan.Persist(), cp: p}, nil
}

// BarrierInit builds a persistent barrier (MPI_Barrier_init).
func (c *Intracomm) BarrierInit() (*PersistentRequest, error) {
	return c.initColl(c.planBarrier(persistent))
}

// BcastInit builds a persistent broadcast (MPI_Bcast_init): each
// activation distributes root's buffer section, re-read at Start, into
// every member's section at completion.
func (c *Intracomm) BcastInit(buf any, offset, count int, d *Datatype, root int) (*PersistentRequest, error) {
	return c.initColl(c.planBcast(section{buf, offset, count, d}, root, persistent))
}

// GatherInit builds a persistent gather (MPI_Gather_init): each
// activation collects the members' send sections, re-read at Start,
// into root's receive buffer at completion.
func (c *Intracomm) GatherInit(
	sendbuf any, soffset, scount int, sdt *Datatype,
	recvbuf any, roffset, rcount int, rdt *Datatype, root int,
) (*PersistentRequest, error) {
	return c.initColl(c.planGather(section{sendbuf, soffset, scount, sdt}, blocks{section: section{recvbuf, roffset, rcount, rdt}}, root, persistent))
}

// AllgatherInit builds a persistent allgather (MPI_Allgather_init).
func (c *Intracomm) AllgatherInit(
	sendbuf any, soffset, scount int, sdt *Datatype,
	recvbuf any, roffset, rcount int, rdt *Datatype,
) (*PersistentRequest, error) {
	return c.initColl(c.planAllgather(section{sendbuf, soffset, scount, sdt}, blocks{section: section{recvbuf, roffset, rcount, rdt}}, persistent))
}

// ReduceInit builds a persistent reduction (MPI_Reduce_init): each
// activation folds the members' send sections, re-read at Start, into
// root's receive section at completion.
func (c *Intracomm) ReduceInit(
	sendbuf any, soffset int, recvbuf any, roffset int,
	count int, d *Datatype, op *Op, root int,
) (*PersistentRequest, error) {
	return c.initColl(c.planReduce(section{sendbuf, soffset, count, d}, section{recvbuf, roffset, count, d}, op, root, persistent))
}

// AllreduceInit builds a persistent all-reduction (MPI_Allreduce_init):
// the canonical persistent overlap primitive — Init once, then per
// iteration Start, compute, Wait.
func (c *Intracomm) AllreduceInit(
	sendbuf any, soffset int, recvbuf any, roffset int,
	count int, d *Datatype, op *Op,
) (*PersistentRequest, error) {
	return c.initColl(c.planAllreduce(section{sendbuf, soffset, count, d}, section{recvbuf, roffset, count, d}, op, persistent))
}

// ScanInit builds a persistent inclusive prefix reduction
// (MPI_Scan_init).
func (c *Intracomm) ScanInit(
	sendbuf any, soffset int, recvbuf any, roffset int,
	count int, d *Datatype, op *Op,
) (*PersistentRequest, error) {
	return c.initColl(c.planScan(false, section{sendbuf, soffset, count, d}, section{recvbuf, roffset, count, d}, op, persistent))
}

// ExscanInit builds a persistent exclusive prefix reduction
// (MPI_Exscan_init); rank 0's receive buffer is left untouched, as in
// Exscan.
func (c *Intracomm) ExscanInit(
	sendbuf any, soffset int, recvbuf any, roffset int,
	count int, d *Datatype, op *Op,
) (*PersistentRequest, error) {
	return c.initColl(c.planScan(true, section{sendbuf, soffset, count, d}, section{recvbuf, roffset, count, d}, op, persistent))
}
