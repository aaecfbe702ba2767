package mpi

import (
	"gompi/internal/coll"
	"gompi/internal/dtype"
)

// Persistent collectives (MPI-4: MPI_Barrier_init, MPI_Bcast_init, …).
//
// Each *Init constructor validates and plans its collective exactly
// once — argument checks, tag minting, schedule compilation — and
// returns a PersistentRequest whose Start re-packs the (fixed) user
// buffers and hands the cached schedule to the runtime's shared
// progress pool. Like every collective, *Init is a collective call: all
// members must invoke the matching constructor in the same program
// order, and a constructor that fails local validation consumes the
// collective instance on the failing member (SkipInstance) so peers
// stay tag-aligned.
//
// Activations of one persistent collective reuse its pre-minted tags:
// Start enforces that the previous activation has completed locally,
// which keeps successive activations' traffic aligned pairwise.

// skipInit is the validation-failure exit of the *Init constructors:
// identical bookkeeping to runColl's failure path.
func (c *Intracomm) skipInit(err error) (*PersistentRequest, error) {
	c.cl.SkipInstance()
	return nil, c.raise(err)
}

// BarrierInit builds a persistent barrier (MPI_Barrier_init).
func (c *Intracomm) BarrierInit() (*PersistentRequest, error) {
	c.env.enterCall()
	if err := c.ok(); err != nil {
		return c.skipInit(err)
	}
	return &PersistentRequest{comm: &c.Comm, pcol: c.cl.BarrierInit()}, nil
}

// BcastInit builds a persistent broadcast (MPI_Bcast_init): each
// activation distributes root's buffer section, re-read at Start, into
// every member's section at completion.
func (c *Intracomm) BcastInit(buf any, offset, count int, d *Datatype, root int) (*PersistentRequest, error) {
	c.env.enterCall()
	if err := c.collChecks(d, root); err != nil {
		return c.skipInit(err)
	}
	var wire []byte
	refresh := func() error {
		if c.rank != root {
			return nil
		}
		w, err := c.packColl(buf, offset, count, d)
		if err != nil {
			return err
		}
		wire = w
		return nil
	}
	if err := refresh(); err != nil {
		return c.skipInit(err)
	}
	pcol, err := c.cl.BcastInit(root, &wire)
	if err != nil {
		return nil, c.raise(mapEngineErr(err))
	}
	var fin func(res any) error
	if c.rank != root {
		fin = func(res any) error {
			if _, err := dtype.Unpack(res.([]byte), buf, offset, count, d.t); err != nil {
				return mapDataErr(err)
			}
			return nil
		}
	}
	return &PersistentRequest{comm: &c.Comm, pcol: pcol, refresh: refresh, fin: fin}, nil
}

// GatherInit builds a persistent gather (MPI_Gather_init): each
// activation collects the members' send sections, re-read at Start,
// into root's receive buffer at completion.
func (c *Intracomm) GatherInit(
	sendbuf any, soffset, scount int, sdt *Datatype,
	recvbuf any, roffset, rcount int, rdt *Datatype, root int,
) (*PersistentRequest, error) {
	c.env.enterCall()
	err := c.collChecks(sdt, root)
	if err == nil && c.rank == root {
		err = c.checkType(rdt)
	}
	if err != nil {
		return c.skipInit(err)
	}
	var mine []byte
	refresh := func() error {
		w, err := c.packColl(sendbuf, soffset, scount, sdt)
		if err != nil {
			return err
		}
		mine = w
		return nil
	}
	if err := refresh(); err != nil {
		return c.skipInit(err)
	}
	pcol, perr := c.cl.GatherInit(root, &mine)
	if perr != nil {
		return nil, c.raise(mapEngineErr(perr))
	}
	var fin func(res any) error
	if c.rank == root {
		fin = blocksFin(recvbuf, roffset, rcount, rdt)
	}
	return &PersistentRequest{comm: &c.Comm, pcol: pcol, refresh: refresh, fin: fin}, nil
}

// AllgatherInit builds a persistent allgather (MPI_Allgather_init).
func (c *Intracomm) AllgatherInit(
	sendbuf any, soffset, scount int, sdt *Datatype,
	recvbuf any, roffset, rcount int, rdt *Datatype,
) (*PersistentRequest, error) {
	c.env.enterCall()
	err := c.ok()
	if err == nil {
		err = c.checkType(sdt)
	}
	if err == nil {
		err = c.checkType(rdt)
	}
	if err != nil {
		return c.skipInit(err)
	}
	var mine []byte
	refresh := func() error {
		w, err := c.packColl(sendbuf, soffset, scount, sdt)
		if err != nil {
			return err
		}
		mine = w
		return nil
	}
	if err := refresh(); err != nil {
		return c.skipInit(err)
	}
	return &PersistentRequest{
		comm: &c.Comm, pcol: c.cl.AllgatherInit(&mine),
		refresh: refresh, fin: blocksFin(recvbuf, roffset, rcount, rdt),
	}, nil
}

// reduceInit is the shared tail of the reduction family's constructors,
// past validation: the accumulator is built (and the receive section
// checked) once, re-loaded from the send section at every Start, and
// deposited at every completion; the buffers behind it are reused by
// all activations.
func (c *Intracomm) reduceInit(
	recv bool, sendbuf any, soffset int, recvbuf any, roffset int,
	count int, d *Datatype, build func(acc *[]byte) (*coll.Plan, error),
) (*PersistentRequest, error) {
	a, err := c.newAccum(recv, recvbuf, roffset, count, count, d, true)
	if err == nil {
		// Init only validates the send section; Start reads it.
		if _, serr := dtype.CheckSection(sendbuf, soffset, count, d.t); serr != nil {
			err = mapDataErr(serr)
		}
	}
	if err != nil {
		return c.skipInit(err)
	}
	p, err := build(&a.b)
	if err != nil {
		return nil, c.raise(mapEngineErr(err))
	}
	refresh := func() error { return a.load(sendbuf, soffset, count) }
	return &PersistentRequest{comm: &c.Comm, pcol: p.Persist(), refresh: refresh, fin: a.fin}, nil
}

// ReduceInit builds a persistent reduction (MPI_Reduce_init): each
// activation folds the members' send sections, re-read at Start, into
// root's receive section at completion.
func (c *Intracomm) ReduceInit(
	sendbuf any, soffset int, recvbuf any, roffset int,
	count int, d *Datatype, op *Op, root int,
) (*PersistentRequest, error) {
	c.env.enterCall()
	err := c.collChecks(d, root)
	if err == nil {
		err = checkOp(op, d)
	}
	if err != nil {
		return c.skipInit(err)
	}
	return c.reduceInit(c.rank == root, sendbuf, soffset, recvbuf, roffset, count, d,
		func(acc *[]byte) (*coll.Plan, error) { return c.cl.ReducePlan(root, acc, op.op, d.t.Class()) })
}

// checkReduceInit is the shared validation of the rootless reduction
// family constructors.
func (c *Intracomm) checkReduceInit(d *Datatype, op *Op) error {
	if err := c.ok(); err != nil {
		return err
	}
	if err := c.checkType(d); err != nil {
		return err
	}
	return checkOp(op, d)
}

// AllreduceInit builds a persistent all-reduction (MPI_Allreduce_init):
// the canonical persistent overlap primitive — Init once, then per
// iteration Start, compute, Wait.
func (c *Intracomm) AllreduceInit(
	sendbuf any, soffset int, recvbuf any, roffset int,
	count int, d *Datatype, op *Op,
) (*PersistentRequest, error) {
	c.env.enterCall()
	if err := c.checkReduceInit(d, op); err != nil {
		return c.skipInit(err)
	}
	return c.reduceInit(true, sendbuf, soffset, recvbuf, roffset, count, d,
		func(acc *[]byte) (*coll.Plan, error) { return c.cl.AllreducePlan(acc, op.op, d.t.Class()) })
}

// ScanInit builds a persistent inclusive prefix reduction
// (MPI_Scan_init).
func (c *Intracomm) ScanInit(
	sendbuf any, soffset int, recvbuf any, roffset int,
	count int, d *Datatype, op *Op,
) (*PersistentRequest, error) {
	return c.scanInit(false, sendbuf, soffset, recvbuf, roffset, count, d, op)
}

// ExscanInit builds a persistent exclusive prefix reduction
// (MPI_Exscan_init); rank 0's receive buffer is left untouched, as in
// Exscan.
func (c *Intracomm) ExscanInit(
	sendbuf any, soffset int, recvbuf any, roffset int,
	count int, d *Datatype, op *Op,
) (*PersistentRequest, error) {
	return c.scanInit(true, sendbuf, soffset, recvbuf, roffset, count, d, op)
}

func (c *Intracomm) scanInit(
	exclusive bool,
	sendbuf any, soffset int, recvbuf any, roffset int,
	count int, d *Datatype, op *Op,
) (*PersistentRequest, error) {
	c.env.enterCall()
	if err := c.checkReduceInit(d, op); err != nil {
		return c.skipInit(err)
	}
	return c.reduceInit(!exclusive || c.rank > 0, sendbuf, soffset, recvbuf, roffset, count, d,
		func(acc *[]byte) (*coll.Plan, error) { return c.cl.ScanPlan(exclusive, acc, op.op, d.t.Class()) })
}
