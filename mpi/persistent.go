package mpi

import (
	"fmt"

	"gompi/internal/coll"
	"gompi/internal/dtype"
)

// Persistent collectives (MPI-4: MPI_Barrier_init, MPI_Bcast_init, …).
//
// Each *Init constructor runs its collective's planX, as the blocking
// and nonblocking entry points do — validation, the plan from the
// communicator's cache or a new one, and exactly one collective
// instance — and then takes the plan out of the cache: persist drops
// the cache's entry and moves the plan into the persistent tag space
// (coll.Plan.Persist), bound to the (fixed) user buffers for life.
// persist's start closure is the request's one activation, as sendInit's
// and RecvInit's are for point-to-point: every Start re-arms the plan
// (coll.Plan.Rearm) and starts it through startColl, as IX does: the
// refresh hook re-packs the buffers, the schedule's first steps run on
// the caller, whoever waits for the activation runs the rest and the
// fin hook deposits. Like every collective, *Init is a collective call:
// all members must invoke the matching constructor in the same program
// order, and a constructor that fails local validation consumes the
// collective instance on the failing member so peers stay tag-aligned.
//
// Activations of one persistent collective reuse its tags: Start
// refuses while the previous activation has not completed locally,
// which keeps successive activations' traffic aligned pairwise.

// persist takes a call's plan out of the cache and freezes it into a
// persistent request: the *Init entry points. An activation re-arms the
// plan and starts it as IX starts a cached one. The last activation's
// schedule must have completed, even when its handle was freed; one
// that failed (cancelled, a peer lost) poisons the request for good,
// since its partners' activations can no longer line up with it.
func (c *Intracomm) persist(p *collPlan, err error) (*PersistentRequest, error) {
	if err != nil {
		return nil, c.raise(err)
	}
	p.done(false)
	p.plan.Persist()
	var last *coll.Request
	return &PersistentRequest{comm: &c.Comm, start: func() (*Request, error) {
		if last != nil {
			if _, done, err := last.Test(); !done {
				return nil, errf(ErrRequest, "Start on a still-active persistent request")
			} else if err != nil {
				return nil, c.raise(mapErr(fmt.Errorf("persistent collective poisoned by a failed activation: %w", err)))
			}
		}
		p.plan.Rearm()
		r, err := c.startColl(p, nil)
		if err != nil {
			return nil, err
		}
		last = r.cr
		return r, nil
	}}, nil
}

// BarrierInit builds a persistent barrier (MPI_Barrier_init).
func (c *Intracomm) BarrierInit() (*PersistentRequest, error) {
	return c.persist(c.planBarrier())
}

// BcastInit builds a persistent broadcast (MPI_Bcast_init): each
// activation distributes root's buffer section, re-read at Start, into
// every member's section at completion.
func (c *Intracomm) BcastInit(buf any, offset, count int, d *Datatype, root int) (*PersistentRequest, error) {
	return c.persist(c.planBcast(section{dtype.BufOf(buf), offset, count, d}, root))
}

// GatherInit builds a persistent gather (MPI_Gather_init): each
// activation collects the members' send sections, re-read at Start,
// into root's receive buffer at completion.
func (c *Intracomm) GatherInit(
	sendbuf any, soffset, scount int, sdt *Datatype,
	recvbuf any, roffset, rcount int, rdt *Datatype, root int,
) (*PersistentRequest, error) {
	return c.persist(c.planGather(section{dtype.BufOf(sendbuf), soffset, scount, sdt}, blocks{section: section{dtype.BufOf(recvbuf), roffset, rcount, rdt}}, root))
}

// AllgatherInit builds a persistent allgather (MPI_Allgather_init).
func (c *Intracomm) AllgatherInit(
	sendbuf any, soffset, scount int, sdt *Datatype,
	recvbuf any, roffset, rcount int, rdt *Datatype,
) (*PersistentRequest, error) {
	return c.persist(c.planAllgather(section{dtype.BufOf(sendbuf), soffset, scount, sdt}, blocks{section: section{dtype.BufOf(recvbuf), roffset, rcount, rdt}}))
}

// ReduceInit builds a persistent reduction (MPI_Reduce_init): each
// activation folds the members' send sections, re-read at Start, into
// root's receive section at completion.
func (c *Intracomm) ReduceInit(
	sendbuf any, soffset int, recvbuf any, roffset int,
	count int, d *Datatype, op *Op, root int,
) (*PersistentRequest, error) {
	return c.persist(c.planReduce(section{dtype.BufOf(sendbuf), soffset, count, d}, section{dtype.BufOf(recvbuf), roffset, count, d}, op, root))
}

// AllreduceInit builds a persistent all-reduction (MPI_Allreduce_init):
// the canonical persistent overlap primitive — Init once, then per
// iteration Start, compute, Wait.
func (c *Intracomm) AllreduceInit(
	sendbuf any, soffset int, recvbuf any, roffset int,
	count int, d *Datatype, op *Op,
) (*PersistentRequest, error) {
	return c.persist(c.planAllreduce(section{dtype.BufOf(sendbuf), soffset, count, d}, section{dtype.BufOf(recvbuf), roffset, count, d}, op))
}

// ScanInit builds a persistent inclusive prefix reduction
// (MPI_Scan_init).
func (c *Intracomm) ScanInit(
	sendbuf any, soffset int, recvbuf any, roffset int,
	count int, d *Datatype, op *Op,
) (*PersistentRequest, error) {
	return c.persist(c.planScan(false, section{dtype.BufOf(sendbuf), soffset, count, d}, section{dtype.BufOf(recvbuf), roffset, count, d}, op))
}

// ExscanInit builds a persistent exclusive prefix reduction
// (MPI_Exscan_init); rank 0's receive buffer is left untouched, as in
// Exscan.
func (c *Intracomm) ExscanInit(
	sendbuf any, soffset int, recvbuf any, roffset int,
	count int, d *Datatype, op *Op,
) (*PersistentRequest, error) {
	return c.persist(c.planScan(true, section{dtype.BufOf(sendbuf), soffset, count, d}, section{dtype.BufOf(recvbuf), roffset, count, d}, op))
}
