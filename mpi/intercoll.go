package mpi

import "gompi/internal/dtype"

// Intercommunicator collectives (MPI-2 §7.3.2): rooted operations take
// MPI_ROOT / MPI_PROC_NULL on the group providing the root, and the
// root's rank within the remote group on the other side; all-to-all
// operations deliver each group the contribution of the remote group.
// The implementation composes the local group's collective algorithms
// with a leader-to-leader relay on the reserved collective context, the
// same pattern Merge and Dup already use for their exchanges.

// Root is the MPI_ROOT marker: on a rooted intercommunicator
// collective, the single process of the origin group that provides (or
// collects) the data passes Root; its group peers pass ProcNull.
const Root = -4

// Barrier blocks until every process of both groups has entered it
// (MPI_Barrier on an intercommunicator). The local barrier establishes
// that the local group is complete; the leader exchange propagates the
// fact across, and its trailing broadcast releases the local group only
// after the remote group is complete too.
func (ic *Intercomm) Barrier() error {
	if err := ic.ok(); err != nil {
		return ic.raise(err)
	}
	if err := ic.cl.Barrier(); err != nil {
		return ic.raise(mapErr(err))
	}
	_, err := ic.interExchange([]byte{1})
	return ic.raise(err)
}

// Bcast broadcasts from the root process of one group to every process
// of the other (MPI_Bcast on an intercommunicator). The origin group
// passes Root at the root and ProcNull elsewhere; the destination group
// passes the root's rank within its remote group.
func (ic *Intercomm) Bcast(buf any, offset, count int, d *Datatype, root int) error {
	if err := ic.ok(); err != nil {
		return ic.raise(err)
	}
	if err := ic.checkType(d); err != nil {
		return ic.raise(err)
	}
	s := section{dtype.BufOf(buf), offset, count, d}
	switch {
	case root == ProcNull:
		return nil
	case root == Root:
		wire, err := s.pack(nil)
		if err != nil {
			return ic.raise(err)
		}
		_, err = ic.relay(tagInterColl, 0, wire, -1)
		return ic.raise(err)
	case root >= 0 && root < len(ic.remote):
		wire, err := ic.leaderBcast(0, func() ([]byte, error) { return ic.relay(tagInterColl, -1, nil, root) })
		if err == nil {
			_, err = s.unpack(wire)
		}
		return ic.raise(err)
	default:
		return ic.raise(errf(ErrRoot, "intercomm bcast root %d: want Root, ProcNull or a remote rank in [0,%d)", root, len(ic.remote)))
	}
}

// Allreduce folds count items with op across each group and delivers
// every process the reduction of the REMOTE group's contributions
// (MPI_Allreduce on an intercommunicator, MPI-2 §7.3.3). Both groups
// call it with the same count and type.
func (ic *Intercomm) Allreduce(
	sendbuf any, soffset int, recvbuf any, roffset int,
	count int, d *Datatype, op *Op,
) error {
	if err := ic.ok(); err != nil {
		return ic.raise(err)
	}
	if err := ic.checkType(d); err != nil {
		return ic.raise(err)
	}
	if err := checkOp(op, d); err != nil {
		return ic.raise(err)
	}
	into := section{dtype.BufOf(recvbuf), roffset, count, d}
	if _, err := into.check(); err != nil {
		return ic.raise(err)
	}
	// The local reduction lands in rank 0's accumulator, which the
	// leader exchange then ships by reference: an ordinary slice, never
	// written again, rather than pooled or caller memory.
	acc, err := section{dtype.BufOf(sendbuf), soffset, count, d}.pack(nil)
	if err != nil {
		return ic.raise(err)
	}
	p, err := ic.cl.ReducePlan(0, &acc, op.op, d.t.Class())
	if err == nil {
		_, err = p.Run()
	}
	if err != nil {
		return ic.raise(mapErr(err))
	}
	remote, err := ic.interExchange(acc)
	if err != nil {
		return ic.raise(err)
	}
	if _, err := into.unpack(remote); err != nil {
		return ic.raise(err)
	}
	return nil
}
