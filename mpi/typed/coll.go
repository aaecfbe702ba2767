package typed

import (
	"fmt"

	"gompi/mpi"
)

// Typed collectives, generic over the Comm interface: every
// intracommunicator kind works — *mpi.Intracomm, and *mpi.Cartcomm and
// *mpi.Graphcomm through embedding. Counts are taken from slice lengths, so
// the classic API's uniform-contribution rule becomes a length rule:
// every member passes the same send length to Gather/Allgather, the
// same recv length to Scatter, and the same count to the reductions.
// The v-variants (Gatherv/Scatterv/Allgatherv/Alltoallv) relax that to
// per-rank counts with back-to-back packing. Receive buffers that a
// call does not touch on this rank (recv at a non-root, Gather's
// recvbuf away from root) may be nil.
//
// The I*-prefixed forms are the nonblocking variants: they return the
// classic *mpi.Request, completing when every member has entered the
// matching call. Receive buffers, Obj-routed ones included, are filled
// by whichever call observes completion first — the request's Wait,
// WaitCtx or Test, or mpi.WaitAll, mpi.WaitAny and friends over a set
// holding it — and must not be touched before then. An Obj-routed
// element of the wrong type is an ErrType-class error of that call and
// of every later completion call.

// Barrier blocks until every member has entered it (MPI_Barrier).
func Barrier(c Comm) error { return c.Intra().Barrier() }

// Bcast broadcasts root's buffer to every member (MPI_Bcast). All
// members pass a buffer of the same length.
func Bcast[T any](c Comm, buf []T, root int) error {
	return c.Intra().Bcast(buf, 0, len(buf), TypeOf[T](), root)
}

// Ibcast starts a nonblocking broadcast (MPI_Ibcast) and returns the
// classic request; whichever call completes it fills buf.
func Ibcast[T any](c Comm, buf []T, root int) (*mpi.Request, error) {
	return c.Intra().Ibcast(buf, 0, len(buf), TypeOf[T](), root)
}

// BcastOne broadcasts a single value from root, returning the value on
// every member.
func BcastOne[T any](c Comm, v T, root int) (T, error) {
	buf := []T{v}
	err := Bcast(c, buf, root)
	return buf[0], err
}

// Gather collects every member's send slice at root (MPI_Gather):
// member r's contribution lands at recv[r*len(send):]. recv needs
// length Size()*len(send) at root and is ignored elsewhere.
func Gather[T any](c Comm, send, recv []T, root int) error {
	d := TypeOf[T]()
	return c.Intra().Gather(send, 0, len(send), d, recv, 0, len(send), d, root)
}

// Igather starts a nonblocking gather (MPI_Igather) and returns the
// classic request; whichever call completes it fills root's recv.
func Igather[T any](c Comm, send, recv []T, root int) (*mpi.Request, error) {
	d := TypeOf[T]()
	return c.Intra().Igather(send, 0, len(send), d, recv, 0, len(send), d, root)
}

// Gatherv collects varying-length contributions at root (MPI_Gatherv):
// member r contributes its whole send slice, whose length must equal
// counts[r], and the blocks land back-to-back in recv (length
// sum(counts)) in rank order. counts and recv are significant at root
// only.
func Gatherv[T any](c Comm, send, recv []T, counts []int, root int) error {
	d := TypeOf[T]()
	var displs []int
	if c.Rank() == root {
		var total int
		displs, total = displsOf(counts)
		if len(recv) != total {
			c.Intra().SkipColl() // stay tag-aligned with members whose call proceeds
			return fmt.Errorf("typed: Gatherv recv length %d, want sum(counts) = %d", len(recv), total)
		}
	}
	return c.Intra().Gatherv(send, 0, len(send), d, recv, 0, counts, displs, d, root)
}

// Allgather is Gather with the result delivered to every member
// (MPI_Allgather). recv needs length Size()*len(send) everywhere.
func Allgather[T any](c Comm, send, recv []T) error {
	d := TypeOf[T]()
	return c.Intra().Allgather(send, 0, len(send), d, recv, 0, len(send), d)
}

// Iallgather starts a nonblocking allgather (MPI_Iallgather) and
// returns the classic request; whichever call completes it fills recv.
func Iallgather[T any](c Comm, send, recv []T) (*mpi.Request, error) {
	d := TypeOf[T]()
	return c.Intra().Iallgather(send, 0, len(send), d, recv, 0, len(send), d)
}

// Allgatherv is Gatherv with the result delivered to every member
// (MPI_Allgatherv): member r contributes len(send) == counts[r]
// elements and every member's recv (length sum(counts)) receives the
// blocks back-to-back in rank order.
func Allgatherv[T any](c Comm, send, recv []T, counts []int) error {
	d := TypeOf[T]()
	displs, total := displsOf(counts)
	if len(recv) != total {
		c.Intra().SkipColl() // stay tag-aligned with members whose call proceeds
		return fmt.Errorf("typed: Allgatherv recv length %d, want sum(counts) = %d", len(recv), total)
	}
	if r := c.Rank(); r < len(counts) && len(send) != counts[r] {
		c.Intra().SkipColl()
		return fmt.Errorf("typed: Allgatherv send length %d, want counts[%d] = %d", len(send), r, counts[r])
	}
	return c.Intra().Allgatherv(send, 0, len(send), d, recv, 0, counts, displs, d)
}

// Scatter distributes root's send slice over the members (MPI_Scatter):
// member r receives send[r*len(recv):]. send needs length
// Size()*len(recv) at root and is ignored elsewhere.
func Scatter[T any](c Comm, send, recv []T, root int) error {
	d := TypeOf[T]()
	return c.Intra().Scatter(send, 0, len(recv), d, recv, 0, len(recv), d, root)
}

// Iscatter starts a nonblocking scatter (MPI_Iscatter) and returns the
// classic request; whichever call completes it fills recv.
func Iscatter[T any](c Comm, send, recv []T, root int) (*mpi.Request, error) {
	d := TypeOf[T]()
	return c.Intra().Iscatter(send, 0, len(recv), d, recv, 0, len(recv), d, root)
}

// Scatterv distributes varying-length blocks from root (MPI_Scatterv):
// root's send slice holds the blocks back-to-back in rank order (block
// r has counts[r] elements); member r receives block r into recv, whose
// length must equal counts[r]. send and counts are significant at root
// only.
func Scatterv[T any](c Comm, send []T, counts []int, recv []T, root int) error {
	d := TypeOf[T]()
	var displs []int
	if c.Rank() == root {
		var total int
		displs, total = displsOf(counts)
		if len(send) != total {
			c.Intra().SkipColl() // stay tag-aligned with members whose call proceeds
			return fmt.Errorf("typed: Scatterv send length %d, want sum(counts) = %d", len(send), total)
		}
	}
	return c.Intra().Scatterv(send, 0, counts, displs, d, recv, 0, len(recv), d, root)
}

// Alltoall exchanges equal-size blocks between all pairs (MPI_Alltoall):
// send and recv both hold Size() blocks back-to-back; member j receives
// send block j. len(send) and len(recv) must be multiples of Size().
func Alltoall[T any](c Comm, send, recv []T) error {
	if err := checkBlocks(c, len(send), len(recv)); err != nil {
		c.Intra().SkipColl() // stay tag-aligned with members whose call proceeds
		return err
	}
	d := TypeOf[T]()
	return c.Intra().Alltoall(send, 0, len(send)/c.Size(), d, recv, 0, len(recv)/c.Size(), d)
}

// Ialltoall starts a nonblocking alltoall (MPI_Ialltoall) and returns
// the classic request; whichever call completes it fills recv.
func Ialltoall[T any](c Comm, send, recv []T) (*mpi.Request, error) {
	if err := checkBlocks(c, len(send), len(recv)); err != nil {
		c.Intra().SkipColl() // stay tag-aligned with members whose call proceeds
		return nil, err
	}
	d := TypeOf[T]()
	return c.Intra().Ialltoall(send, 0, len(send)/c.Size(), d, recv, 0, len(recv)/c.Size(), d)
}

// checkBlocks rejects alltoall buffers that do not divide evenly into
// Size() blocks — integer division would silently drop the trailing
// elements otherwise.
func checkBlocks(c Comm, nsend, nrecv int) error {
	if n := c.Size(); nsend%n != 0 || nrecv%n != 0 {
		return fmt.Errorf("typed: alltoall buffer lengths %d/%d are not multiples of the communicator size %d",
			nsend, nrecv, n)
	}
	return nil
}

// Alltoallv exchanges varying-size blocks between all pairs
// (MPI_Alltoallv): send holds the outgoing blocks back-to-back (block j,
// bound for member j, has sendcounts[j] elements) and recv receives the
// incoming blocks back-to-back (block j, from member j, has
// recvcounts[j] elements). Every pair must agree: my sendcounts[j]
// equals member j's recvcounts[my rank].
func Alltoallv[T any](c Comm, send []T, sendcounts []int, recv []T, recvcounts []int) error {
	d := TypeOf[T]()
	sdispls, stotal := displsOf(sendcounts)
	rdispls, rtotal := displsOf(recvcounts)
	if len(send) != stotal || len(recv) != rtotal {
		c.Intra().SkipColl() // stay tag-aligned with members whose call proceeds
		return fmt.Errorf("typed: Alltoallv buffer lengths %d/%d, want sum(counts) = %d/%d",
			len(send), len(recv), stotal, rtotal)
	}
	return c.Intra().Alltoallv(send, 0, sendcounts, sdispls, d, recv, 0, recvcounts, rdispls, d)
}

// displsOf derives back-to-back displacements from per-rank counts.
func displsOf(counts []int) ([]int, int) {
	displs := make([]int, len(counts))
	total := 0
	for i, n := range counts {
		displs[i] = total
		total += n
	}
	return displs, total
}

// Reduce folds every member's send slice elementwise with op, leaving
// the result in recv at root (MPI_Reduce). recv may be nil elsewhere.
func Reduce[T Primitive](c Comm, send, recv []T, op Op[T], root int) error {
	return c.Intra().Reduce(send, 0, recv, 0, len(send), TypeOf[T](), op.op, root)
}

// Ireduce starts a nonblocking reduction (MPI_Ireduce).
func Ireduce[T Primitive](c Comm, send, recv []T, op Op[T], root int) (*mpi.Request, error) {
	return c.Intra().Ireduce(send, 0, recv, 0, len(send), TypeOf[T](), op.op, root)
}

// ReduceOne folds a single value with op; the reduced value is returned
// at root (other members receive their own contribution back).
func ReduceOne[T Primitive](c Comm, v T, op Op[T], root int) (T, error) {
	out := []T{v}
	err := Reduce(c, []T{v}, out, op, root)
	return out[0], err
}

// Allreduce folds every member's send slice elementwise with op,
// leaving the result in recv on every member (MPI_Allreduce).
func Allreduce[T Primitive](c Comm, send, recv []T, op Op[T]) error {
	return c.Intra().Allreduce(send, 0, recv, 0, len(send), TypeOf[T](), op.op)
}

// Iallreduce starts a nonblocking all-reduction (MPI_Iallreduce): the
// canonical communication/computation overlap primitive — start it,
// compute, then Wait (or WaitCtx) before reading recv.
func Iallreduce[T Primitive](c Comm, send, recv []T, op Op[T]) (*mpi.Request, error) {
	return c.Intra().Iallreduce(send, 0, recv, 0, len(send), TypeOf[T](), op.op)
}

// AllreduceOne folds a single value with op and returns the reduced
// value on every member.
func AllreduceOne[T Primitive](c Comm, v T, op Op[T]) (T, error) {
	out := []T{v}
	err := Allreduce(c, []T{v}, out, op)
	return out[0], err
}

// Scan computes the inclusive prefix reduction in rank order (MPI_Scan):
// member r receives op over the contributions of ranks 0..r.
func Scan[T Primitive](c Comm, send, recv []T, op Op[T]) error {
	return c.Intra().Scan(send, 0, recv, 0, len(send), TypeOf[T](), op.op)
}

// Iscan starts a nonblocking inclusive prefix reduction (MPI_Iscan).
func Iscan[T Primitive](c Comm, send, recv []T, op Op[T]) (*mpi.Request, error) {
	return c.Intra().Iscan(send, 0, recv, 0, len(send), TypeOf[T](), op.op)
}

// Exscan computes the exclusive prefix reduction in rank order
// (MPI_Exscan): member r receives op over ranks 0..r-1; rank 0's recv
// is untouched.
func Exscan[T Primitive](c Comm, send, recv []T, op Op[T]) error {
	return c.Intra().Exscan(send, 0, recv, 0, len(send), TypeOf[T](), op.op)
}

// Iexscan starts a nonblocking exclusive prefix reduction
// (MPI_Iexscan).
func Iexscan[T Primitive](c Comm, send, recv []T, op Op[T]) (*mpi.Request, error) {
	return c.Intra().Iexscan(send, 0, recv, 0, len(send), TypeOf[T](), op.op)
}
