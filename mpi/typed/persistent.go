package typed

import "gompi/mpi"

// Typed persistent operations (MPI-4 *Init/Start), generic over the
// classic persistent surface: bind the buffers and plan the operation
// once, then Start each activation. Where the classic API says
//
//	req, _ := world.SendInit(buf, 0, len(buf), mpi.DOUBLE, dest, tag)
//
// the typed API says
//
//	req, _ := typed.SendInit(world, buf, dest, tag)
//
// and both return the same classic *mpi.PersistentRequest, which joins
// mpi.StartAll sets, and whose current activation joins mpi.WaitAll and
// mpi.WaitAny sets, as it is. Buffers are re-read at each Start (sends,
// reduction operands) — however the activation is started — and
// re-deposited by whichever call completes it (receives, collective
// results), so a steady-state activation of a native-element request
// allocates nothing. Obj-routed element types are encoded from, and
// decoded into, the bound slice itself.

// SendInit builds a persistent standard-mode send (MPI_Send_init)
// bound to buf; each Start — its own or one through mpi.StartAll —
// sends buf's contents as of that call.
func SendInit[T any](c Peer, buf []T, dest, tag int) (*mpi.PersistentRequest, error) {
	return c.Base().SendInit(buf, 0, len(buf), TypeOf[T](), dest, tag)
}

// RecvInit builds a persistent receive (MPI_Recv_init) bound to buf;
// each activation fills buf (see Recv for how) in whichever call
// completes it.
func RecvInit[T any](c Peer, buf []T, source, tag int) (*mpi.PersistentRequest, error) {
	return c.Base().RecvInit(buf, 0, len(buf), TypeOf[T](), source, tag)
}

// BarrierInit builds a persistent barrier (MPI_Barrier_init).
func BarrierInit(c Comm) (*mpi.PersistentRequest, error) {
	return c.Intra().BarrierInit()
}

// BcastInit builds a persistent broadcast (MPI_Bcast_init) bound to
// buf: each activation re-reads root's buf at Start and fills every
// other member's buf at completion.
func BcastInit[T any](c Comm, buf []T, root int) (*mpi.PersistentRequest, error) {
	return c.Intra().BcastInit(buf, 0, len(buf), TypeOf[T](), root)
}

// ReduceInit builds a persistent reduction (MPI_Reduce_init): each
// activation folds the members' send slices, re-read at Start, into
// root's recv slice at completion. The Primitive constraint keeps
// reductions on native buffers, and the runtime folds straight into
// recv's memory, so a steady-state activation allocates only schedule
// bookkeeping.
func ReduceInit[T Primitive](c Comm, send, recv []T, op Op[T], root int) (*mpi.PersistentRequest, error) {
	return c.Intra().ReduceInit(send, 0, recv, 0, len(send), TypeOf[T](), op.op, root)
}

// AllreduceInit builds a persistent all-reduction
// (MPI_Allreduce_init): the canonical persistent overlap primitive —
// Init once, then per iteration Start, compute, Wait.
func AllreduceInit[T Primitive](c Comm, send, recv []T, op Op[T]) (*mpi.PersistentRequest, error) {
	return c.Intra().AllreduceInit(send, 0, recv, 0, len(send), TypeOf[T](), op.op)
}
