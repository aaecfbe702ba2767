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
// Buffers are re-read at each Start (sends, reduction operands) and
// re-deposited at each completion (receives, collective results), so a
// steady-state activation of a native-element request allocates
// nothing. Obj-routed element types keep working: the typed handle
// re-boxes the send buffer before each Start and unboxes the result
// after each completion.

// PeerInit is the point-to-point persistent surface the typed layer
// builds on; *mpi.Comm satisfies it, and every concrete communicator
// does through embedding.
type PeerInit interface {
	Peer
	SendInit(buf any, offset, count int, d *mpi.Datatype, dest, tag int) (*mpi.PersistentRequest, error)
	RecvInit(buf any, offset, count int, d *mpi.Datatype, source, tag int) (*mpi.PersistentRequest, error)
}

// CommInit is the collective persistent surface; *mpi.Intracomm
// satisfies it, and *mpi.Cartcomm and *mpi.Graphcomm do through
// embedding.
type CommInit interface {
	Comm
	BarrierInit() (*mpi.PersistentRequest, error)
	BcastInit(buf any, offset, count int, d *mpi.Datatype, root int) (*mpi.PersistentRequest, error)
	ReduceInit(sendbuf any, soffset int, recvbuf any, roffset int,
		count int, d *mpi.Datatype, op *mpi.Op, root int) (*mpi.PersistentRequest, error)
	AllreduceInit(sendbuf any, soffset int, recvbuf any, roffset int,
		count int, d *mpi.Datatype, op *mpi.Op) (*mpi.PersistentRequest, error)
}

// PersistentRequest is a typed handle on a persistent operation. Start
// begins an activation; each activation completes through Wait,
// WaitCtx or Test on this handle exactly as a one-shot typed request
// would, and the handle is then startable again. For Obj-routed
// element types the typed buffer is only filled by completing through
// this handle, not the raw one.
type PersistentRequest[T any] struct {
	completion // at is &p.Request, the current activation
	p          *mpi.PersistentRequest
	rebox      func() // re-snapshot the typed send buffer; nil for native
}

// persistent wraps a classic persistent request, or passes the *Init
// call's error on.
func persistent[T any](p *mpi.PersistentRequest, err error, rebox func(), unbox func() error) (*PersistentRequest[T], error) {
	if err != nil {
		return nil, err
	}
	return &PersistentRequest[T]{completion{at: &p.Request, unbox: unbox}, p, rebox}, nil
}

// Raw exposes the underlying classic persistent request, for mixing
// typed handles into mpi.StartAll sets; its current activation
// (Raw().Request) joins mpi.WaitAll / mpi.WaitAny sets. An activation
// started through Raw still completes through this handle. Starting
// through Raw skips the re-snapshot of an Obj-routed send buffer, so
// such a send carries the snapshot taken at Init or the last typed
// Start.
func (r *PersistentRequest[T]) Raw() *mpi.PersistentRequest { return r.p }

// Start begins a new activation (MPI_Start): the send-side buffer is
// re-read as of this call. The previous activation must have completed.
func (r *PersistentRequest[T]) Start() error {
	if r.rebox != nil {
		r.rebox()
	}
	return r.p.Start()
}

// Free releases the persistent operation (MPI_Request_free on an
// inactive persistent request).
func (r *PersistentRequest[T]) Free() error { return r.p.Free() }

// viewInit resolves a buffer for a persistent binding. Unlike view,
// which snapshots Obj-routed buffers once, it returns a rebox that
// re-snapshots the typed buffer into the bound []any staging slice —
// run before each send-side activation — alongside the usual unbox.
func viewInit[T any](buf []T) (raw any, d *mpi.Datatype, rebox func(), unbox func() error) {
	raw, d, _ = view(buf)
	if tmp, boxed := raw.([]any); boxed && d == mpi.OBJECT {
		rebox = func() {
			for i, v := range buf {
				tmp[i] = v
			}
		}
		unbox = func() error { return unboxInto(buf, tmp) }
	}
	return raw, d, rebox, unbox
}

// SendInit builds a persistent standard-mode send (MPI_Send_init)
// bound to buf; each Start sends buf's contents as of that call.
func SendInit[T any](c PeerInit, buf []T, dest, tag int) (*PersistentRequest[T], error) {
	raw, d, rebox, _ := viewInit(buf)
	p, err := c.SendInit(raw, 0, len(buf), d, dest, tag)
	return persistent[T](p, err, rebox, nil)
}

// RecvInit builds a persistent receive (MPI_Recv_init) bound to buf;
// each activation fills buf when completed through this handle —
// native-element activations land directly in buf with no staging copy.
func RecvInit[T any](c PeerInit, buf []T, source, tag int) (*PersistentRequest[T], error) {
	raw, d, _, unbox := viewInit(buf)
	p, err := c.RecvInit(raw, 0, len(buf), d, source, tag)
	return persistent[T](p, err, nil, unbox)
}

// BarrierInit builds a persistent barrier (MPI_Barrier_init). There is
// no element type involved, so the classic handle is returned as-is.
func BarrierInit(c CommInit) (*mpi.PersistentRequest, error) {
	return c.BarrierInit()
}

// BcastInit builds a persistent broadcast (MPI_Bcast_init) bound to
// buf: each activation re-reads root's buf at Start and fills every
// other member's buf at completion.
func BcastInit[T any](c CommInit, buf []T, root int) (*PersistentRequest[T], error) {
	raw, d, rebox, unbox := viewInit(buf)
	p, err := c.BcastInit(raw, 0, len(buf), d, root)
	if c.Rank() == root {
		unbox = nil // root's buffer is the source; nothing arrives
	} else {
		rebox = nil
	}
	return persistent[T](p, err, rebox, unbox)
}

// ReduceInit builds a persistent reduction (MPI_Reduce_init): each
// activation folds the members' send slices, re-read at Start, into
// root's recv slice at completion. The Primitive constraint keeps
// reductions on native buffers — no boxing, and the runtime folds
// straight into recv's memory, so a steady-state activation allocates
// only schedule bookkeeping.
func ReduceInit[T Primitive](c CommInit, send, recv []T, op Op[T], root int) (*PersistentRequest[T], error) {
	p, err := c.ReduceInit(send, 0, recv, 0, len(send), TypeOf[T](), op.op, root)
	return persistent[T](p, err, nil, nil)
}

// AllreduceInit builds a persistent all-reduction
// (MPI_Allreduce_init): the canonical persistent overlap primitive —
// Init once, then per iteration Start, compute, Wait.
func AllreduceInit[T Primitive](c CommInit, send, recv []T, op Op[T]) (*PersistentRequest[T], error) {
	p, err := c.AllreduceInit(send, 0, recv, 0, len(send), TypeOf[T](), op.op)
	return persistent[T](p, err, nil, nil)
}
