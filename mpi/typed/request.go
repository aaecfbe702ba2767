package typed

import (
	"context"
	"errors"
	"sync"

	"gompi/mpi"
)

// completion is what every typed request completes through: a slot
// holding the classic request it completes and, for receives of
// Obj-routed element types, the unbox step that copies the boxed
// elements back into the caller's typed buffer. A one-shot request's
// slot is its own field; a persistent request's is the classic
// PersistentRequest's current activation, so the typed handle completes
// whichever activation was last started, through either surface. The
// unbox runs at most once per activation, and its error is reported by
// every completion call of that activation. Safe under concurrent
// Wait/Test, like the classic requests.
type completion struct {
	at    **mpi.Request
	unbox func() error // nil for sends, native receives and reductions
	mu    sync.Mutex
	last  *mpi.Request // the activation whose unbox has run
	uerr  error        // that activation's unbox error
}

// settle runs req's unbox once and folds its error into the operation's.
// The unbox runs even when the operation completed in error — a
// truncated receive has deposited whole elements that must still reach
// the typed buffer — and the operation's error takes precedence.
func (c *completion) settle(req *mpi.Request, err error) error {
	if c.unbox == nil || req == nil {
		return err
	}
	c.mu.Lock()
	if c.last != req {
		c.last = req
		c.uerr = c.unbox()
	}
	uerr := c.uerr
	c.mu.Unlock()
	if err == nil {
		err = uerr
	}
	return err
}

// Wait blocks until the operation completes (MPI_Wait).
func (c *completion) Wait() (*mpi.Status, error) {
	req := *c.at
	st, err := req.Wait()
	return st, c.settle(req, err)
}

// WaitCtx blocks until the operation completes or ctx is done; see
// mpi.Request.WaitCtx for the cancellation contract. A cancelled wait
// leaves the typed buffer untouched.
func (c *completion) WaitCtx(ctx context.Context) (*mpi.Status, error) {
	req := *c.at
	st, err := req.WaitCtx(ctx)
	if cerr := ctx.Err(); cerr != nil && errors.Is(err, cerr) {
		return st, err
	}
	return st, c.settle(req, err)
}

// Test polls the operation for completion (MPI_Test).
func (c *completion) Test() (*mpi.Status, bool, error) {
	req := *c.at
	st, done, err := req.Test()
	if !done {
		return st, false, err
	}
	return st, true, c.settle(req, err)
}

// Request is a typed handle on a pending non-blocking operation —
// point-to-point (Isend/Irecv) or collective (Ibcast/Iallreduce/…). Its
// Wait, WaitCtx and Test return the classic request's status, which for
// a collective is the empty status. WaitCtx is how a typed operation is
// cancelled: Irecv + WaitCtx is a receive with a deadline.
type Request[T any] struct {
	completion
	req *mpi.Request
}

// started is the tail of every nonblocking typed call: wrap the classic
// request, or pass the call's error on.
func started[T any](req *mpi.Request, err error, unbox func() error) (*Request[T], error) {
	if err != nil {
		return nil, err
	}
	r := &Request[T]{completion: completion{unbox: unbox}, req: req}
	r.at = &r.req
	return r, nil
}

// Raw exposes the underlying classic request, point-to-point or
// collective, for mixing typed requests into mpi.WaitAll / mpi.WaitAny
// sets. For Obj-routed receives the typed buffer is only filled by
// Wait/WaitCtx/Test on this handle, not by completing the raw request
// directly.
func (r *Request[T]) Raw() *mpi.Request { return r.req }

// Cancel attempts to cancel a pending point-to-point operation
// (MPI_Cancel). Collectives have no standalone cancel: cancellation is
// driven through WaitCtx, so Cancel is a no-op for them.
func (r *Request[T]) Cancel() error { return r.req.Cancel() }
