package typed

import (
	"context"
	"errors"
	"sync"

	"gompi/mpi"
)

// completion is what every typed request completes through: the classic
// request it wraps and, for receives of Obj-routed element types, the
// unbox step that copies the boxed elements back into the caller's typed
// buffer. The unbox runs at most once per activation (a one-shot request
// has one; a persistent one re-arms at every Start), and its error is
// reported by every completion call of that activation. Safe under
// concurrent Wait/Test, like the classic requests.
type completion struct {
	req   mpi.AnyRequest
	unbox func() error // nil for sends, native receives and reductions
	mu    sync.Mutex
	armed bool  // this activation's unbox has not run yet
	uerr  error // this activation's unbox error
}

// arm opens an activation: its unbox is owed again.
func (c *completion) arm() {
	c.mu.Lock()
	c.armed, c.uerr = true, nil
	c.mu.Unlock()
}

// settle runs the activation's unbox once and folds its error into the
// operation's. The unbox runs even when the operation completed in
// error — a truncated receive has deposited whole elements that must
// still reach the typed buffer — and the operation's error takes
// precedence.
func (c *completion) settle(err error) error {
	if c.unbox == nil {
		return err
	}
	c.mu.Lock()
	if c.armed {
		c.armed = false
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
	st, err := c.req.Wait()
	return st, c.settle(err)
}

// WaitCtx blocks until the operation completes or ctx is done; see
// mpi.Request.WaitCtx and mpi.CollRequest.WaitCtx for the cancellation
// contracts. A cancelled wait leaves the typed buffer untouched.
func (c *completion) WaitCtx(ctx context.Context) (*mpi.Status, error) {
	st, err := c.req.WaitCtx(ctx)
	if cerr := ctx.Err(); cerr != nil && errors.Is(err, cerr) {
		return st, err
	}
	return st, c.settle(err)
}

// Test polls the operation for completion (MPI_Test).
func (c *completion) Test() (*mpi.Status, bool, error) {
	st, done, err := c.req.Test()
	if !done {
		return st, false, err
	}
	return st, true, c.settle(err)
}

// Request is a typed handle on a pending non-blocking operation —
// point-to-point (Isend/Irecv) or collective (Ibcast/Iallreduce/…). Its
// Wait, WaitCtx and Test return the classic request's status: for a
// collective that is the empty *Status of mpi.CollRequest — not nil, as
// typed collectives once returned.
type Request[T any] struct{ completion }

// started is the tail of every nonblocking typed call: wrap the classic
// request, or pass the call's error on.
func started[T any](req mpi.AnyRequest, err error, unbox func() error) (*Request[T], error) {
	if err != nil {
		return nil, err
	}
	return &Request[T]{completion{req: req, unbox: unbox, armed: true}}, nil
}

// Raw exposes the underlying classic point-to-point request, for mixing
// typed requests into mpi.WaitAll / mpi.WaitAny sets; it is nil for
// collective requests (see Coll). For Obj-routed receives the typed
// buffer is only filled by Wait/WaitCtx/Test on this handle, not by
// completing the raw request directly.
func (r *Request[T]) Raw() *mpi.Request {
	p, _ := r.req.(*mpi.Request)
	return p
}

// Coll exposes the underlying classic collective request; it is nil for
// point-to-point requests.
func (r *Request[T]) Coll() *mpi.CollRequest {
	cr, _ := r.req.(*mpi.CollRequest)
	return cr
}

// Cancel attempts to cancel a pending point-to-point operation
// (MPI_Cancel). Collectives have no standalone cancel: cancellation is
// driven through WaitCtx, so Cancel is a no-op for them.
func (r *Request[T]) Cancel() error {
	if p := r.Raw(); p != nil {
		return p.Cancel()
	}
	return nil
}
