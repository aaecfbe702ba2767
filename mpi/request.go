package mpi

import (
	"context"
	"errors"
	"sync"

	"gompi/internal/coll"
	"gompi/internal/core"
	"gompi/internal/dtype"
	"gompi/internal/transport"
)

// Request is a handle on a pending non-blocking operation. Following the
// paper (§2.1), Request — like Comm — keeps an explicit Free; all other
// classes leave resource release to the garbage collector.
type Request struct {
	env  *Env
	creq *core.Request // nil once freed, or for pre-completed requests

	// Receive completion parameters.
	isRecv bool
	into   bool // receive-into: payload already in buf, no unpack
	buf    any
	offset int
	count  int
	dt     *Datatype

	pre *Status // pre-completed (ProcNull ops, buffered sends)

	once sync.Once
	st   *Status
	err  error
}

func preCompleted(e *Env, st *Status) *Request {
	return &Request{env: e, pre: st}
}

// recvStatus builds the user-visible status of a completed core
// receive: the shared completion trichotomy of the blocking and
// non-blocking paths. For receive-into completions the elements are
// derived from the deposited byte count (the engine already placed the
// bytes); otherwise the wire payload is unpacked into the buffer
// section here.
func recvStatus(cst *core.Status, into bool, payload []byte, buf any, offset, count int, d *Datatype) (*Status, error) {
	st := &Status{Source: cst.SourceGroup, Tag: cst.Tag, bytes: cst.Bytes, elements: -1}
	var err error
	switch {
	case cst.Cancelled:
		st.cancelled = true
		st.Source = ProcNull
		st.Tag = AnyTag
	case into:
		// The engine already placed the bytes. Bytes carries the full
		// incoming message size; the deposited element count is capped
		// by the posted section. A payload that is not a whole number
		// of elements is the wire-format error unpack reports below,
		// and like there nothing was deposited.
		es := d.t.Class().WireSize()
		if cst.Bytes%es != 0 {
			st.elements = 0
			err = errf(ErrIntern, "%v: %d bytes not a multiple of element size %d", dtype.ErrFormat, cst.Bytes, es)
			st.Error = ClassOf(err)
		} else {
			st.elements = min(cst.Bytes/es, count*d.t.Size())
		}
		if err == nil && cst.Err != nil {
			err = mapDataErr(cst.Err)
			st.Error = ClassOf(err)
		}
	default:
		n, uerr := dtype.Unpack(payload, buf, offset, count, d.t)
		st.elements = n
		if uerr != nil {
			err = mapDataErr(uerr)
			st.Error = ClassOf(err)
		}
		// A completion-time error (peer lost mid-operation) arrives
		// with an empty payload — the unpack above deposited nothing —
		// so surface the loss as the operation's error.
		if err == nil && cst.Err != nil {
			err = mapDataErr(cst.Err)
			st.Error = ClassOf(err)
		}
	}
	return st, err
}

// finish computes the final status exactly once: for receives it unpacks
// the wire payload into the user buffer — MPI permits touching the
// buffer only after completion, so unpacking here preserves semantics.
// Receive-into requests skip the unpack (the engine already deposited
// the bytes in place). Either way the pooled frame backing the payload
// is released once the bytes are home.
func (r *Request) finish() {
	r.once.Do(func() {
		if r.pre != nil {
			r.st = r.pre
			return
		}
		cst := &r.creq.Stat
		if !r.isRecv {
			st := &Status{Source: cst.SourceGroup, Tag: cst.Tag, bytes: cst.Bytes, elements: -1}
			if cst.Cancelled {
				st.cancelled = true
				st.Source = ProcNull
				st.Tag = AnyTag
			}
			if cst.Err != nil {
				r.err = mapDataErr(cst.Err)
				st.Error = ClassOf(r.err)
			}
			r.st = st
			return
		}
		r.st, r.err = recvStatus(cst, r.into, r.creq.Payload, r.buf, r.offset, r.count, r.dt)
		r.creq.ReleaseFrame()
	})
}

// active reports whether the request has an operation attached.
func (r *Request) active() bool {
	return r != nil && (r.creq != nil || r.pre != nil)
}

// Wait blocks until the operation completes (MPI_Wait). Waiting on an
// inactive request returns the empty status immediately.
func (r *Request) Wait() (*Status, error) {
	if !r.active() {
		return nullStatus(), nil
	}
	if r.creq != nil {
		r.creq.Wait()
	}
	r.finish()
	return r.st, r.err
}

// WaitCtx blocks until the operation completes or ctx is done. When ctx
// fires while the operation is still cancellable (an unmatched receive,
// or a send whose rendezvous has not been granted), the operation is
// cancelled, the returned status reports TestCancelled() == true, and
// ctx's error is returned so callers can errors.Is it against
// context.Canceled / context.DeadlineExceeded. Once the operation has
// matched, it is past the point of no return and WaitCtx behaves like
// Wait. Context errors bypass the communicator's error handler: a
// cancelled wait is control flow, not an MPI error.
func (r *Request) WaitCtx(ctx context.Context) (*Status, error) {
	if !r.active() {
		return nullStatus(), nil
	}
	if r.creq != nil {
		if _, ctxErr := r.creq.WaitCtx(ctx); ctxErr != nil {
			r.finish()
			return r.st, ctxErr
		}
	}
	r.finish()
	return r.st, r.err
}

// Test returns (status, true) if the operation has completed
// (MPI_Test). An inactive request tests as complete with empty status.
func (r *Request) Test() (*Status, bool, error) {
	if !r.active() {
		return nullStatus(), true, nil
	}
	if r.creq != nil {
		if _, done := r.creq.Test(); !done {
			return nil, false, nil
		}
	}
	r.finish()
	return r.st, true, r.err
}

// Cancel attempts to cancel the pending operation (MPI_Cancel). Receives
// cancel if unmatched; sends cancel if the payload has not been claimed.
func (r *Request) Cancel() error {
	if !r.active() || r.creq == nil {
		return nil
	}
	r.env.proc.Cancel(r.creq)
	return nil
}

// Free releases the request handle (MPI_Request_free). The operation, if
// still pending, is allowed to complete in the background.
func (r *Request) Free() error {
	if r == nil {
		return errf(ErrRequest, "Free on nil request")
	}
	r.creq = nil
	r.pre = nil
	return nil
}

// IsNull reports whether the handle carries no operation (the analogue
// of comparing against MPI_REQUEST_NULL).
func (r *Request) IsNull() bool { return !r.active() }

// WaitAny blocks until one of the requests completes and returns its
// status, with Status.Index identifying which (MPI_Waitany; paper §2.1).
// If every request is inactive it returns (Undefined, empty status).
func WaitAny(reqs []*Request) (*Status, error) {
	// Fast path: pre-completed or already-finished requests.
	for i, r := range reqs {
		if r.active() && r.creq == nil {
			r.finish()
			st := *r.st
			st.Index = i
			return &st, r.err
		}
	}
	var env *Env
	creqs := make([]*core.Request, len(reqs))
	for i, r := range reqs {
		if r.active() {
			creqs[i] = r.creq
			env = r.env
		}
	}
	if env == nil {
		st := nullStatus()
		st.Index = Undefined
		return st, nil
	}
	idx := env.proc.WaitAny(creqs)
	if idx < 0 {
		st := nullStatus()
		st.Index = Undefined
		return st, nil
	}
	r := reqs[idx]
	r.creq.Wait()
	r.finish()
	st := *r.st
	st.Index = idx
	return &st, r.err
}

// TestAny polls the requests for a completion (MPI_Testany).
func TestAny(reqs []*Request) (*Status, bool, error) {
	anyActive := false
	for i, r := range reqs {
		if !r.active() {
			continue
		}
		anyActive = true
		st, done, err := r.Test()
		if done {
			cp := *st
			cp.Index = i
			return &cp, true, err
		}
	}
	if !anyActive {
		st := nullStatus()
		st.Index = Undefined
		return st, true, nil
	}
	return nil, false, nil
}

// WaitAll waits for every request and returns their statuses in order
// (MPI_Waitall). The first operation error is returned (wrapped as
// ErrInStatus when several requests are involved, with per-request
// classes in the statuses). For sets mixing request kinds (collectives,
// persistent operations) use WaitAllAny; WaitAll remains the concrete
// path for homogeneous point-to-point sets.
func WaitAll(reqs []*Request) ([]*Status, error) {
	sts := make([]*Status, len(reqs))
	var firstErr error
	for i, r := range reqs {
		st, err := r.Wait()
		st.Index = i
		sts[i] = st
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return sts, firstErr
}

// TestAll reports completion of every request (MPI_Testall); statuses are
// only returned when all have completed.
func TestAll(reqs []*Request) ([]*Status, bool, error) {
	for _, r := range reqs {
		if !r.active() {
			continue
		}
		if r.creq != nil {
			if _, done := r.creq.Test(); !done {
				return nil, false, nil
			}
		}
	}
	sts, err := WaitAll(reqs)
	return sts, true, err
}

// WaitSome blocks for at least one completion and returns the statuses of
// every completed request, Index fields identifying them (MPI_Waitsome).
func WaitSome(reqs []*Request) ([]*Status, error) {
	first, err := WaitAny(reqs)
	if err != nil {
		return nil, err
	}
	if first.Index == Undefined {
		return nil, nil
	}
	out := []*Status{first}
	for i, r := range reqs {
		if i == first.Index || !r.active() {
			continue
		}
		st, done, err := r.Test()
		if err != nil {
			return out, err
		}
		if done {
			cp := *st
			cp.Index = i
			out = append(out, &cp)
		}
	}
	return out, nil
}

// TestSome returns the statuses of all currently completed requests
// (MPI_Testsome); the list is empty when none have completed.
func TestSome(reqs []*Request) ([]*Status, error) {
	var out []*Status
	for i, r := range reqs {
		if !r.active() {
			continue
		}
		st, done, err := r.Test()
		if err != nil {
			return out, err
		}
		if done {
			cp := *st
			cp.Index = i
			out = append(out, &cp)
		}
	}
	return out, nil
}

// PersistentRequest is a persistent operation (MPI_Send_init,
// MPI_Recv_init and — MPI-4 — the persistent collectives,
// MPI_Bcast_init and friends): a frozen, validated argument list that
// Start activates repeatedly. Point-to-point persistents freeze a send
// or receive envelope; collective persistents hold a cached re-runnable
// schedule with pre-minted tags in the runtime, so an activation pays
// no validation, planning or tag-allocation cost. Both kinds share this
// one type, so StartAll and the AnyRequest helpers work over mixed
// sets.
//
// The buffer contract is MPI's: the operation re-reads (and for
// receives, re-fills) the buffers bound at *Init time on every
// activation. A previous activation must have completed — locally, via
// Wait/Test on this request — before the next Start.
type PersistentRequest struct {
	comm *Comm

	// Point-to-point arm: the frozen envelope.
	isRecv bool
	mode   core.Mode
	buffed bool // buffered mode
	buf    any
	offset int
	count  int
	dt     *Datatype
	rank   int // dest or source
	tag    int

	// Collective arm: the cached schedule plus the per-activation
	// re-pack of the user buffers and the completion deposit.
	pcol    *coll.Persistent
	refresh func() error
	fin     func(res any) error

	// active is the current activation of either arm (a *Request or a
	// *CollRequest); nil — never a typed nil — before the first Start.
	active AnyRequest
}

// Start activates the persistent request (MPI_Start). The previous
// activation must have completed, and the communicator must not have
// been revoked — Start is a fresh operation, so unlike Wait on an
// in-flight request it refuses with ErrRevoked up front.
func (p *PersistentRequest) Start() error {
	if p.comm == nil {
		return errf(ErrRequest, "Start on a freed persistent request")
	}
	if p.comm.Revoked() {
		return p.comm.raise(errf(ErrRevoked, "Start on revoked communicator %q", p.comm.name))
	}
	if p.active != nil {
		if _, done, _ := p.active.Test(); !done {
			return errf(ErrRequest, "Start on a still-active persistent request")
		}
	}
	if p.pcol != nil {
		return p.startColl()
	}
	var req *Request
	var err error
	if p.isRecv {
		req, err = p.comm.Irecv(p.buf, p.offset, p.count, p.dt, p.rank, p.tag)
	} else if p.buffed {
		req, err = p.comm.Ibsend(p.buf, p.offset, p.count, p.dt, p.rank, p.tag)
	} else {
		req, err = p.comm.isendMode(p.buf, p.offset, p.count, p.dt, p.rank, p.tag, p.mode)
	}
	if err != nil {
		return err
	}
	p.active = req
	return nil
}

// startColl activates the collective arm: re-pack the user buffers into
// the schedule's bound inputs, then hand the cached schedule to the
// shared progress pool.
func (p *PersistentRequest) startColl() error {
	if p.refresh != nil {
		if err := p.refresh(); err != nil {
			return p.comm.raise(err)
		}
	}
	creq, err := p.pcol.Start()
	if err != nil {
		if errors.Is(err, coll.ErrActive) {
			return errf(ErrRequest, "Start on a still-active persistent request")
		}
		return p.comm.raise(mapEngineErr(err))
	}
	p.active = newCollRequest(p.comm, creq, p.fin)
	return nil
}

// Wait waits for the current activation (MPI_Wait on a started
// persistent request).
func (p *PersistentRequest) Wait() (*Status, error) {
	if p.active == nil {
		return nullStatus(), nil
	}
	return p.active.Wait()
}

// WaitCtx waits for the current activation under a context; see
// Request.WaitCtx and CollRequest.WaitCtx for the cancellation
// contracts of the two arms.
func (p *PersistentRequest) WaitCtx(ctx context.Context) (*Status, error) {
	if p.active == nil {
		return nullStatus(), nil
	}
	return p.active.WaitCtx(ctx)
}

// Test polls the current activation.
func (p *PersistentRequest) Test() (*Status, bool, error) {
	if p.active == nil {
		return nullStatus(), true, nil
	}
	return p.active.Test()
}

// Free releases the persistent request (MPI_Request_free). A collective
// persistent's cached schedule is retired; the current activation, if
// any, completes in the background.
func (p *PersistentRequest) Free() error {
	if p.pcol != nil {
		p.pcol.Free()
	}
	p.active = nil
	p.pcol = nil
	p.comm = nil
	return nil
}

// StartAll activates a list of persistent requests (MPI_Startall) —
// point-to-point, collective, or mixed.
func StartAll(ps []*PersistentRequest) error {
	for _, p := range ps {
		if err := p.Start(); err != nil {
			return err
		}
	}
	return nil
}

// mapEngineErr converts engine- and schedule-layer failures into MPI
// error classes: fault-tolerance outcomes (a dead peer, a revoked
// communicator) get their own classes so callers can branch into the
// ULFM recovery path; anything else on these paths is an internal
// error.
func mapEngineErr(err error) error {
	var lost *transport.PeerLostError
	switch {
	case err == nil:
		return nil
	case errors.As(err, &lost):
		return errf(ErrProcFailed, "%v", err)
	case errors.Is(err, core.ErrCommRevoked):
		return errf(ErrRevoked, "%v", err)
	default:
		return errf(ErrIntern, "%v", err)
	}
}

// mapDataErr converts datatype- and core-layer errors into MPI error
// classes.
func mapDataErr(err error) error {
	var lost *transport.PeerLostError
	switch {
	case err == nil:
		return nil
	case errors.As(err, &lost):
		return errf(ErrProcFailed, "%v", err)
	case errors.Is(err, core.ErrCommRevoked):
		return errf(ErrRevoked, "%v", err)
	case errors.Is(err, dtype.ErrTruncate), errors.Is(err, core.ErrTruncated):
		return errf(ErrTruncate, "%v", err)
	case errors.Is(err, dtype.ErrClassMismatch):
		return errf(ErrType, "%v", err)
	case errors.Is(err, dtype.ErrUncommitted):
		return errf(ErrType, "%v", err)
	case errors.Is(err, dtype.ErrBounds):
		return errf(ErrBuffer, "%v", err)
	case errors.Is(err, dtype.ErrNegative):
		return errf(ErrCount, "%v", err)
	case errors.Is(err, dtype.ErrFormat):
		return errf(ErrIntern, "%v", err)
	default:
		return errf(ErrOther, "%v", err)
	}
}
