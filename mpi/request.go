package mpi

import (
	"context"
	"errors"
	"sync"

	"gompi/internal/coll"
	"gompi/internal/core"
	"gompi/internal/dtype"
)

// ErrCollectiveCancelled reports a collective that a WaitCtx on this
// request cancelled: a later Wait/Test on the same request returns it
// (it is control flow, not an MPI error, and never routes through the
// communicator's error handler).
var ErrCollectiveCancelled = errors.New("mpi: collective cancelled")

// Request is a handle on a pending non-blocking operation — the paper's
// one request class (§2.1), and MPI-4's. It carries either a
// point-to-point operation or a collective schedule (IX on Intracomm,
// the I* collectives on File, a persistent collective's activation), so
// WaitAll, WaitAny, TestAll and friends take any mix of them.
// Completion side effects — unpacking a receive's payload, depositing a
// collective's result into the caller's buffers — run exactly once,
// inside the first Wait/WaitCtx/Test that observes completion: MPI
// permits touching the buffers only after the operation completes.
// Following the paper, Request — like Comm — keeps an explicit Free;
// all other classes leave resource release to the garbage collector.
type Request struct {
	comm *Comm
	creq *core.Request // point-to-point arm; nil once reaped (finish) or freed, or for pre-completed requests
	cr   *coll.Request // collective arm; nil once freed
	cp   *collPlan     // the collective's plan: its fin deposits into the caller's buffers

	sec section // a receive's section

	// pre is the status of a pre-completed request (ProcNull ops,
	// buffered sends) and of a reaped point-to-point one.
	pre *Status

	once sync.Once
	// Receive completion parameters, in once's padding.
	isRecv bool
	into   bool // receive-into: payload already in the section, no unpack
	st     *Status
	err    error
}

func preCompleted(st *Status) *Request {
	return &Request{pre: st}
}

// recvStatus fills st with the user-visible status of a completed core
// receive: the shared completion trichotomy of the blocking and
// non-blocking paths. For receive-into completions the elements are
// derived from the deposited byte count (the engine already placed the
// bytes); otherwise the wire payload is unpacked into the buffer
// section here.
func recvStatus(st *Status, cst *core.Status, into bool, payload []byte, s section) error {
	*st = Status{Source: cst.SourceGroup, Tag: cst.Tag, bytes: cst.Bytes, elements: -1}
	if cst.Cancelled {
		st.cancelled, st.Source, st.Tag = true, ProcNull, AnyTag
		return nil
	}
	var err error
	if into {
		// The engine already placed the bytes. Bytes carries the full
		// incoming message size; the deposited element count is capped
		// by the posted section. A payload that is not a whole number
		// of elements is the wire-format error unpack reports, and like
		// there nothing was deposited.
		es := s.d.t.Class().WireSize()
		st.elements = min(cst.Bytes/es, s.count*s.d.t.Size())
		if cst.Bytes%es != 0 {
			st.elements = 0
			err = errf(ErrIntern, "%v: %d bytes not a multiple of element size %d", dtype.ErrFormat, cst.Bytes, es)
		}
	} else {
		st.elements, err = s.unpack(payload)
	}
	// A completion-time error (peer lost mid-operation) arrives with
	// nothing deposited, so surface the loss as the operation's error.
	if err == nil {
		err = mapErr(cst.Err)
	}
	if err != nil {
		st.Error = ClassOf(err)
	}
	return err
}

// finish computes the final status exactly once: for receives it unpacks
// the wire payload into the user buffer — MPI permits touching the
// buffer only after completion, so unpacking here preserves semantics.
// Receive-into requests skip the unpack (the engine already deposited
// the bytes in place). A point-to-point arm then gives its core request
// back to the engine's pool, which releases the frame backing the
// payload too, and the request answers from its status from then on,
// like a pre-completed one. A collective settles instead.
func (r *Request) finish() {
	r.once.Do(func() {
		switch {
		case r.cr != nil:
			r.settle()
			return
		case r.pre != nil:
			r.st = r.pre
			return
		case !r.isRecv:
			cst := &r.creq.Stat
			st := &Status{Source: cst.SourceGroup, Tag: cst.Tag, bytes: cst.Bytes, elements: -1}
			if cst.Cancelled {
				st.cancelled = true
				st.Source = ProcNull
				st.Tag = AnyTag
			}
			if cst.Err != nil {
				r.err = mapErr(cst.Err)
				st.Error = ClassOf(r.err)
			}
			r.st = st
		default:
			r.st = new(Status)
			r.err = recvStatus(r.st, &r.creq.Stat, r.into, r.creq.Payload, r.sec)
		}
		r.creq.Recycle()
		r.creq, r.pre = nil, r.st
	})
}

// settle finishes a collective, waiting for its schedule if need be: a
// failure is classified and raised, and a completed schedule's result is
// deposited. Then the plan is done with the call (collPlan.done). The
// status is the plan's transfer status (a file collective's), else
// empty.
func (r *Request) settle() {
	res, err := r.cr.Wait()
	switch {
	case err != nil:
		r.err = r.comm.raise(r.comm.collErr(err))
	case r.cp.fin != nil:
		r.err = r.comm.raise(r.cp.fin(res))
	}
	if r.st = r.cp.st; r.st == nil || r.err != nil {
		r.st = nullStatus()
	}
	r.cp.done(err == nil)
	r.cp = nil
}

// active reports whether the request has an operation attached.
func (r *Request) active() bool {
	return r != nil && (r.creq != nil || r.cr != nil || r.pre != nil)
}

// done reports whether the operation has completed, without reaping it.
func (r *Request) done() bool {
	switch {
	case r.creq != nil:
		_, ok := r.creq.Test()
		return ok
	case r.cr != nil:
		_, ok, _ := r.cr.Test()
		return ok
	}
	return true
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

// WaitCtx blocks until the operation completes or ctx is done, and
// returns ctx's error when ctx wins. Context errors bypass the
// communicator's error handler: a cancelled wait is control flow, not
// an MPI error.
//
// A point-to-point operation is cancelled when ctx fires while it still
// can be (an unmatched receive, or a send whose rendezvous has not been
// granted), and the returned status reports TestCancelled() == true;
// once it has matched it is past the point of no return and WaitCtx
// behaves like Wait.
//
// A collective is cancelled as a whole: its instance ends on every
// member (coll.Request.WaitCtx), its receive buffers are left untouched,
// and a later Wait/Test on this request returns ErrCollectiveCancelled.
// The other members' calls still in the instance fail with ErrOther
// (an island Allreduce completes without this member, which left a
// copy), and the communicator carries the next collectives as before,
// provided every member makes the same sequence of collective calls,
// cancelled or not.
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
	if r.cr != nil {
		if _, err := r.cr.WaitCtx(ctx); err != nil && errors.Is(err, ctx.Err()) {
			r.cp.done(false)
			r.once.Do(func() { r.st, r.err = nullStatus(), ErrCollectiveCancelled })
			return nullStatus(), err
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
	if !r.done() {
		return nil, false, nil
	}
	r.finish()
	return r.st, true, r.err
}

// Cancel attempts to cancel the pending operation (MPI_Cancel). Receives
// cancel if unmatched; sends cancel if the payload has not been claimed.
// A collective has no standalone cancel — WaitCtx is how one is
// cancelled — so Cancel leaves it alone.
func (r *Request) Cancel() error {
	if !r.active() || r.creq == nil {
		return nil
	}
	r.comm.env.proc.Cancel(r.creq)
	return nil
}

// Free releases the request handle (MPI_Request_free). The operation, if
// still pending, is allowed to complete in the background; a
// collective's result is then discarded, its receive buffers are never
// filled, and its plan leaves the communicator's cache.
func (r *Request) Free() error {
	if r == nil {
		return errf(ErrRequest, "Free on nil request")
	}
	r.cp.done(false)
	r.cp = nil
	r.creq = nil
	r.cr = nil
	r.pre = nil
	return nil
}

// IsNull reports whether the handle carries no operation (the analogue
// of comparing against MPI_REQUEST_NULL).
func (r *Request) IsNull() bool { return !r.active() }

// indexed returns a copy of st whose Index names request i.
func indexed(st *Status, i int) *Status {
	cp := *st
	cp.Index = i
	return &cp
}

// WaitAny blocks until one of the requests completes and returns its
// status, with Status.Index identifying which (MPI_Waitany; paper §2.1).
// It is one wait on the rank's engine for "any of these has completed",
// whatever their kinds, driving the rank's progress while it waits like
// Wait does. If every request is inactive it returns (Undefined, empty
// status).
func WaitAny(reqs []*Request) (*Status, error) {
	var proc *core.Proc
	for i, r := range reqs {
		switch {
		case !r.active():
		case r.creq == nil && r.cr == nil: // pre-completed
			st, err := r.Wait()
			return indexed(st, i), err
		default:
			proc = r.comm.env.proc
		}
	}
	if proc == nil {
		st := nullStatus()
		st.Index = Undefined
		return st, nil
	}
	at := -1
	proc.Await(func() bool {
		for i, r := range reqs {
			if r.active() && r.done() {
				at = i
				return true
			}
		}
		return false
	})
	st, err := reqs[at].Wait()
	return indexed(st, at), err
}

// TestAny polls the requests for a completion (MPI_Testany).
func TestAny(reqs []*Request) (*Status, bool, error) {
	anyActive := false
	for i, r := range reqs {
		if !r.active() {
			continue
		}
		anyActive = true
		if st, done, err := r.Test(); done {
			return indexed(st, i), true, err
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
// (MPI_Waitall), each with its Index set. Waiting continues past a
// failure, so every request is reaped; the first operation error is
// returned.
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
		if r.active() && !r.done() {
			return nil, false, nil
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
			out = append(out, indexed(st, i))
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
			out = append(out, indexed(st, i))
		}
	}
	return out, nil
}

// PersistentRequest is a persistent operation (MPI_Send_init,
// MPI_Recv_init and — MPI-4 — the persistent collectives,
// MPI_Bcast_init and friends): a frozen, validated argument list that
// Start activates repeatedly. start makes one activation: a
// point-to-point persistent re-posts its frozen send or receive
// envelope (sendInit, RecvInit); a collective one starts its plan,
// taken out of the communicator's cache with tags of its own, so an
// activation pays no validation, planning or tag-allocation cost
// (persist).
//
// Like mpiJava's Prequest, it is a Request: the embedded *Request is
// the current activation (nil before the first Start, which Wait, Test
// and WaitCtx treat as an inactive request), so its Wait/WaitCtx/Test
// are the activation's, and p.Request joins any WaitAll/WaitAny set.
//
// The buffer contract is MPI's: the operation re-reads (and for
// receives, re-fills) the buffers bound at *Init time on every
// activation. A previous activation must have completed — locally, via
// Wait/Test on this request — before the next Start.
type PersistentRequest struct {
	*Request

	comm  *Comm
	start func() (*Request, error)
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
	if _, done, _ := p.Request.Test(); !done {
		return errf(ErrRequest, "Start on a still-active persistent request")
	}
	req, err := p.start()
	if err != nil {
		return err
	}
	p.Request = req
	return nil
}

// Free releases the persistent request (MPI_Request_free); the current
// activation, if any, completes in the background.
func (p *PersistentRequest) Free() error {
	p.Request, p.comm, p.start = nil, nil, nil
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
