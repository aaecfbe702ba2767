package core

import (
	"context"
	"sync"
	"sync/atomic"

	"gompi/internal/obs"
	"gompi/internal/transport"
)

// Mode selects the MPI send mode semantics for a core send operation.
type Mode uint8

// Send modes. Buffered sends are realized in the binding layer (which
// owns the attached buffer) on top of ModeStandard.
const (
	// ModeStandard completes when the message payload is safely
	// buffered or delivered (eager), or once the rendezvous data has
	// been shipped (large messages).
	ModeStandard Mode = iota
	// ModeSync completes only after the receiver has matched the
	// message (MPI_Ssend).
	ModeSync
	// ModeReady asserts a matching receive is already posted
	// (MPI_Rsend). The engine transmits it as a standard send; posting
	// without a matching receive is erroneous per the MPI standard.
	ModeReady
)

// Status carries the completion information of a core operation.
type Status struct {
	// SourceGroup is the sender's rank within the communicator group
	// the message was sent on.
	SourceGroup int
	// Tag is the message tag.
	Tag int
	// Bytes is the incoming payload length in wire bytes — for a
	// truncated receive-into operation still the full message size,
	// like an ordinary receive; the deposited prefix is
	// min(Bytes, len(buf)).
	Bytes int
	// Cancelled reports whether the operation completed by
	// cancellation.
	Cancelled bool
	// Err is a completion-time error: ErrTruncated when a receive-into
	// buffer was smaller than the incoming message.
	Err error
}

type reqKind uint8

const (
	reqSend reqKind = iota
	reqRecv
)

// Request is a pending point-to-point operation. Completion is published
// under the engine lock; Stat and Payload are written before completion
// is observable and may be read freely after Wait/Test observe it.
type Request struct {
	proc *Proc
	kind reqKind

	// completed is set, under proc.mu, once Stat and Payload are final.
	// Test reads it without the lock, so an Await predicate, which runs
	// under it, may call Test.
	completed atomic.Bool

	// onDone, when set, runs exactly once at completion — synchronously,
	// under the engine lock. Guarded by proc.mu. See OnDone.
	onDone func()

	// Completion results.
	Stat Status
	// Payload is the receive payload (wire bytes), nil for sends. It
	// may alias pooled frame storage owned by this request; call
	// ReleaseFrame once no reference into it remains.
	Payload []byte

	// frame is the transport frame whose storage Payload aliases; the
	// request owns it until ReleaseFrame.
	frame transport.Frame

	// Receive: the matching parameters. Send: the context and tag sent
	// on, which is what lets one sweep read either kind; a send keeps
	// its offer state (offerNone...) in src, atomically.
	ctx, src, tag int32

	// into, when non-nil, is the caller-owned buffer a receive-into
	// operation deposits the payload in directly; intoES is the wire
	// element size the deposit is floored to (whole elements only).
	into   []byte
	intoES int

	// Protocol state. id keys the request in Proc.pending: a send's from
	// Isend on, a receive's from its grant.
	id       uint64
	data     []byte // retained payload for rendezvous
	size     int    // payload length at Isend time
	recycle  bool   // payload is exclusively owned; pool it downstream
	lent     bool   // payload is the caller's memory, on loan (IsendLent)
	borrow   bool   // receive side, parked in this padding: take a lent payload by reference (IrecvBorrow)
	dstWorld int32  // send: the destination; granted receive: the rank the CTS went to
}

// An offer is a lent send whose RTS carries the loan itself, to a peer
// reached by reference (see isend). Its state moves by compare-and-swap,
// so the receiver's claim and the sender's withdrawal race for the one
// way out of offerOut, and exactly one of them wins.
const (
	offerNone      int32 = iota // not an offer
	offerOut                    // on its way, or queued unexpected
	offerTaken                  // claimed by its receiver; only the loan's return completes it
	offerWithdrawn              // given up by its sender first; the loan is still out
	offerBack                   // the loan came home untaken
)

// offer is the address of a send's offer state.
func (r *Request) offer() *int32 { return &r.src }

// lentSend is a lent rendezvous send seen as the transport.Loan riding
// its DATA frame, or its RTS if it is an offer: the loan's return is the
// request's completion. A pointer conversion rather than a closure, so
// lending allocates nothing.
type lentSend Request

// take is the receiver's claim on an offer, made before it reads a
// byte; false means the sender withdrew it first.
func (l *lentSend) take() bool {
	return atomic.CompareAndSwapInt32((*Request)(l).offer(), offerOut, offerTaken)
}

func (l *lentSend) Returned() {
	r := (*Request)(l)
	p := r.proc
	p.mu.Lock()
	defer p.mu.Unlock()
	if s := atomic.LoadInt32(r.offer()); s != offerNone {
		p.rec.End(obs.EvSendRndv, uint32(r.id), 0)
		if s != offerTaken {
			// Nobody read it. A withdrawn send is complete already; one
			// dropped untaken (its receiver closed, or knew this rank
			// lost) is an RTS nobody answered, and stays pending.
			atomic.StoreInt32(r.offer(), offerBack)
			return
		}
		delete(p.pending, r.id)
	}
	p.completeLocked(r, nil, Status{Bytes: r.size})
}

// reqPool recycles Request allocations for the zero-allocation hot path;
// requests only return here through an explicit Recycle call.
var reqPool = sync.Pool{New: func() any { return new(Request) }}

func newRequest(p *Proc, k reqKind) *Request {
	r := reqPool.Get().(*Request)
	*r = Request{proc: p, kind: k}
	return r
}

// Recycle returns a completed request to the allocation pool. The caller
// must hold the only live reference and must not touch r (including its
// Payload) afterwards; any frame storage the request still owns is
// released first. Recycling an incomplete request is a no-op, and so is
// recycling a withdrawn offer whose loan is still out: its return will
// touch r, which is left to the garbage collector. It takes no lock:
// the engine writes nothing to r once completed is stored
// (completeLocked), nor once a loan's return has stored offerBack.
func (r *Request) Recycle() {
	if !r.completed.Load() || r.kind == reqSend && atomic.LoadInt32(r.offer()) == offerWithdrawn {
		return
	}
	r.frame.Release()
	*r = Request{}
	reqPool.Put(r)
}

// ReleaseFrame returns the pooled frame storage backing Payload (if any)
// to the frame pool. Payload must not be read afterwards. It is
// idempotent.
func (r *Request) ReleaseFrame() {
	r.frame.Release()
	r.Payload = nil
}

// TakePayload transfers ownership of the receive payload — and the
// frame storage backing it — out of the request: a later ReleaseFrame
// or Recycle no longer touches it, so the slice stays valid for as long
// as the caller needs (at the price of that storage not returning to
// the frame pool). Frame storage that does not back the payload (a
// separately delivered header) is released to the pool immediately; an
// empty payload is backed by nothing, so its whole frame is, and the
// caller gets nil.
func (r *Request) TakePayload() []byte {
	b := r.Payload
	if len(b) == 0 {
		r.ReleaseFrame()
		return nil
	}
	r.frame.DetachPayload()
	r.Payload = nil
	return b
}

// Wait blocks until the request completes and returns its status. A
// caller that has to park drives its rank's progress itself while no
// other caller does: it parks on the mailbox's doorbell, so the frame
// that completes the request wakes it directly, with no hand-off through
// the progress goroutine (Proc.awaitLocked). Other waiters park on the
// engine's shared completion broadcast. Both keep the steady-state hot
// path allocation-free.
func (r *Request) Wait() *Status {
	if r.completed.Load() {
		return &r.Stat
	}
	p := r.proc
	p.mu.Lock()
	p.awaitLocked(r, r.completed.Load)
	p.mu.Unlock()
	return &r.Stat
}

// WaitCtx is Wait, except that when ctx is done first the engine attempts
// to cancel the operation: if the cancellation takes (the receive is
// still unmatched, or the send's rendezvous has not been granted) the
// request completes with Stat.Cancelled set and ctx's error is returned.
// If the operation has already matched, cancellation is impossible —
// WaitCtx then waits for the imminent ordinary completion and returns
// nil, like Wait.
func (r *Request) WaitCtx(ctx context.Context) (*Status, error) {
	var took bool
	fired := make(chan struct{})
	stop := context.AfterFunc(ctx, func() {
		took = r.proc.Cancel(r)
		close(fired)
	})
	st := r.Wait()
	if !stop() {
		<-fired
	}
	if took {
		return st, ctx.Err()
	}
	return st, nil
}

// Test reports whether the request has completed, returning the status
// if so.
func (r *Request) Test() (*Status, bool) {
	if !r.completed.Load() {
		return nil, false
	}
	return &r.Stat, true
}

// OnDone arranges for fn to run exactly once when the request completes.
// If the request has already completed, fn runs immediately on the
// calling goroutine; otherwise it runs at completion time, synchronously
// under the engine lock. fn must therefore be brief and must not call
// back into the engine (no Wait, Cancel, Recycle, Isend, ...) — it is
// meant to flip a flag, decrement a counter, or hand the request off to
// a scheduler queue. Nor may fn touch r: it runs after r is visibly
// complete, when its owner may already have recycled it. At most one
// callback may be registered per operation; registering a second before
// the first has fired replaces it.
func (r *Request) OnDone(fn func()) {
	p := r.proc
	p.mu.Lock()
	if r.completed.Load() {
		p.mu.Unlock()
		fn()
		return
	}
	r.onDone = fn
	p.mu.Unlock()
}

// completeLocked finalizes a request. proc.mu must be held. A caller
// parked on the mailbox's bell waiting for r, or for whatever an Await
// predicate reads, is rung: r completed outside its progress body (a
// loan's return, a landing, a sweep, a cancellation). Storing completed
// is its last access to r: from then on the owner may recycle r
// without the lock (Recycle), so whatever else reads r is read first.
func (p *Proc) completeLocked(r *Request, payload []byte, st Status) {
	if r.completed.Load() {
		return
	}
	r.Payload = payload
	r.Stat = st
	fn := r.onDone
	r.onDone = nil
	ring := p.pollParked && (r == p.pollFor || p.pollFor == nil)
	r.completed.Store(true)
	if fn != nil {
		fn()
	}
	if ring {
		p.pollBell.Ring()
	}
	p.cond.Broadcast()
}

// complete finalizes a request, taking the engine lock.
func (p *Proc) complete(r *Request, payload []byte, st Status) {
	p.mu.Lock()
	p.completeLocked(r, payload, st)
	p.mu.Unlock()
}
