package mpi

import (
	"context"
	"errors"
	"sync"

	"gompi/internal/coll"
	"gompi/internal/core"
	"gompi/internal/transport"
)

// ErrCollectiveCancelled reports a collective whose schedule was torn
// down by a WaitCtx cancellation: a later Wait/Test on the same request
// returns it (it is control flow, not an MPI error, and never routes
// through the communicator's error handler).
var ErrCollectiveCancelled = coll.ErrCancelled

// CollRequest is a handle on a pending nonblocking collective operation
// (MPI_Ibarrier, MPI_Ibcast, … — the MPI-3 nonblocking collectives).
// Completion side effects — unpacking wire payloads into the caller's
// receive buffers — run exactly once, inside the first Wait/WaitCtx/Test
// that observes completion: MPI permits touching a collective's buffers
// only after the operation completes, and that is when the binding
// fills them.
type CollRequest struct {
	comm *Comm
	creq *coll.Request
	fin  func(res any) error // deferred completion: deposit into user buffers

	// fileStatus carries the transfer status of a collective file read
	// (set by the completion deposit; see File.IreadAtAll).
	fileStatus *Status

	once sync.Once
	err  error
}

func newCollRequest(c *Comm, creq *coll.Request, fin func(res any) error) *CollRequest {
	return &CollRequest{comm: c, creq: creq, fin: fin}
}

// settle runs the completion side effects exactly once and routes any
// error through the communicator's error handler.
func (r *CollRequest) settle(res any, schedErr error) error {
	r.once.Do(func() {
		var err error
		switch {
		case errors.Is(schedErr, coll.ErrCancelled):
			// Reaping a request whose WaitCtx already cancelled it:
			// control flow, not an MPI error — bypass the handler.
			r.err = ErrCollectiveCancelled
			return
		case schedErr != nil:
			err = mapSchedErr(schedErr)
		case r.fin != nil:
			err = r.fin(res)
		}
		r.err = r.comm.raise(err)
	})
	return r.err
}

// mapSchedErr classifies a failed collective schedule: fault-tolerance
// outcomes first (a member died or revoked mid-collective), then
// mapPioErr classifies file-schedule failures (ErrFile, ErrArg,
// ErrAccess, ErrIO) and wraps everything else as ErrIntern.
func mapSchedErr(err error) error {
	var lost *transport.PeerLostError
	if errors.As(err, &lost) || errors.Is(err, core.ErrCommRevoked) {
		return mapEngineErr(err)
	}
	return mapPioErr(err)
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// stat is the status a completed collective reports: collective file
// reads carry their transfer status, every other collective completes
// with the empty status (collectives have no source/tag to report).
func (r *CollRequest) stat() *Status {
	if r.fileStatus != nil {
		return r.fileStatus
	}
	return nullStatus()
}

// Wait blocks until the collective completes on this member (MPI_Wait)
// and fills the receive buffers. The returned status is empty except
// for collective file reads, which report their transfer status.
func (r *CollRequest) Wait() (*Status, error) {
	res, err := r.creq.Wait()
	serr := r.settle(res, err)
	return r.stat(), serr
}

// WaitCtx blocks until the collective completes or ctx is done. When
// ctx fires first, the underlying schedule is cancelled at its next
// internal send/receive boundary — so a collective stalled on an absent
// peer unblocks promptly — and ctx's error is returned. Context errors
// bypass the communicator's error handler: a cancelled wait is control
// flow, not an MPI error, and the receive buffers are left untouched.
//
// Cancellation abandons this member's participation in that collective
// instance only; per-instance tags keep later collectives on the same
// communicator from ever matching its traffic. The MPI ordering rule
// still applies: the communicator stays usable provided every member
// eventually makes the same sequence of collective calls, cancelled or
// not — with one caveat: a payload above the eager limit still owed to
// the cancelled member stalls the late sender's rendezvous, so ranks
// mixing cancellation into a communicator should use WaitCtx on every
// member (see coll.Request.WaitCtx).
func (r *CollRequest) WaitCtx(ctx context.Context) (*Status, error) {
	res, err := r.creq.WaitCtx(ctx)
	if isCtxErr(err) {
		return nullStatus(), err
	}
	serr := r.settle(res, err)
	return r.stat(), serr
}

// Test reports whether the collective has completed (MPI_Test), filling
// the receive buffers on the observation of completion.
func (r *CollRequest) Test() (*Status, bool, error) {
	res, done, err := r.creq.Test()
	if !done {
		return nil, false, nil
	}
	serr := r.settle(res, err)
	return r.stat(), true, serr
}

// Free releases the handle (MPI_Request_free): the collective, if still
// pending, is allowed to complete in the background; its result is
// discarded and the receive buffers are never filled.
func (r *CollRequest) Free() error { return nil }

// FileStatus returns the transfer status of a completed collective
// file read (File.IreadAtAll/IreadAll): GetCount reports the elements
// the file actually held, so short reads at end-of-file are detectable
// on the nonblocking path too. It is nil before completion and for
// every other kind of collective.
func (r *CollRequest) FileStatus() *Status { return r.fileStatus }

// FileCollRequest is the request of a nonblocking collective file
// operation (File.IwriteAtAll, File.IreadAtAll and friends). It is a
// CollRequest whose Wait/WaitCtx/Test report the transfer status of the
// completed file operation — for reads, GetCount on the returned status
// gives the elements the file actually held, so short reads at
// end-of-file are detectable without a separate FileStatus call.
type FileCollRequest struct {
	*CollRequest
}
