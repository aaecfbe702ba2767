// Package transport is the device layer of the message-passing runtime —
// the analogue of MPICH's abstract device interface / the p4 layer under
// WMPI in the paper. A Device moves opaque, framed byte messages between
// the processes of a job with reliable, per-(sender,receiver) FIFO
// ordering.
//
// One endpoint type carries every job: a Mux owns the one mailbox of a
// rank, and its route table says how each world rank is reached —
//
//   - by reference ("chan"): the peer's mailbox lives in this address
//     space; the paper's Shared Memory (SM) mode with every rank in one
//     process, and any rank's route to itself.
//   - by connection ("tcp", "dyn"): a socket carrying length-prefixed
//     frames, read straight into the mailbox; the paper's Distributed
//     Memory (DM) mode. A mesh connection made at launch and a link
//     admitted later (Spawn, Connect, Accept) are the same thing.
//   - by member Device: another medium's endpoint, pumped into the
//     mailbox — shmipc.Device ("shm", a cross-process shared-memory
//     segment, whole-world or the island of a hybrid job) or a
//     decorated device.
//
// A decorator embeds a Device and overrides only what it changes, and
// is read through a mux as a member device: Faulty drops frames or kills
// the endpoint on a schedule, and a benchmark harness's link shaper or a
// run's own wrapper (mpi.RunOptions.WrapDevice) decorate the same way.
// Package launch turns the fabric mpirun provisioned into the endpoint
// of a named medium.
package transport

import (
	"errors"
	"fmt"
)

// ErrClosed is returned by device operations after Close.
var ErrClosed = errors.New("transport: device closed")

// PeerLostError reports that a specific peer endpoint died without a
// clean shutdown: its connection reset mid-stream, or its process
// disappeared while frames were outstanding. Recv returns it (once per
// lost peer) without closing the device, so the progress engine can
// fail the operations pending on that peer and keep serving the rest —
// the error-class-instead-of-hang half of fault tolerance. A send whose
// connection to the peer fails returns it too, which may be before Recv
// has had the report.
type PeerLostError struct {
	// Peer is the lost endpoint's world rank.
	Peer int
	// Err is the underlying transport failure, if any.
	Err error
}

func (e *PeerLostError) Error() string {
	if e.Err == nil {
		return fmt.Sprintf("transport: peer rank %d lost", e.Peer)
	}
	return fmt.Sprintf("transport: peer rank %d lost: %v", e.Peer, e.Err)
}

func (e *PeerLostError) Unwrap() error { return e.Err }

// Frame is one received message. Data holds the wire header and, when
// Payload is nil, the inline payload too; a non-nil Payload is the
// message body delivered separately (the scatter-gather path — by
// reference over shm, so the receiver reads the sender's buffer with no
// intermediate copy). The receiver owns the frame and must call Release
// exactly once when every reference into Data/Payload is dead; Release
// is idempotent on the same Frame value.
//
// What Release does with the storage is its disposition, fixed by the
// send that produced the frame:
//
//   - pooled: the sender vouched for exclusive ownership (Sendv with
//     recycle, or a buffer the device staged itself); Release returns
//     it to the frame pool.
//   - shared: the sender keeps, or fans out, the buffer (Sendv without
//     recycle); Release leaves it to the garbage collector, and the
//     receiver may keep its alias for as long as it likes.
//   - lent: the payload is a window of the sending caller's own memory
//     (SendvLent); Release hands it back through the Loan, which is
//     what lets the sender's request complete. A receiver must copy
//     what it wants to keep — a lent payload cannot be detached — and
//     must not Release under a lock the lender's completion may need.
type Frame struct {
	Data    []byte
	Payload []byte

	pooledData    bool
	pooledPayload bool
	loan          Loan
}

// Release disposes of the frame's storage — pooled buffers return to
// the frame pool, a lent payload returns to its lender — and clears the
// frame. Calling Release again on the same Frame value is a no-op;
// releasing two copies of one Frame is a caller bug, as it would
// double-free the storage into the pool (or return a loan twice).
func (f *Frame) Release() {
	if f.pooledData {
		PutBuf(f.Data)
	}
	if f.pooledPayload {
		PutBuf(f.Payload)
	}
	if f.loan != nil {
		f.loan.Returned()
	}
	*f = Frame{}
}

// PayloadPooled reports whether Release will return the payload to the
// frame pool (diagnostics and tests).
func (f *Frame) PayloadPooled() bool { return f.pooledPayload }

// Lent reports whether the payload is on loan from the sending caller
// (see the dispositions on Frame).
func (f *Frame) Lent() bool { return f.loan != nil }

// Loan returns the loan a lent payload rides on, nil for any other: the
// lender's claim, for a consumer that knows the lender's type.
func (f *Frame) Loan() Loan { return f.loan }

// ReleaseHeader disposes of Data alone, for a consumer done with a
// scatter-gather frame's header but not with its payload: a pooled
// header goes back to the pool, and Payload keeps its disposition — a
// loan included — until Release.
func (f *Frame) ReleaseHeader() {
	if f.pooledData {
		PutBuf(f.Data)
	}
	f.Data, f.pooledData = nil, false
}

// PooledFrame assembles a received frame for a device implementation
// living outside this package (e.g. transport/shmipc): data and payload
// carry the pool-ownership marks Release honours.
func PooledFrame(data, payload []byte, pooledData, pooledPayload bool) Frame {
	return Frame{Data: data, Payload: payload, pooledData: pooledData, pooledPayload: pooledPayload}
}

// DetachPayload transfers ownership of the payload out of the frame and
// releases whatever storage does not back it: for a scatter-gather
// frame the header buffer returns to the pool immediately, while an
// inline payload shares the frame's storage, so everything stays with
// the caller's alias and nothing is pooled. Either way the frame is
// cleared and a later Release is a no-op. A lent payload has an owner
// already — the sending caller — so detaching one is a bug and panics.
func (f *Frame) DetachPayload() {
	if f.loan != nil {
		panic("transport: DetachPayload on a lent payload")
	}
	if f.Payload != nil {
		f.Payload = nil
		f.pooledPayload = false
		f.Release()
		return
	}
	*f = Frame{}
}

// Loan is the lender's side of a lent payload: the claim the sending
// caller keeps on memory it let a device read in place.
type Loan interface {
	// Returned is called exactly once, when nothing below the lender
	// holds a reference into the lent payload any more — whether the
	// bytes were delivered, serialised, or dropped. It may take the
	// lender's locks, so it is never called under a device lock.
	Returned()
}

// Device is one endpoint of a job-wide message fabric. Frames are
// delivered reliably and in order per (sender, receiver) pair. A send
// fixes what becomes of the payload's storage (the dispositions on
// Frame): Sendv with recycle hands it over to be pooled, Sendv without
// shares it, and SendvLent borrows it.
type Device interface {
	// Rank returns this endpoint's world rank.
	Rank() int
	// Size returns the number of endpoints in the job.
	Size() int
	// Send delivers a contiguous frame to the endpoint with world rank
	// dst, transferring ownership of the slice to the device. It may
	// block for flow control but never blocks indefinitely while the
	// destination's progress engine is draining.
	Send(dst int, frame []byte) error
	// Sendv is the scatter-gather send: hdr and payload together form
	// one frame, without the caller assembling them contiguously.
	// Ownership of both slices transfers to the device. hdr must come
	// from GetBuf; the transport returns it to the pool once the frame
	// is on the wire (TCP) or hands it to the receiver for release
	// (shm). recycle declares that payload is exclusively owned and
	// unaliased, licensing the consuming side to return it to the frame
	// pool; pass false when the payload is shared (e.g. one buffer
	// fanned out to several destinations) or must outlive delivery.
	Sendv(dst int, hdr, payload []byte, recycle bool) error
	// SendvLent is Sendv for a payload on loan: it stays the caller's
	// memory instead of changing owner. hdr follows the Sendv contract.
	// The device reads payload in place and returns the loan exactly
	// once on every path: after the bytes are serialised (devices that
	// copy onto a wire or into a segment return it before SendvLent
	// does), when the consumer Releases the frame (devices that deliver
	// by reference), or at the point the frame is dropped — including
	// every error return.
	SendvLent(dst int, hdr, payload []byte, loan Loan) error
	// Recv returns the next incoming frame from any source, blocking
	// until one arrives or the device is closed. The caller owns the
	// returned frame and must Release it.
	Recv() (Frame, error)
	// Close shuts the endpoint down; blocked Recv calls return
	// ErrClosed.
	Close() error
	// DeviceStats reports the endpoint's traffic counters, one entry
	// per medium behind it.
	DeviceStats() []DevStats
}
