package transport

import "sync"

// shmJob is the shared fabric of an in-process job: one inbox channel and
// one shutdown signal per rank. Channel semantics give exactly the
// ordering a device must provide: sends from one goroutine are observed
// in order, and the per-rank progress engine drains the inbox
// continuously so senders only block transiently on flow control.
type shmJob struct {
	inboxes []chan Frame
	done    []chan struct{}
}

// ShmDevice is one endpoint of an in-process (Shared Memory mode) job.
type ShmDevice struct {
	job  *shmJob
	rank int

	mu     sync.Mutex
	closed bool

	devCounters
}

// DefaultInboxDepth is the per-rank flow-control window, in frames.
const DefaultInboxDepth = 1024

// NewShmJob creates an n-rank in-process job and returns its devices.
// depth is the per-rank inbox capacity in frames; depth <= 0 selects
// DefaultInboxDepth.
func NewShmJob(n, depth int) []*ShmDevice {
	if depth <= 0 {
		depth = DefaultInboxDepth
	}
	job := &shmJob{
		inboxes: make([]chan Frame, n),
		done:    make([]chan struct{}, n),
	}
	for i := range job.inboxes {
		job.inboxes[i] = make(chan Frame, depth)
		job.done[i] = make(chan struct{})
	}
	devs := make([]*ShmDevice, n)
	for i := range devs {
		devs[i] = &ShmDevice{job: job, rank: i}
	}
	return devs
}

// Rank returns this endpoint's world rank.
func (d *ShmDevice) Rank() int { return d.rank }

// Size returns the number of ranks in the job.
func (d *ShmDevice) Size() int { return len(d.job.inboxes) }

// Send delivers frame to rank dst's inbox. It fails with ErrClosed when
// either endpoint has shut down, so a sender can never block forever on
// a dead receiver.
func (d *ShmDevice) Send(dst int, frame []byte) error {
	return d.deliver(dst, Frame{Data: frame})
}

// Sendv delivers the (hdr, payload) pair by reference: ranks share one
// address space, so the receiver reads the sender's buffers directly and
// no copy or contiguous assembly happens anywhere on the shm path. The
// header is always pool-born (the Sendv contract), and the payload is
// marked for pool return when the sender vouched for exclusive
// ownership.
func (d *ShmDevice) Sendv(dst int, hdr, payload []byte, recycle bool) error {
	return d.deliver(dst, Frame{
		Data:          hdr,
		Payload:       payload,
		pooledData:    true,
		pooledPayload: recycle,
	})
}

// SendvLent delivers a lent payload by reference like Sendv; the loan
// rides the frame and is returned when the consumer Releases it.
func (d *ShmDevice) SendvLent(dst int, hdr, payload []byte, loan Loan) error {
	return d.deliver(dst, Frame{Data: hdr, Payload: payload, pooledData: true, loan: loan})
}

// deliver enqueues f at rank dst. On failure the frame was not handed
// to anyone, so it is released here — undelivered frames must not leak
// out of the pool, and an undelivered loan must go back to its lender.
func (d *ShmDevice) deliver(dst int, f Frame) error {
	if err := checkDst(dst, d.Size()); err != nil {
		f.Release()
		return err
	}
	mine := d.job.done[d.rank]
	theirs := d.job.done[dst]
	select {
	case <-mine:
		f.Release()
		return ErrClosed
	case <-theirs:
		f.Release()
		return ErrClosed
	default:
	}
	select {
	case d.job.inboxes[dst] <- f:
		d.countSend(len(f.Data) + len(f.Payload))
		if f.loan != nil {
			releaseIfClosed(d.job.inboxes[dst], theirs)
		}
		return nil
	case <-mine:
		f.Release()
		return ErrClosed
	case <-theirs:
		f.Release()
		return ErrClosed
	}
}

// releaseIfClosed covers the window in which a frame is enqueued on an
// endpoint that closed meanwhile: its consumer may already have seen
// the inbox empty and left, and a loan stranded there would hang its
// lender for ever. Once the endpoint is closed, whatever still sits in
// the inbox is undeliverable, so the sender that may have raced
// releases it all; the departing consumer, if still draining, shares
// the frames with it one receive at a time.
func releaseIfClosed(inbox chan Frame, done <-chan struct{}) {
	select {
	case <-done:
		drainFrames(inbox)
	default:
	}
}

// drainFrames releases whatever inbox holds right now; a lent frame
// queued there goes back to its lender.
func drainFrames(inbox chan Frame) {
	for {
		select {
		case f := <-inbox:
			f.Release()
		default:
			return
		}
	}
}

// Recv returns the next frame addressed to this rank.
func (d *ShmDevice) Recv() (Frame, error) {
	select {
	case f := <-d.job.inboxes[d.rank]:
		d.countRecv(len(f.Data) + len(f.Payload))
		return f, nil
	case <-d.job.done[d.rank]:
		// Drain anything already queued so shutdown is not lossy
		// for frames delivered before Close.
		select {
		case f := <-d.job.inboxes[d.rank]:
			d.countRecv(len(f.Data) + len(f.Payload))
			return f, nil
		default:
			return Frame{}, ErrClosed
		}
	}
}

// Close shuts down this endpoint. Other ranks' endpoints are unaffected.
func (d *ShmDevice) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.closed {
		d.closed = true
		close(d.job.done[d.rank])
	}
	return nil
}

// DeviceStats reports this endpoint's traffic under the "chan" medium
// name (in-process channels), with the process-private pool counters.
func (d *ShmDevice) DeviceStats() []DevStats {
	return []DevStats{d.devCounters.stats("chan", PoolStats())}
}

var _ Device = (*ShmDevice)(nil)
