package core

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gompi/internal/transport"
)

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i*7)
	}
	return b
}

// TestLentSendSingleCopy is the tentpole end to end on bare engines: a
// lent send met by a receive-into moves the bytes once, sender memory
// to receiver memory, with no payload-sized pool traffic, and the send
// completes by the loan's return. By reference the RTS carries the
// loan, so the whole rendezvous is one frame.
func TestLentSendSingleCopy(t *testing.T) {
	p0, p1 := newPair(t, Config{})
	const size = 256 << 10
	src, dst := pattern(size, 3), make([]byte, size)

	rreq := p1.IrecvInto(0, 0, 9, dst, 1)
	frames := func() uint64 { return pv(p0, "transport.chan.frames_sent") + pv(p1, "transport.chan.frames_sent") }
	pool, copied, framesBefore := transport.PoolStats(), pv(p1, "core.bytes_copied"), frames()
	sreq, err := p0.IsendLent(0, 0, 1, 9, src, ModeStandard)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitStatus(t, sreq); st.Err != nil || st.Bytes != size {
		t.Fatalf("lent send: %+v", st)
	}
	// The loan came back, so the receiver's engine has the bytes home.
	if st := waitStatus(t, rreq); st.Err != nil || st.Bytes != size || !bytes.Equal(dst, src) {
		t.Fatalf("receive-into of a lent send: %+v, intact=%v", st, bytes.Equal(dst, src))
	}
	if got := pv(p1, "core.bytes_copied") - copied; got != size {
		t.Fatalf("BytesCopied delta %d, want the one copy of %d", got, size)
	}
	lent, lentBytes, rndv := pv(p0, "core.sends_lent"), pv(p0, "core.bytes_lent"), pv(p0, "core.sends_rndv")
	if lent != 1 || lentBytes != size || rndv != 1 {
		t.Fatalf("sends_lent=%d bytes_lent=%d sends_rndv=%d", lent, lentBytes, rndv)
	}
	// The RTS header: one small buffer, nothing else.
	if gets := transport.PoolStats().Gets - pool.Gets; gets != 1 {
		t.Fatalf("pool gets for one lent rendezvous = %d, want 1 header", gets)
	}
	if n := frames() - framesBefore; n != 1 {
		t.Fatalf("%d frames for one lent rendezvous by reference, want 1", n)
	}
}

// TestLentSendAlwaysRendezvous: an eager frame can outlive its send in
// the receiver's unexpected queue, so a loan never travels in one — not
// even when it is small.
func TestLentSendAlwaysRendezvous(t *testing.T) {
	p0, p1 := newPair(t, Config{})
	src := []byte("small but lent")
	sreq, err := p0.IsendLent(0, 0, 1, 2, src, ModeStandard)
	if err != nil {
		t.Fatal(err)
	}
	for p1.PendingUnexpected() == 0 {
	}
	if _, done := sreq.Test(); done {
		t.Fatal("lent send completed before any receive was posted")
	}
	if eager, rndv := pv(p0, "core.sends_eager"), pv(p0, "core.sends_rndv"); eager != 0 || rndv != 1 {
		t.Fatalf("sends_eager=%d sends_rndv=%d", eager, rndv)
	}
	dst := make([]byte, 32)
	st := waitStatus(t, p1.IrecvInto(0, 0, 2, dst, 1))
	waitStatus(t, sreq)
	if !bytes.Equal(dst[:st.Bytes], src) {
		t.Fatalf("got %q", dst[:st.Bytes])
	}
}

// TestLentSendByReferenceRecvGetsPrivateCopy: an ordinary receive of a
// lent payload must not keep the sender waiting on the receiving user —
// each rank here finishes its send before it looks at its receive,
// which would deadlock if the loan rode the request to ReleaseFrame —
// and what it gets is a pooled copy it may keep.
func TestLentSendByReferenceRecvGetsPrivateCopy(t *testing.T) {
	p0, p1 := newPair(t, Config{})
	const size = 128 << 10
	procs := []*Proc{p0, p1}
	var wg sync.WaitGroup
	for me := range procs {
		wg.Add(1)
		go func(me int) {
			defer wg.Done()
			p, peer := procs[me], 1-me
			src := pattern(size, byte(me))
			rreq := p.Irecv(0, int32(peer), 4)
			sreq, err := p.IsendLent(0, me, peer, 4, src, ModeStandard)
			if err != nil {
				t.Error(err)
				return
			}
			waitStatus(t, sreq)
			clear(src) // ours again
			waitStatus(t, rreq)
			got := rreq.TakePayload()
			rreq.Recycle()
			if !bytes.Equal(got, pattern(size, byte(peer))) {
				t.Errorf("rank %d: by-reference receive of a lent payload corrupted", me)
			}
		}(me)
	}
	wg.Wait()
}

// TestLentSendToSelf: the loan's return takes the sender's engine lock,
// so a rank delivering to itself must return it outside its own.
func TestLentSendToSelf(t *testing.T) {
	p0, _ := newPair(t, Config{})
	src, dst := pattern(96<<10, 9), make([]byte, 96<<10)
	rreq := p0.IrecvInto(0, 0, 1, dst, 1)
	sreq, err := p0.IsendLent(0, 0, 0, 1, src, ModeStandard)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, sreq)
	waitStatus(t, rreq)
	if !bytes.Equal(dst, src) {
		t.Fatal("self-delivery of a lent payload corrupted")
	}
}

// TestLentSendsCrossing: two ranks lending to each other at once; each
// engine returns the other's loan while the other returns its own, the
// lock-order hazard the deferred release in handle exists for.
func TestLentSendsCrossing(t *testing.T) {
	p0, p1 := newPair(t, Config{})
	const size, rounds = 80 << 10, 200
	procs := []*Proc{p0, p1}
	var wg sync.WaitGroup
	for me := range procs {
		wg.Add(1)
		go func(me int) {
			defer wg.Done()
			p, peer := procs[me], 1-me
			src, dst := make([]byte, size), make([]byte, size)
			for k := 0; k < rounds; k++ {
				for i := range src {
					src[i] = byte(me + k)
				}
				rreq := p.IrecvInto(0, int32(peer), int32(k), dst, 1)
				sreq, err := p.IsendLent(0, me, peer, k, src, ModeStandard)
				if err != nil {
					t.Error(err)
					return
				}
				waitStatus(t, sreq)
				waitStatus(t, rreq)
				if dst[0] != byte(peer+k) || dst[size-1] != byte(peer+k) {
					t.Errorf("rank %d round %d: got %d, want %d", me, k, dst[0], byte(peer+k))
					return
				}
				sreq.Recycle()
				rreq.Recycle()
			}
		}(me)
	}
	wg.Wait()
}

// TestLentSendBeforeGrant: until the receiver grants the rendezvous, or
// claims the offer, nobody reads the payload, so cancellation,
// revocation and peer loss complete a lent send like any other.
func TestLentSendBeforeGrant(t *testing.T) {
	src := pattern(4096, 1)
	t.Run("cancel", func(t *testing.T) {
		p0, _ := newPair(t, Config{})
		sreq, err := p0.IsendLent(0, 0, 1, 1, src, ModeStandard)
		if err != nil {
			t.Fatal(err)
		}
		if !p0.Cancel(sreq) {
			t.Fatal("cancel of an ungranted lent send failed")
		}
		if st := waitStatus(t, sreq); !st.Cancelled {
			t.Fatalf("status %+v, want cancelled", st)
		}
	})
	t.Run("revoke", func(t *testing.T) {
		p0, _ := newPair(t, Config{})
		sreq, err := p0.IsendLent(0, 0, 1, 1, src, ModeStandard)
		if err != nil {
			t.Fatal(err)
		}
		p0.Revoke(0)
		if st := waitStatus(t, sreq); !errors.Is(st.Err, ErrCommRevoked) {
			t.Fatalf("status error %v, want ErrCommRevoked", st.Err)
		}
	})
	t.Run("peer lost", func(t *testing.T) {
		p0, _ := newPair(t, Config{})
		sreq, err := p0.IsendLent(0, 0, 1, 1, src, ModeStandard)
		if err != nil {
			t.Fatal(err)
		}
		p0.failPeer(&transport.PeerLostError{Peer: 1})
		var pl *transport.PeerLostError
		if st := waitStatus(t, sreq); !errors.As(st.Err, &pl) {
			t.Fatalf("status error %v, want PeerLostError", st.Err)
		}
	})
}

// heldLoans is a device that parks every lent frame instead of sending
// it: the reader that still holds the view.
type heldLoans struct {
	transport.Device
	mu    sync.Mutex
	loans []transport.Loan
	seen  chan struct{}
}

func (h *heldLoans) SendvLent(dst int, hdr, payload []byte, loan transport.Loan) error {
	transport.PutBuf(hdr)
	h.mu.Lock()
	h.loans = append(h.loans, loan)
	h.mu.Unlock()
	h.seen <- struct{}{}
	return nil
}

// TestLentSendAfterGrantCompletesOnlyByLoanReturn: once the DATA frame
// is out, a reader may be looking at the caller's buffer; cancel,
// revocation, peer loss and even the death of the local endpoint must
// leave the request pending until the loan is back.
func TestLentSendAfterGrantCompletesOnlyByLoanReturn(t *testing.T) {
	devs := transport.NewShmJob(2, 0)
	held := &heldLoans{Device: devs[0], seen: make(chan struct{}, 1)}
	p0 := NewProc(held, Config{})
	p1 := NewProc(devs[1], Config{})
	defer p1.Close()

	p1.IrecvInto(0, 0, 1, make([]byte, 4096), 1)
	sreq, err := p0.IsendLent(0, 0, 1, 1, pattern(4096, 5), ModeStandard)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-held.seen:
	case <-time.After(10 * time.Second):
		t.Fatal("DATA frame never reached the device")
	}
	if p0.Cancel(sreq) {
		t.Fatal("cancel of a granted lent send succeeded")
	}
	p0.Revoke(0)
	p0.failPeer(&transport.PeerLostError{Peer: 1})
	p0.Close() // failAll: the local endpoint is gone
	if st, done := sreq.Test(); done {
		t.Fatalf("lent send completed (%+v) while its payload was still held", st)
	}
	held.mu.Lock()
	loan := held.loans[0]
	held.mu.Unlock()
	loan.Returned()
	if st := waitStatus(t, sreq); st.Err != nil || st.Cancelled || st.Bytes != 4096 {
		t.Fatalf("status after the loan's return: %+v", st)
	}
}

// TestLentDataFrameUnmatched: a DATA frame nobody waits for (its
// receive was revoked away) still returns its loan.
func TestLentDataFrameUnmatched(t *testing.T) {
	p0, _ := newPair(t, Config{})
	loan := &lentSend{proc: p0, kind: reqSend, size: 7}
	hdr := buildDataHdr(0, 12345) // no such granted receive on p1
	if err := p0.mux.SendvLent(1, hdr, []byte("orphans"), loan); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, (*Request)(loan))
}

// TestBorrowingReceiveReadsTheLentFrameInPlace: a borrowing receive is
// handed the sender's own memory — no pooled copy, no engine-side copy —
// and the lent send completes exactly when the borrower recycles its
// request; an ordinary receive of the same send still gets its private
// copy and completes the send at delivery.
func TestBorrowingReceiveReadsTheLentFrameInPlace(t *testing.T) {
	p0, p1 := newPair(t, Config{})
	const size = 4096
	src := pattern(size, 9)

	rreq := p1.IrecvBorrow(0, 0, 4)
	copied := pv(p1, "core.bytes_copied")
	sreq, err := p0.IsendLent(0, 0, 1, 4, src, ModeStandard)
	if err != nil {
		t.Fatal(err)
	}
	st := waitStatus(t, rreq)
	if st.Err != nil || st.Bytes != size || &rreq.Payload[0] != &src[0] {
		t.Fatalf("borrowed delivery: %+v, in place=%v", st, &rreq.Payload[0] == &src[0])
	}
	if got := pv(p1, "core.bytes_copied") - copied; got != 0 {
		t.Fatalf("BytesCopied grew by %d for a borrowed payload", got)
	}
	if _, done := sreq.Test(); done {
		t.Fatal("lent send completed while its payload was still borrowed")
	}
	rreq.Recycle()
	waitStatus(t, sreq)

	rreq = p1.Irecv(0, 0, 5)
	if sreq, err = p0.IsendLent(0, 0, 1, 5, src, ModeStandard); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, sreq) // no consumer in sight: the private copy let the loan go
	if st := waitStatus(t, rreq); st.Err != nil || &rreq.Payload[0] == &src[0] || !bytes.Equal(rreq.Payload, src) {
		t.Fatalf("ordinary receive of a lent send: %+v", st)
	}
	rreq.Recycle()
}

// TestOfferClaimRacesWithdrawal: a receiver claiming a queued offer and
// its sender cancelling it race for the one way out. Whoever wins, the
// two ends agree — the send cancelled and the receive withdrawn, or the
// send complete and the payload deposited — and the loan comes home.
func TestOfferClaimRacesWithdrawal(t *testing.T) {
	p0, p1 := newPair(t, Config{})
	src, dst := pattern(96<<10, 5), make([]byte, 96<<10)
	var cancels int
	for i := 0; i < 200; i++ {
		sreq, err := p0.IsendLent(0, 0, 1, i, src, ModeStandard)
		if err != nil {
			t.Fatal(err)
		}
		eventually(t, "the offer queued unexpected", func() bool { return p1.PendingUnexpected() == 1 })
		clear(dst)
		cancelled := make(chan bool)
		go func() { cancelled <- p0.Cancel(sreq) }()
		rreq := p1.IrecvInto(0, 0, int32(i), dst, 1)
		c := <-cancelled
		rst, sst := waitStatus(t, rreq), waitStatus(t, sreq)
		if c {
			cancels++
			if !sst.Cancelled || !errors.Is(rst.Err, ErrWithdrawn) {
				t.Fatalf("round %d: cancel won, yet send %+v, receive %+v", i, sst, rst)
			}
		} else if sst.Cancelled || sst.Err != nil || rst.Err != nil || !bytes.Equal(dst, src) {
			t.Fatalf("round %d: the claim won, yet send %+v, receive %+v, intact=%v", i, sst, rst, bytes.Equal(dst, src))
		}
		if s := atomic.LoadInt32(sreq.offer()); s != offerBack && s != offerTaken {
			t.Fatalf("round %d: offer state %d after both ends completed", i, s)
		}
		sreq.Recycle()
		rreq.Recycle()
	}
	t.Logf("cancel won %d of 200 races", cancels)
}

// TestWithdrawnSendFailsItsMatchedReceive: a rendezvous send cancelled
// after its RTS went out leaves the advertisement behind. The receive
// that matches it can no longer be cancelled, so the sender's engine
// answers the grant with a withdrawal and the receive fails instead of
// waiting for DATA for ever — whether it was posted first or found the
// dead RTS queued.
func TestWithdrawnSendFailsItsMatchedReceive(t *testing.T) {
	p0, p1 := newPair(t, Config{EagerLimit: -1})
	for _, lent := range []bool{false, true} {
		send := func() *Request {
			if lent {
				sreq, err := p0.IsendLent(0, 0, 1, 6, pattern(64, 1), ModeStandard)
				if err != nil {
					t.Fatal(err)
				}
				return sreq
			}
			sreq, err := p0.Isend(0, 0, 1, 6, pattern(64, 1), ModeStandard, false)
			if err != nil {
				t.Fatal(err)
			}
			return sreq
		}
		sreq := send()
		for p1.PendingUnexpected() == 0 {
		}
		if !p0.Cancel(sreq) {
			t.Fatal("cancel of an ungranted rendezvous send failed")
		}
		rreq := p1.IrecvInto(0, 0, 6, make([]byte, 64), 1)
		if st := waitStatus(t, rreq); !errors.Is(st.Err, ErrWithdrawn) {
			t.Fatalf("lent=%v: receive matched to a withdrawn send completed with %+v", lent, st)
		}
		if p1.Cancel(rreq) {
			t.Fatal("a completed receive cancelled")
		}
	}
}
