package transport

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// countLoan counts how often a loan comes back; every path of every
// device must make that exactly one.
type countLoan struct{ n atomic.Int32 }

func (l *countLoan) Returned() { l.n.Add(1) }

func (l *countLoan) want(t *testing.T, n int32, when string) {
	t.Helper()
	if got := l.n.Load(); got != n {
		t.Fatalf("%s: loan returned %d times, want %d", when, got, n)
	}
}

func lentPayload() []byte { return bytes.Repeat([]byte("lent"), 4096) }

// TestChanLoanReturnsAtRelease: the chan device delivers by reference,
// so the loan rides the frame and comes back when — and only when — the
// consumer releases it.
func TestChanLoanReturnsAtRelease(t *testing.T) {
	devs := NewShmJob(2, 0)
	defer devs[0].Close()
	defer devs[1].Close()
	payload, loan := lentPayload(), &countLoan{}
	if err := devs[0].SendvLent(1, GetBuf(8), payload, loan); err != nil {
		t.Fatal(err)
	}
	f, err := devs[1].Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !f.Lent() || f.PayloadPooled() || &f.Payload[0] != &payload[0] {
		t.Fatalf("frame lent=%v pooled=%v, want the sender's own bytes on loan", f.Lent(), f.PayloadPooled())
	}
	loan.want(t, 0, "before the consumer's Release")
	f.Release()
	f.Release() // idempotent on the same Frame value
	loan.want(t, 1, "after the consumer's Release")
}

// TestChanLoanReturnsOnEveryFailure covers the send's failure returns:
// a bad destination, the sender's own endpoint closed, and the
// destination closed before or while the frame was enqueued.
func TestChanLoanReturnsOnEveryFailure(t *testing.T) {
	t.Run("bad destination", func(t *testing.T) {
		devs := NewShmJob(2, 0)
		loan := &countLoan{}
		if err := devs[0].SendvLent(7, GetBuf(8), lentPayload(), loan); err == nil {
			t.Fatal("send to rank 7 of 2 succeeded")
		}
		loan.want(t, 1, "bad destination")
	})
	t.Run("own endpoint closed", func(t *testing.T) {
		devs := NewShmJob(2, 0)
		devs[0].Close()
		loan := &countLoan{}
		if err := devs[0].SendvLent(1, GetBuf(8), lentPayload(), loan); !errors.Is(err, ErrClosed) {
			t.Fatalf("got %v, want ErrClosed", err)
		}
		loan.want(t, 1, "own endpoint closed")
	})
	t.Run("destination closed", func(t *testing.T) {
		devs := NewShmJob(2, 0)
		devs[1].Close()
		loan := &countLoan{}
		if err := devs[0].SendvLent(1, GetBuf(8), lentPayload(), loan); !errors.Is(err, ErrClosed) {
			t.Fatalf("got %v, want ErrClosed", err)
		}
		loan.want(t, 1, "destination closed")
	})
	t.Run("destination closed with the frame in its inbox", func(t *testing.T) {
		// The consumer saw its inbox empty and left; a frame enqueued
		// in that window must not strand its loan. The window itself
		// cannot be hit on purpose, so the sweep deliver runs after
		// every lent enqueue is driven by hand: not before the
		// endpoint closes, and exactly once after.
		devs := NewShmJob(2, 0)
		stranded := &countLoan{}
		if err := devs[0].SendvLent(1, GetBuf(8), lentPayload(), stranded); err != nil {
			t.Fatal(err)
		}
		inbox, done := devs[0].job.inboxes[1], devs[0].job.done[1]
		releaseIfClosed(inbox, done)
		stranded.want(t, 0, "endpoint still open")
		devs[1].Close()
		releaseIfClosed(inbox, done)
		releaseIfClosed(inbox, done)
		stranded.want(t, 1, "frame stranded in a closed endpoint's inbox")
	})
}

// TestTCPLoanReturns: tcp serialises, so the loan is back by the time
// SendvLent returns — on success, on a bad destination and on a dead
// connection — except on self-delivery, which is by reference.
func TestTCPLoanReturns(t *testing.T) {
	devs, err := NewLoopbackJob(2)
	if err != nil {
		t.Fatal(err)
	}
	defer devs[0].Close()
	defer devs[1].Close()
	payload := lentPayload()

	loan := &countLoan{}
	if err := devs[0].SendvLent(1, GetBuf(8), payload, loan); err != nil {
		t.Fatal(err)
	}
	loan.want(t, 1, "peer send returned")
	f, err := devs[1].Recv()
	if err != nil {
		t.Fatal(err)
	}
	if f.Lent() || !bytes.Equal(f.Data[8:], payload) {
		t.Fatalf("peer frame lent=%v, %d bytes", f.Lent(), len(f.Data))
	}
	f.Release()

	self := &countLoan{}
	if err := devs[0].SendvLent(0, GetBuf(8), payload, self); err != nil {
		t.Fatal(err)
	}
	self.want(t, 0, "self-delivery before Release")
	if f, err = devs[0].Recv(); err != nil || !f.Lent() {
		t.Fatalf("self frame lent=%v err=%v", f.Lent(), err)
	}
	f.Release()
	self.want(t, 1, "self-delivery after Release")

	bad := &countLoan{}
	if err := devs[0].SendvLent(9, GetBuf(8), payload, bad); err == nil {
		t.Fatal("send to rank 9 of 2 succeeded")
	}
	bad.want(t, 1, "bad destination")

	devs[0].Close()
	dead, deadSelf := &countLoan{}, &countLoan{}
	if err := devs[0].SendvLent(1, GetBuf(8), payload, dead); err == nil {
		t.Fatal("send over a closed connection succeeded")
	}
	dead.want(t, 1, "closed connection")
	devs[0].SendvLent(0, GetBuf(8), payload, deadSelf) //nolint:errcheck // ErrClosed, or enqueued and swept
	deadSelf.want(t, 1, "self-delivery on a closed endpoint")
}

// TestFaultyLoanReturns: the decorator forwards a loan it lets through
// and returns one it drops — blackholed or after the kill.
func TestFaultyLoanReturns(t *testing.T) {
	devs := NewShmJob(3, 0)
	for _, d := range devs {
		defer d.Close()
	}
	f := NewFaulty(devs[0], FaultPlan{Rank: 0, DropPeers: map[int]bool{2: true}, KillAfterSends: 1,
		OnKill: func() {}}).(*Faulty)

	dropped := &countLoan{}
	if err := f.SendvLent(2, GetBuf(8), lentPayload(), dropped); err != nil {
		t.Fatal(err)
	}
	dropped.want(t, 1, "blackholed destination")

	passed := &countLoan{}
	if err := f.SendvLent(1, GetBuf(8), lentPayload(), passed); err != nil {
		t.Fatal(err)
	}
	passed.want(t, 0, "forwarded frame still with its consumer")
	fr, err := devs[1].Recv()
	if err != nil || !fr.Lent() {
		t.Fatalf("forwarded frame lent=%v err=%v", fr.Lent(), err)
	}
	fr.Release()
	passed.want(t, 1, "forwarded frame released")

	killed := &countLoan{}
	if err := f.SendvLent(1, GetBuf(8), lentPayload(), killed); err != nil {
		t.Fatal(err)
	}
	if !f.Killed() {
		t.Fatal("second frame did not trip the kill")
	}
	killed.want(t, 1, "frame dropped by the kill")
}

// TestShapedLoanRidesThrough: shaping charges a lent send like any
// other and then forwards the loan — the staging copy models a cost, it
// does not replace the frame — so over chan the consumer still reads
// the sender's own bytes and its Release is what returns the loan.
func TestShapedLoanRidesThrough(t *testing.T) {
	devs := NewShmJob(2, 0)
	defer devs[0].Close()
	defer devs[1].Close()
	shaped := NewShaped(devs[0], LinkProfile{PerMessage: time.Millisecond, StagingCopy: true})
	payload, loan := lentPayload(), &countLoan{}
	start := time.Now()
	if err := shaped.SendvLent(1, GetBuf(8), payload, loan); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < time.Millisecond {
		t.Fatalf("lent send through a 1 ms/message profile took %v", took)
	}
	f, err := devs[1].Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !f.Lent() || &f.Payload[0] != &payload[0] {
		t.Fatalf("shaped frame lent=%v, want the sender's own bytes on loan", f.Lent())
	}
	loan.want(t, 0, "before the consumer's Release")
	f.Release()
	loan.want(t, 1, "after the consumer's Release")
}

// TestDetachLentPayloadPanics: a lent payload has an owner already.
func TestDetachLentPayloadPanics(t *testing.T) {
	f := Frame{Payload: lentPayload(), loan: &countLoan{}}
	defer func() {
		if recover() == nil {
			t.Fatal("DetachPayload on a lent frame did not panic")
		}
	}()
	f.DetachPayload()
}
