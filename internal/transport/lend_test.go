package transport

import (
	"bytes"
	"sync/atomic"
	"testing"
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

// TestLoanStrandedInAClosedInboxIsSwept: a by-reference consumer that
// saw its inbox empty and left must not strand the loan of a frame
// enqueued in that window. The window itself cannot be hit on purpose,
// so the sweep deliver runs after every lent enqueue is driven by hand:
// not before the endpoint closes, and exactly once after. (Every other
// return of a loan is TestMux's, over every kind of route.)
func TestLoanStrandedInAClosedInboxIsSwept(t *testing.T) {
	devs := NewShmJob(2, 0)
	defer devs[0].Close()
	stranded := &countLoan{}
	if err := devs[0].SendvLent(1, GetBuf(8), lentPayload(), stranded); err != nil {
		t.Fatal(err)
	}
	inbox, done := devs[1].inbox, devs[1].done
	releaseIfClosed(inbox, done)
	stranded.want(t, 0, "endpoint still open")
	devs[1].shut() // Close would sweep the inbox itself
	releaseIfClosed(inbox, done)
	releaseIfClosed(inbox, done)
	stranded.want(t, 1, "frame stranded in a closed endpoint's inbox")
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
