package bench

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"gompi/internal/transport"
)

// chanPair is a two-rank by-reference job; depth sizes the inboxes
// (0 = default).
func chanPair(t *testing.T, depth int) []*transport.Mux {
	t.Helper()
	devs := transport.NewShmJob(2, depth)
	t.Cleanup(func() {
		devs[0].Close()
		devs[1].Close()
	})
	return devs
}

func TestShapedLatency(t *testing.T) {
	devs := chanPair(t, 0)
	const lat = 2 * time.Millisecond
	s := shape(devs[0], profile{Latency: lat})
	start := time.Now()
	if err := s.Send(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < lat {
		t.Fatalf("latency not charged: %v < %v", d, lat)
	}
}

func TestShapedBandwidth(t *testing.T) {
	devs := chanPair(t, 64)
	// 1 MB/s: a 10 KB frame must take >= ~10 ms.
	s := shape(devs[0], profile{BytesPerSec: 1e6})
	frame := make([]byte, 10_000)
	start := time.Now()
	if err := s.Send(1, frame); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 9*time.Millisecond {
		t.Fatalf("serialization not charged: %v", d)
	}
	// Back-to-back frames queue behind each other.
	start = time.Now()
	for i := 0; i < 3; i++ {
		if err := s.Send(1, frame); err != nil {
			t.Fatal(err)
		}
	}
	if d := time.Since(start); d < 27*time.Millisecond {
		t.Fatalf("link queueing not modelled: %v", d)
	}
}

func TestShapedStagingCopyIsolation(t *testing.T) {
	devs := chanPair(t, 0)
	s := shape(devs[0], profile{StagingCopy: true})
	frame := []byte{1, 2, 3}
	if err := s.Send(1, frame); err != nil {
		t.Fatal(err)
	}
	frame[0] = 99 // mutate after send; receiver must see the staged copy
	got, err := devs[1].Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Data[0] != 1 {
		t.Fatalf("staging copy missing: got %v", got.Data)
	}
}

type countLoan struct{ n atomic.Int32 }

func (l *countLoan) Returned() { l.n.Add(1) }

// TestShapedLoanRidesThrough: shaping charges a lent send like any
// other and then forwards the loan — the staging copy models a cost, it
// does not replace the frame — so over chan the consumer still reads
// the sender's own bytes and its Release is what returns the loan.
func TestShapedLoanRidesThrough(t *testing.T) {
	devs := chanPair(t, 0)
	s := shape(devs[0], profile{PerMessage: time.Millisecond, StagingCopy: true})
	payload, loan := bytes.Repeat([]byte("lent"), 4096), &countLoan{}
	start := time.Now()
	if err := s.SendvLent(1, transport.GetBuf(8), payload, loan); err != nil {
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
	if n := loan.n.Load(); n != 0 {
		t.Fatalf("loan returned %d times before the consumer's Release", n)
	}
	f.Release()
	if n := loan.n.Load(); n != 1 {
		t.Fatalf("loan returned %d times after the consumer's Release, want 1", n)
	}
}

// TestSpinWait: never early, on either side of sleepFloor, and in the
// right ballpark — scheduler noise happens, a coarse sleep must not.
// Every wait is checked for earliness; the ballpark is checked on the
// fastest of several waits, since preemption on a loaded machine
// lengthens some waits at random while a coarse sleep lengthens them all.
func TestSpinWait(t *testing.T) {
	const tries = 10
	for _, d := range []time.Duration{-time.Second, 0, 20 * time.Microsecond, 2 * time.Millisecond} {
		fastest := time.Duration(-1)
		for range tries {
			start := time.Now()
			spinWait(d)
			got := time.Since(start)
			if got < d {
				t.Errorf("spinWait(%v) returned early, after %v", d, got)
			}
			if fastest < 0 || got < fastest {
				fastest = got
			}
		}
		if fastest > max(d, 0)+5*time.Millisecond {
			t.Errorf("spinWait(%v) returned after %v at the fastest of %d", d, fastest, tries)
		}
	}
}
