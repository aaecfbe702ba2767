package core

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"gompi/internal/transport"
)

func TestWaitCtxCompleted(t *testing.T) {
	p0, p1 := newPair(t, Config{})
	if _, err := p0.Isend(0, 0, 1, 21, []byte("done"), ModeStandard, false); err != nil {
		t.Fatal(err)
	}
	rreq := p1.Irecv(0, 0, 21)
	rreq.Wait()
	// A completed request returns immediately even under a dead context.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st, err := rreq.WaitCtx(ctx)
	if err != nil {
		t.Fatalf("WaitCtx on completed request: %v", err)
	}
	if st.Bytes != 4 || st.Cancelled {
		t.Fatalf("status %+v", st)
	}
}

func TestWaitCtxCancelsUnmatchedRecv(t *testing.T) {
	_, p1 := newPair(t, Config{})
	rreq := p1.Irecv(0, 0, 22)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	st, err := rreq.WaitCtx(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
	if !st.Cancelled {
		t.Fatalf("status %+v, want cancelled", st)
	}
	if p1.Stats().Cancelled.Load() != 1 {
		t.Fatal("cancellation not recorded")
	}
}

func TestWaitCtxDeadlineOnMatchedRecvDelivers(t *testing.T) {
	p0, p1 := newPair(t, Config{})
	rreq := p1.Irecv(0, 0, 23)
	go func() {
		time.Sleep(2 * time.Millisecond)
		p0.Isend(0, 0, 1, 23, []byte("racer"), ModeStandard, false) //nolint:errcheck
	}()
	// A generous deadline: the message arrives first, so WaitCtx must
	// deliver it rather than cancel.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := rreq.WaitCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cancelled || string(rreq.Payload) != "racer" {
		t.Fatalf("status %+v payload %q", st, rreq.Payload)
	}
}

// TestHotStructSizes pins the allocator size classes of the three
// structs every message touches (ROADMAP ground rule: one more pointer
// in Request showed up as spread in a whole-program workload). A field
// a receive needs goes where a send-only field already is. Request is
// 264 bytes since it lost its done channel, whose removal also let the
// completion flag share a word with the request's kind: still the
// 288-byte class, which is what the rule protects, and it must not
// leave it.
func TestHotStructSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are for 64-bit platforms")
	}
	if f, r, m := unsafe.Sizeof(transport.Frame{}), unsafe.Sizeof(Request{}), unsafe.Sizeof(inMsg{}); f != 72 || r != 264 || m != 136 {
		t.Fatalf("transport.Frame / Request / inMsg are %d / %d / %d bytes, want 72 / 264 / 136", f, r, m)
	}
}

// TestRecycleRacesCompletion: Recycle takes no lock, so whatever
// completes a request must be done with it once completed is visible.
// A completer that also runs an OnDone callback races a recycler that
// spins on Test and recycles the instant the request tests complete;
// under -race a write to the request after the completion store — the
// callback's slot cleared late, say — is a reported race with
// Recycle's reset.
func TestRecycleRacesCompletion(t *testing.T) {
	p0, p1 := newPair(t, Config{})
	const rounds = 500
	var fired atomic.Int64
	for i := 0; i < rounds; i++ {
		rreq := p1.Irecv(0, 0, 30)
		rreq.OnDone(func() { fired.Add(1) })
		go p0.Isend(0, 0, 1, 30, []byte{byte(i)}, ModeStandard, false) //nolint:errcheck
		for {
			if _, ok := rreq.Test(); ok {
				break
			}
			runtime.Gosched()
		}
		if got := rreq.Payload; len(got) != 1 || got[0] != byte(i) {
			t.Fatalf("round %d: payload %v", i, got)
		}
		rreq.Recycle()
	}
	if n := fired.Load(); n != rounds {
		t.Fatalf("%d of %d completion callbacks ran", n, rounds)
	}
}
