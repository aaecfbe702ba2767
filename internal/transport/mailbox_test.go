package transport

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

// sendWaits reads the by-reference medium's SendWaits of m.
func sendWaits(m *Mux) uint64 { return m.cnt[viaChan].sendWaits.Load() }

// TestFullMailbox: the inbox depth bounds the mailbox and pushes back. A
// send into a full mailbox leaves the non-blocking path (counted once in
// SendWaits) and waits — until the consumer makes room, or until either
// endpoint closes, which fails it with ErrClosed and returns its loan
// exactly once. TrySendv on the same full mailbox reports false having
// taken nothing: header unpooled, loan unreturned.
func TestFullMailbox(t *testing.T) {
	for _, c := range []struct {
		name    string
		unblock func(t *testing.T, job []*Mux)
		want    error
	}{
		{"the consumer makes room", func(t *testing.T, job []*Mux) {
			f, err := job[1].Recv()
			if err != nil {
				t.Fatal(err)
			}
			f.Release()
		}, nil},
		{"the sender closes", func(t *testing.T, job []*Mux) { job[0].Close() }, ErrClosed},
		{"the receiver closes", func(t *testing.T, job []*Mux) { job[1].Close() }, ErrClosed},
	} {
		t.Run(c.name, func(t *testing.T) {
			job := NewShmJob(2, 1)
			defer job[0].Close()
			defer job[1].Close()
			first, tried, second := &countLoan{}, &countLoan{}, &countLoan{}
			if err := job[0].SendvLent(1, GetBuf(8), lentPayload(), first); err != nil {
				t.Fatal(err)
			}

			hdr := GetBuf(8)
			out := outstanding()
			if job[0].TrySendv(1, hdr, lentPayload(), false, tried) {
				t.Fatal("TrySendv handed a frame to a full mailbox")
			}
			tried.want(t, 0, "TrySendv refused")
			if got := outstanding(); got != out {
				t.Fatalf("TrySendv refused, yet %d pool buffers came back", out-got)
			}
			PutBuf(hdr)
			if n := sendWaits(job[0]); n != 0 {
				t.Fatalf("SendWaits = %d before any send waited", n)
			}

			errc := make(chan error, 1)
			go func() { errc <- job[0].SendvLent(1, GetBuf(8), lentPayload(), second) }()
			waitFor(t, "the second send to find the mailbox full", func() bool { return sendWaits(job[0]) == 1 })
			select {
			case err := <-errc:
				t.Fatalf("second send returned (%v) while the mailbox was full", err)
			case <-time.After(10 * time.Millisecond):
			}
			second.want(t, 0, "send still waiting")

			c.unblock(t, job)
			select {
			case err := <-errc:
				if !errors.Is(err, c.want) {
					t.Fatalf("second send: %v, want %v", err, c.want)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("second send still blocked")
			}
			if c.want != nil {
				second.want(t, 1, "refused send")
			}
			job[0].Close()
			job[1].Close()
			first.want(t, 1, "both endpoints closed")
			second.want(t, 1, "both endpoints closed")
			tried.want(t, 0, "TrySendv took nothing")
			if n := sendWaits(job[0]); n != 1 {
				t.Fatalf("SendWaits = %d, want 1: only the slow path counts", n)
			}
		})
	}
}

// TestReadLoopWaitsOnAFullMailbox: a connection's read loop is a producer
// like any other — it waits for room, counts each wait on its medium, and
// gives the frame it staged back to the pool when the endpoint shuts down
// under it.
func TestReadLoopWaitsOnAFullMailbox(t *testing.T) {
	var cnt devCounters
	base := outstanding()
	mb := testMailbox(1, make(chan struct{}))
	var wire []byte
	for _, body := range []string{"a", "b", "c"} {
		wire = append(wire, prefixed(1, []byte(body))...)
	}
	errc := make(chan error, 1)
	go func() { errc <- readFrames(feed(wire), mb, &cnt, nil, nil) }()
	waitFor(t, "b to find the mailbox full", func() bool { return cnt.sendWaits.Load() == 1 })
	f := <-mb.inbox
	if !bytes.Equal(f.Data, []byte("a")) {
		t.Fatalf("first frame %q, want a", f.Data)
	}
	f.Release()
	waitFor(t, "c to find the mailbox full", func() bool { return cnt.sendWaits.Load() == 2 })
	close(mb.done)
	if err := <-errc; err != nil {
		t.Fatalf("read loop stopped by shutdown returned %v", err)
	}
	drainFrames(mb.inbox) // b
	if got := outstanding() - base; got != 0 {
		t.Fatalf("%d pool buffers outstanding after the read loop ended", got)
	}
}

// BenchmarkMuxBurst: 512 frames into a draining by-reference peer — what
// a producer pays per frame while the mailbox has room.
func BenchmarkMuxBurst(b *testing.B) {
	const burst = 512
	job := NewShmJob(2, 0)
	defer job[0].Close()
	defer job[1].Close()
	drained := make(chan struct{})
	go func() {
		for n := 0; ; {
			f, err := job[1].Recv()
			if err != nil {
				return
			}
			f.Release()
			if n++; n == burst {
				n = 0
				drained <- struct{}{}
			}
		}
	}()
	frame := make([]byte, 25) // unpooled: the mailbox alone is on the clock
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < burst; j++ {
			if err := job[0].Send(1, frame); err != nil {
				b.Fatal(err)
			}
		}
		<-drained
	}
}

// BenchmarkMuxPingPong: one frame each way per iteration; every receive
// finds its mailbox empty first, so this is the blocking side of Recv.
func BenchmarkMuxPingPong(b *testing.B) {
	job := NewShmJob(2, 0)
	defer job[0].Close()
	defer job[1].Close()
	go func() {
		for {
			f, err := job[1].Recv()
			if err != nil {
				return
			}
			f.Release()
			if job[1].Sendv(0, GetBuf(25), nil, false) != nil {
				return
			}
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := job[0].Sendv(1, GetBuf(25), nil, false); err != nil {
			b.Fatal(err)
		}
		f, err := job[0].Recv()
		if err != nil {
			b.Fatal(err)
		}
		f.Release()
	}
}

// testMailbox is a bare mailbox of depth frames over done, with a bell
// nobody waits on, for driving a producer by hand.
func testMailbox(depth int, done chan struct{}) *mailbox {
	mb := &mailbox{inbox: make(chan Frame, depth), done: done}
	mb.Listen(NewBell())
	return mb
}
