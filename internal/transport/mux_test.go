package transport

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// One script, every kind of route. The test plays every peer: behind a
// scripted member device it feeds the member's receive stream and reads
// what was sent through it; behind a by-reference route or a mesh
// connection it drives the peer's own endpoint; behind a joined link it
// holds the far end of the connection. Frames are {source rank,
// sequence number, ...}.

// member is a scripted member device. Like the by-reference routes it
// passes frames by reference, so a lent frame sent through it still
// carries its loan when the test loops it back.
type member struct {
	rank, size int
	in         chan func() (Frame, error) // what Recv returns next
	out        chan sentFrame             // what was sent through it
	done       chan struct{}
	closeOnce  sync.Once
}

type sentFrame struct {
	dst int
	f   Frame
}

func newMember(rank, size int) *member {
	return &member{
		rank: rank, size: size,
		in:   make(chan func() (Frame, error), 64),
		out:  make(chan sentFrame, 64),
		done: make(chan struct{}),
	}
}

func (d *member) deliver(f Frame) { d.in <- func() (Frame, error) { return f, nil } }

func (d *member) lose(peer int) {
	d.in <- func() (Frame, error) {
		return Frame{}, &PeerLostError{Peer: peer, Err: errors.New("scripted loss")}
	}
}

func (d *member) Rank() int               { return d.rank }
func (d *member) Size() int               { return d.size }
func (d *member) DeviceStats() []DevStats { return nil }

func (d *member) Send(dst int, b []byte) error { return d.put(dst, Frame{Data: b}) }

func (d *member) Sendv(dst int, hdr, payload []byte, recycle bool) error {
	return d.put(dst, Frame{Data: hdr, Payload: payload, pooledData: true, pooledPayload: recycle})
}

func (d *member) SendvLent(dst int, hdr, payload []byte, loan Loan) error {
	return d.put(dst, Frame{Data: hdr, Payload: payload, pooledData: true, loan: loan})
}

func (d *member) put(dst int, f Frame) error {
	select {
	case <-d.done:
		f.Release()
		return ErrClosed
	default:
	}
	d.out <- sentFrame{dst, f}
	return nil
}

func (d *member) Recv() (Frame, error) {
	select {
	case ev := <-d.in:
		return ev()
	case <-d.done:
		return Frame{}, ErrClosed
	}
}

func (d *member) Close() error {
	d.closeOnce.Do(func() { close(d.done) })
	return nil
}

// muxWorld is the mux at world rank 0 of one shape plus the handles the
// script drives it with. Rank 1 is the healthy bystander; peer is the
// rank the script converses with and then loses.
type muxWorld struct {
	mux  *Mux
	peer int
	// say and bystander deliver one frame from peer and from rank 1;
	// heard and heard1 return the next frame the mux sent toward each,
	// as its bytes and the frame to release.
	say, bystander func(b []byte)
	heard, heard1  func() ([]byte, Frame)
	// loop completes a send of the mux to itself: a member that routes
	// rank 0 hands the frame back as a by-reference device would.
	loop func()
	// serialises: the route to peer writes the bytes out, so a loan is
	// back when the send returns, not at the consumer's Release.
	serialises bool
	// die kills peer. reports says the death surfaces as a
	// PeerLostError; by reference it does not — sends just fail.
	die     func()
	reports bool
	// rumour has a route that does not carry peer claim it lost (no-op
	// when the shape has no such route).
	rumour func()
	// endMember makes a member device reach end-of-stream on its own;
	// nil when the shape has none.
	endMember func()
	// settle closes every other endpoint and releases whatever was
	// sent and nobody read.
	settle func()
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// homeMember scripts ranks 0 and 1 of w through member home.
func (w *muxWorld) homeMember(t *testing.T, home *member) {
	w.bystander = func(b []byte) { b[0] = 1; home.deliver(Frame{Data: b}) }
	w.heard1 = heardFrom(t, home, 1)
	w.loop = func() { home.deliver((<-home.out).f) }
	w.endMember = func() { home.Close() }
}

func heardFrom(t *testing.T, m *member, peer int) func() ([]byte, Frame) {
	return func() ([]byte, Frame) {
		t.Helper()
		select {
		case s := <-m.out:
			if s.dst != peer {
				t.Fatalf("member got a frame for rank %d, want %d", s.dst, peer)
			}
			return append(append([]byte(nil), s.f.Data...), s.f.Payload...), s.f
		case <-time.After(5 * time.Second):
			t.Fatalf("nothing was sent toward rank %d", peer)
			return nil, Frame{}
		}
	}
}

func drainSent(ms ...*member) {
	for _, m := range ms {
		for len(m.out) > 0 { // the test is the only reader
			s := <-m.out
			s.f.Release()
		}
	}
}

// A real endpoint playing a remote rank: it says by sending to rank 0
// and hears by receiving.
func sayVia(t *testing.T, from *Mux) func(b []byte) {
	return func(b []byte) {
		b[0] = byte(from.Rank())
		if err := from.Send(0, b); err != nil {
			t.Errorf("rank %d: %v", from.Rank(), err)
		}
	}
}

func heardAt(t *testing.T, at *Mux) func() ([]byte, Frame) {
	return func() ([]byte, Frame) {
		t.Helper()
		waitFor(t, fmt.Sprintf("a frame at rank %d", at.Rank()), func() bool { return len(at.inbox) > 0 })
		f, err := at.Recv()
		if err != nil {
			t.Fatal(err)
		}
		return append(append([]byte(nil), f.Data...), f.Payload...), f
	}
}

// jobWorld scripts a three-rank job of real endpoints.
func jobWorld(t *testing.T, job []*Mux) *muxWorld {
	return &muxWorld{
		mux: job[0], peer: 2,
		say: sayVia(t, job[2]), heard: heardAt(t, job[2]),
		bystander: sayVia(t, job[1]), heard1: heardAt(t, job[1]),
		loop:   func() {},
		die:    func() { job[2].Close() },
		rumour: func() {},
		settle: func() { job[1].Close(); job[2].Close() },
	}
}

// listeners opens n loopback listeners for a mesh.
func listeners(t *testing.T, n int) ([]*Listener, []string) {
	t.Helper()
	lns, addrs := make([]*Listener, n), make([]string, n)
	for r := range lns {
		ln, err := Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[r], addrs[r] = ln, ln.Addr()
	}
	return lns, addrs
}

var muxShapes = []struct {
	name  string
	build func(t *testing.T) *muxWorld
}{
	{"by reference", func(t *testing.T) *muxWorld {
		return jobWorld(t, NewShmJob(3, 0))
	}},
	{"mesh connection", func(t *testing.T) *muxWorld {
		job, err := NewLoopbackJob(3)
		if err != nil {
			t.Fatal(err)
		}
		w := jobWorld(t, job)
		w.serialises, w.reports = true, true
		return w
	}},
	{"member device", func(t *testing.T) *muxWorld {
		a := newMember(0, 3)
		w := &muxWorld{
			mux: MuxOver(a), peer: 2, reports: true,
			say:    func(b []byte) { b[0] = 2; a.deliver(Frame{Data: b}) },
			heard:  heardFrom(t, a, 2),
			die:    func() { a.lose(2) },
			rumour: func() {},
			settle: func() { drainSent(a) },
		}
		w.homeMember(t, a)
		return w
	}},
	{"joined link", func(t *testing.T) *muxWorld {
		a := newMember(0, 2)
		mux := MuxOver(a)
		near, far := net.Pipe()
		peer, err := mux.Join(near, func(b []byte, src int32) error {
			if len(b) == 0 {
				return errors.New("frame too short to stamp")
			}
			b[0] = byte(src)
			return nil
		})
		if err != nil || peer != 2 || mux.Size() != 3 {
			t.Fatalf("Join: rank %d, size %d, err %v; want rank 2 of 3", peer, mux.Size(), err)
		}
		// The far end: write with the shared writer, drain with the
		// shared read loop.
		fc := newFrameConn(far)
		got := testMailbox(64, nil)
		var cnt devCounters
		go readFrames(far, got, &cnt, nil, nil) //nolint:errcheck // ends when the pipe closes
		t.Cleanup(func() { far.Close() })
		w := &muxWorld{
			mux: mux, peer: peer, serialises: true, reports: true,
			say: func(b []byte) {
				b[0] = 0xff // the sender's own idea of its rank: must be rewritten
				if err := fc.send(Frame{Data: b}); err != nil {
					t.Errorf("far end write: %v", err)
				}
			},
			heard: func() ([]byte, Frame) {
				t.Helper()
				select {
				case f := <-got.inbox:
					return f.Data, f
				case <-time.After(5 * time.Second):
					t.Fatal("nothing arrived at the far end of the link")
					return nil, Frame{}
				}
			},
			die:    func() { far.Close() },
			rumour: func() { a.lose(peer) },
			settle: func() {
				drainSent(a)
				drainFrames(got.inbox)
			},
		}
		w.homeMember(t, a)
		return w
	}},
	{"island member + mesh", func(t *testing.T) *muxWorld {
		// Ranks 0 and 1 share a scripted island; rank 2 is a real
		// endpoint across a real mesh connection, which believes rank 1
		// covered by an island of its own so that it dials rank 0 only.
		lns, addrs := listeners(t, 3)
		lns[1].Close()
		island := newMember(0, 3)
		var far *Mux
		var farErr error
		dialled := make(chan struct{})
		go func() {
			defer close(dialled)
			far, farErr = ConnectMesh(2, []Device{nil, newMember(2, 3), nil}, addrs, lns[2])
		}()
		mux, err := ConnectMesh(0, []Device{island, island, nil}, addrs, lns[0])
		if <-dialled; err != nil || farErr != nil {
			t.Fatalf("mesh: rank 0 %v, rank 2 %v", err, farErr)
		}
		w := &muxWorld{
			mux: mux, peer: 2, serialises: true, reports: true,
			say: sayVia(t, far), heard: heardAt(t, far),
			die:    func() { far.Close() },
			rumour: func() { island.lose(2) },
			settle: func() { far.Close(); drainSent(island) },
		}
		w.homeMember(t, island)
		return w
	}},
}

type muxEvent struct {
	f   Frame
	err error
}

// receive drains w.mux.Recv on one goroutine (as an engine's progress
// loop would) until ErrClosed, which it reports by closing the channel.
func (w *muxWorld) receive() <-chan muxEvent {
	ch := make(chan muxEvent, 256)
	go func() {
		defer close(ch)
		for {
			f, err := w.mux.Recv()
			if errors.Is(err, ErrClosed) {
				return
			}
			ch <- muxEvent{f, err}
		}
	}()
	return ch
}

func nextEvent(t *testing.T, ch <-chan muxEvent) muxEvent {
	t.Helper()
	select {
	case ev, ok := <-ch:
		if !ok {
			t.Fatal("mux reached end-of-stream, want an event")
		}
		return ev
	case <-time.After(5 * time.Second):
		t.Fatal("no event from the mux")
		return muxEvent{}
	}
}

func wantFrame(t *testing.T, ch <-chan muxEvent, src, seq byte) {
	t.Helper()
	ev := nextEvent(t, ch)
	if ev.err != nil || len(ev.f.Data) < 2 || ev.f.Data[0] != src || ev.f.Data[1] != seq {
		t.Fatalf("got frame %v err %v, want {%d %d}", ev.f.Data, ev.err, src, seq)
	}
	ev.f.Release()
}

func wantLoss(t *testing.T, ch <-chan muxEvent, peer int) {
	t.Helper()
	ev := nextEvent(t, ch)
	var pl *PeerLostError
	if !errors.As(ev.err, &pl) || pl.Peer != peer {
		t.Fatalf("got frame %v err %v, want PeerLostError for rank %d", ev.f.Data, ev.err, peer)
	}
}

func wantQuiet(t *testing.T, ch <-chan muxEvent) {
	t.Helper()
	select {
	case ev, ok := <-ch:
		t.Fatalf("unexpected event: frame %v err %v open %v", ev.f.Data, ev.err, ok)
	case <-time.After(100 * time.Millisecond):
	}
}

// queued waits until n frames sit in the mux inbox, so what Recv does
// next does not depend on how far the pumps and read loops have got.
func (w *muxWorld) queued(t *testing.T, n int) {
	t.Helper()
	waitFor(t, fmt.Sprintf("%d frames in the inbox", n), func() bool { return len(w.mux.inbox) == n })
}

func TestMux(t *testing.T) {
	script := []struct {
		name string
		run  func(t *testing.T, w *muxWorld)
	}{
		{"per-pair FIFO and routing by destination", func(t *testing.T, w *muxWorld) {
			ch := w.receive()
			const n = 32
			for i := byte(0); i < n; i++ {
				w.say([]byte{0, i})
				w.bystander([]byte{0, i})
			}
			next := map[byte]byte{}
			for i := 0; i < 2*n; i++ {
				ev := nextEvent(t, ch)
				if ev.err != nil {
					t.Fatal(ev.err)
				}
				src, seq := ev.f.Data[0], ev.f.Data[1]
				if seq != next[src] {
					t.Fatalf("rank %d: frame %d arrived where %d was due", src, seq, next[src])
				}
				next[src]++
				ev.f.Release()
			}
			if next[1] != n || next[byte(w.peer)] != n {
				t.Fatalf("frames per source: %v", next)
			}
			for i := byte(0); i < 3; i++ {
				if err := w.mux.Send(w.peer, []byte{9, i}); err != nil {
					t.Fatal(err)
				}
				if err := w.mux.Sendv(1, append(GetBuf(0), 8, i), nil, false); err != nil {
					t.Fatal(err)
				}
			}
			for i := byte(0); i < 3; i++ {
				b, f := w.heard()
				if !bytes.Equal(b, []byte{9, i}) {
					t.Fatalf("peer heard %v, want {9 %d}", b, i)
				}
				f.Release()
				b, f = w.heard1()
				if !bytes.Equal(b, []byte{8, i}) {
					t.Fatalf("bystander heard %v, want {8 %d}", b, i)
				}
				f.Release()
			}
		}},
		{"loss reported once, and only by the route that carries the rank", func(t *testing.T, w *muxWorld) {
			if !w.reports {
				t.Skip("a by-reference peer's death is no report: sends to it fail")
			}
			ch := w.receive()
			w.rumour()
			w.bystander([]byte{0, 0})
			wantFrame(t, ch, 1, 0)
			wantQuiet(t, ch) // the rumour is not queued behind the frame
			if w.mux.Lost(w.peer) {
				t.Fatal("a rumour marked the peer lost")
			}
			w.die()
			w.die()
			w.rumour()
			wantLoss(t, ch, w.peer)
			wantQuiet(t, ch)
			if !w.mux.Lost(w.peer) || w.mux.Lost(1) {
				t.Fatalf("Lost(peer)=%v Lost(1)=%v", w.mux.Lost(w.peer), w.mux.Lost(1))
			}
			w.bystander([]byte{0, 1}) // the survivors are still served
			wantFrame(t, ch, 1, 1)
		}},
		{"a peer's frames come before its loss", func(t *testing.T, w *muxWorld) {
			if !w.reports {
				t.Skip("a by-reference peer's death is no report")
			}
			const n = 8
			for i := byte(0); i < n; i++ {
				w.say([]byte{0, i})
			}
			w.die()
			w.queued(t, n+1) // the report travels the inbox behind them
			ch := w.receive()
			for i := byte(0); i < n; i++ {
				wantFrame(t, ch, byte(w.peer), i)
			}
			wantLoss(t, ch, w.peer)
		}},
		{"a member device ending on its own ends the mux, after a drain", func(t *testing.T, w *muxWorld) {
			if w.endMember == nil {
				t.Skip("no member device in this shape")
			}
			w.say([]byte{0, 0})
			w.say([]byte{0, 1})
			w.queued(t, 2)
			w.endMember()
			for i := byte(0); i < 2; i++ {
				f, err := w.mux.Recv()
				if err != nil || f.Data[1] != i {
					t.Fatalf("drain %d: frame %v err %v", i, f.Data, err)
				}
				f.Release()
			}
			for i := 0; i < 2; i++ { // persistently
				if _, err := w.mux.Recv(); !errors.Is(err, ErrClosed) {
					t.Fatalf("Recv after the member ended: %v, want ErrClosed", err)
				}
			}
		}},
		{"a loan returns exactly once", func(t *testing.T, w *muxWorld) {
			ch := w.receive()
			payload := lentPayload()
			lend := func(dst int) (*countLoan, error) {
				loan := &countLoan{}
				return loan, w.mux.SendvLent(dst, append(GetBuf(0), 7, 7), payload, loan)
			}
			// To itself a rank delivers by reference, whatever carries
			// its peers: the consumer reads the lender's own bytes.
			self, err := lend(0)
			if err != nil {
				t.Fatal(err)
			}
			w.loop()
			ev := nextEvent(t, ch)
			if ev.err != nil || !ev.f.Lent() || ev.f.PayloadPooled() || &ev.f.Payload[0] != &payload[0] {
				t.Fatalf("frame to self: lent=%v pooled=%v err=%v", ev.f.Lent(), ev.f.PayloadPooled(), ev.err)
			}
			self.want(t, 0, "before the consumer's Release")
			ev.f.Release()
			ev.f.Release() // idempotent on the same Frame value
			self.want(t, 1, "after the consumer's Release")

			// To the peer: a route that serialises is done with the
			// loan when the send returns, one that delivers by
			// reference when the consumer is.
			sent, err := lend(w.peer)
			if err != nil {
				t.Fatal(err)
			}
			if w.serialises {
				sent.want(t, 1, "the bytes are written")
			}
			b, f := w.heard()
			if !bytes.Equal(b, append([]byte{7, 7}, payload...)) {
				t.Fatalf("peer heard %d bytes, want header + %d", len(b), len(payload))
			}
			if f.Lent() == w.serialises {
				t.Fatalf("frame at the peer lent=%v over a route with serialises=%v", f.Lent(), w.serialises)
			}
			if !w.serialises {
				sent.want(t, 0, "before the peer's Release")
			}
			f.Release()
			sent.want(t, 1, "peer consumed the frame")

			// Dropped: no such rank, then a peer that died.
			for _, dst := range []int{99, -1} {
				nowhere, err := lend(dst)
				if err == nil {
					t.Fatalf("lent send to rank %d succeeded", dst)
				}
				nowhere.want(t, 1, "no route")
			}
			w.die()
			if w.reports {
				wantLoss(t, ch, w.peer)
			}
			dead, _ := lend(w.peer) // an error, or sent into a member nobody reads
			w.settle()
			dead.want(t, 1, "dead peer")

			// Held by the consumer when the mux closes: Close releases
			// only what it still holds.
			held, err := lend(0)
			if err != nil {
				t.Fatal(err)
			}
			w.loop()
			for ev = nextEvent(t, ch); ev.err != nil; ev = nextEvent(t, ch) {
				// Settling closed the bystander too, which a mesh
				// reports as one more loss.
			}
			w.mux.Close()
			held.want(t, 0, "frame with the consumer across Close")
			ev.f.Release()
			held.want(t, 1, "consumer's Release")
		}},
		{"Close releases a lent frame still queued", func(t *testing.T, w *muxWorld) {
			loan := &countLoan{}
			if err := w.mux.SendvLent(0, append(GetBuf(0), 7, 7), lentPayload(), loan); err != nil {
				t.Fatal(err)
			}
			w.loop()
			w.queued(t, 1)
			loan.want(t, 0, "frame queued in the inbox")
			w.mux.Close()
			w.mux.Close()
			loan.want(t, 1, "Close with the frame still queued")
			if _, err := w.mux.Recv(); !errors.Is(err, ErrClosed) {
				t.Fatalf("Recv after Close: %v", err)
			}
			for _, dst := range []int{w.peer, 0} {
				after := &countLoan{}
				if err := w.mux.SendvLent(dst, append(GetBuf(0), 7, 7), lentPayload(), after); err == nil {
					w.settle()
				}
				after.want(t, 1, "send after Close")
			}
		}},
	}
	for _, shape := range muxShapes {
		for _, step := range script {
			t.Run(shape.name+"/"+step.name, func(t *testing.T) {
				before := runtime.NumGoroutine()
				w := shape.build(t)
				defer func() {
					w.mux.Close()
					w.die() // the far end of a link, if the step left it open
					w.settle()
					// No goroutine left: pumps, read loops, the other
					// endpoints' and the step's receiver have all returned.
					for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
						if time.Now().After(deadline) {
							buf := make([]byte, 1<<16)
							t.Fatalf("%d goroutines before, %d after Close:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
						}
						time.Sleep(time.Millisecond)
					}
				}()
				step.run(t, w)
			})
		}
	}
}

// TestLossReportTravelsBehindThePeersFrames: a reader that pushes k
// frames and then fails is seen as exactly those k frames, in order,
// then one PeerLostError — never the report first — also when the inbox
// already holds frames from another route.
func TestLossReportTravelsBehindThePeersFrames(t *testing.T) {
	iterations := 10000
	if testing.Short() {
		iterations = 500
	}
	for it := 0; it < iterations; it++ {
		k, busy := byte(it%5), it%2 == 1
		job := NewShmJob(2, 16)
		mux := job[0]
		if busy {
			for i := 0; i < 3; i++ {
				if err := job[1].Send(0, []byte{1, byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
		}
		near, far := net.Pipe()
		peer, err := mux.Join(near, func(b []byte, src int32) error { b[0] = byte(src); return nil })
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			fc := newFrameConn(far)
			for i := byte(0); i < k; i++ {
				fc.send(Frame{Data: []byte{0xff, i}}) //nolint:errcheck // the receiver counts what arrived
			}
			far.Close()
		}()
		var got, other byte
		for {
			f, err := mux.Recv()
			if err != nil {
				var pl *PeerLostError
				if !errors.As(err, &pl) || pl.Peer != peer {
					t.Fatalf("iteration %d: %v, want rank %d lost", it, err, peer)
				}
				break
			}
			switch src := f.Data[0]; {
			case src == 1:
				other++
			case int(src) != peer || f.Data[1] != got:
				t.Fatalf("iteration %d: frame %v where {%d %d} was due", it, f.Data, peer, got)
			default:
				got++
			}
			f.Release()
		}
		if got != k || (busy && other != 3) {
			t.Fatalf("iteration %d: loss reported after %d of the peer's %d frames (%d from the other route)", it, got, k, other)
		}
		if len(mux.inbox) != 0 {
			t.Fatalf("iteration %d: %d events queued behind the loss", it, len(mux.inbox))
		}
		mux.Close()
		job[1].Close()
	}
}

func TestNewMuxRejectsARouteWithHoles(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMux accepted a route table that reaches nobody at rank 1")
		}
	}()
	NewMux(0, []Device{newMember(0, 2), nil}).Close()
}

// TestMuxOverAdoptsAMux: a device that already is a mux is not pumped a
// second time.
func TestMuxOverAdoptsAMux(t *testing.T) {
	m := MuxOver(newMember(0, 1))
	defer m.Close()
	if MuxOver(m) != m {
		t.Fatal("MuxOver stacked a second mux over a mux")
	}
}

// TestMuxDeviceStats: one entry per static medium, plus "dyn" — the
// joined links' own traffic — once a link exists.
func TestMuxDeviceStats(t *testing.T) {
	mux := MuxOver(NewShmJob(1, 0)[0])
	defer mux.Close()
	names := func() (out []string) {
		for _, s := range mux.DeviceStats() {
			out = append(out, s.Name)
		}
		return out
	}
	if got := names(); len(got) != 1 || got[0] != "chan" {
		t.Fatalf("stats before any join: %v, want [chan]", got)
	}
	near, far := net.Pipe()
	defer far.Close()
	peer, err := mux.Join(near, func([]byte, int32) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	go newFrameConn(far).send(Frame{Data: []byte("ping")}) //nolint:errcheck // the Recv below is the check
	f, err := mux.Recv()
	if err != nil {
		t.Fatal(err)
	}
	f.Release()
	got := mux.DeviceStats()
	if len(got) != 2 || got[1].Name != "dyn" || got[1].FramesRecv != 1 || got[1].BytesRecv != 4 {
		t.Fatalf("stats after rank %d joined and sent 4 bytes: %+v", peer, got)
	}
}

// takeAll is an engine that takes every frame offered to it.
type takeAll struct{ took *atomic.Int32 }

func (t takeAll) Take(f Frame) bool {
	t.took.Add(1)
	f.Release()
	return true
}

// TestClosedEndpointTakesNothing: a frame sent by reference to an
// endpoint that has closed is refused with ErrClosed, though its engine
// would take it. In process, a sender learns that a peer died only from
// its send failing; a frame the dead peer's engine took would vanish
// with no error, and the sender's collective would wait on for ever.
func TestClosedEndpointTakesNothing(t *testing.T) {
	ms := NewShmJob(2, 0)
	defer ms[0].Close()
	var took atomic.Int32
	ms[1].SetTaker(takeAll{&took})
	ms[1].Close()
	if err := ms[0].Send(1, []byte{1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send to a closed endpoint = %v, want ErrClosed", err)
	}
	if n := took.Load(); n != 0 {
		t.Fatalf("the closed endpoint's engine took %d frames", n)
	}
}
