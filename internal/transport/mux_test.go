package transport

import (
	"bytes"
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

// One script, three shapes of mux. The test plays every peer: behind a
// scripted static member it feeds the member's receive stream and reads
// what was sent through it; behind a joined link it holds the far end of
// the connection. Frames are {source rank, sequence number, ...}.

// member is a scripted static member. Like the in-process devices it
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

// muxWorld is one shape of mux at world rank 0 plus the handles the
// script drives it with.
type muxWorld struct {
	mux *Mux
	// home carries ranks 0 and 1: self traffic loops back through it,
	// and rank 1 is the healthy bystander.
	home *member
	// peer is the rank the script converses with and then loses.
	peer int
	// say delivers one frame from peer; heard returns the next frame the
	// mux sent toward peer, as its bytes and the frame to release.
	say   func(b []byte)
	heard func() ([]byte, Frame)
	// die makes the member routing peer report it lost; rumour has a
	// member that does not route peer claim the same (no-op when the
	// shape has no such member).
	die, rumour func()
	// settle releases whatever the mux has sent out and nobody read.
	settle func()
}

func (w *muxWorld) bystander(b []byte) {
	b[0] = 1
	w.home.deliver(Frame{Data: b})
}

func drainSent(ms ...*member) func() {
	return func() {
		for _, m := range ms {
			for len(m.out) > 0 { // the test is the only reader
				s := <-m.out
				s.f.Release()
			}
		}
	}
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
			t.Fatal("nothing was sent toward the peer")
			return nil, Frame{}
		}
	}
}

var muxShapes = []struct {
	name  string
	build func(t *testing.T) *muxWorld
}{
	{"one static member", func(t *testing.T) *muxWorld {
		a := newMember(0, 3)
		return &muxWorld{
			mux: MuxOver(a), home: a, peer: 2,
			say:    func(b []byte) { b[0] = 2; a.deliver(Frame{Data: b}) },
			heard:  heardFrom(t, a, 2),
			die:    func() { a.lose(2) },
			rumour: func() {},
			settle: drainSent(a),
		}
	}},
	{"island + mesh", func(t *testing.T) *muxWorld {
		island, mesh := newMember(0, 4), newMember(0, 4)
		mux := NewMux(0, []Device{island, island, mesh, mesh})
		return &muxWorld{
			mux: mux, home: island, peer: 2,
			say:    func(b []byte) { b[0] = 2; mesh.deliver(Frame{Data: b}) },
			heard:  heardFrom(t, mesh, 2),
			die:    func() { mesh.lose(2) },
			rumour: func() { island.lose(2) },
			settle: drainSent(island, mesh),
		}
	}},
	{"static + one joined link", func(t *testing.T) *muxWorld {
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
		got := make(chan Frame, 64)
		var cnt devCounters
		go readFrames(far, got, nil, &cnt, nil) //nolint:errcheck // ends when the pipe closes
		t.Cleanup(func() { far.Close() })
		return &muxWorld{
			mux: mux, home: a, peer: peer,
			say: func(b []byte) {
				b[0] = 0xff // the sender's own idea of its rank: must be rewritten
				if err := fc.send(Frame{Data: b}); err != nil {
					t.Errorf("far end write: %v", err)
				}
			},
			heard: func() ([]byte, Frame) {
				t.Helper()
				select {
				case f := <-got:
					return f.Data, f
				case <-time.After(5 * time.Second):
					t.Fatal("nothing arrived at the far end of the link")
					return nil, Frame{}
				}
			},
			die:    func() { far.Close() },
			rumour: func() { a.lose(peer) },
			settle: func() {
				drainSent(a)()
				drainFrames(got)
			},
		}
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
// next does not depend on how far the pumps have got.
func (w *muxWorld) queued(t *testing.T, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); len(w.mux.inbox) != n; {
		if time.Now().After(deadline) {
			t.Fatalf("%d frames in the inbox, want %d", len(w.mux.inbox), n)
		}
		time.Sleep(time.Millisecond)
	}
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
				s := <-w.home.out
				if s.dst != 1 || !bytes.Equal(s.f.Data, []byte{8, i}) {
					t.Fatalf("bystander's member got %v for rank %d", s.f.Data, s.dst)
				}
				s.f.Release()
			}
		}},
		{"loss reported once, and only by the routing member", func(t *testing.T, w *muxWorld) {
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
			const n = 8
			for i := byte(0); i < n; i++ {
				w.say([]byte{0, i})
			}
			w.die()
			w.queued(t, n)
			ch := w.receive()
			for i := byte(0); i < n; i++ {
				wantFrame(t, ch, byte(w.peer), i)
			}
			wantLoss(t, ch, w.peer)
		}},
		{"a static member ending on its own ends the mux, after a drain", func(t *testing.T, w *muxWorld) {
			w.say([]byte{0, 0})
			w.say([]byte{0, 1})
			w.queued(t, 2)
			w.home.Close()
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
			// Delivered by reference: to self through the home member,
			// whose frame the test loops back as a chan device would.
			self, err := lend(0)
			if err != nil {
				t.Fatal(err)
			}
			w.home.deliver((<-w.home.out).f)
			ev := nextEvent(t, ch)
			if ev.err != nil || !ev.f.Lent() || &ev.f.Payload[0] != &payload[0] {
				t.Fatalf("looped-back frame: lent=%v err=%v", ev.f.Lent(), ev.err)
			}
			self.want(t, 0, "before the consumer's Release")
			ev.f.Release()
			ev.f.Release()
			self.want(t, 1, "after the consumer's Release")

			// Delivered to the peer, by reference or serialised.
			sent, err := lend(w.peer)
			if err != nil {
				t.Fatal(err)
			}
			b, f := w.heard()
			if !bytes.Equal(b, append([]byte{7, 7}, payload...)) {
				t.Fatalf("peer heard %d bytes, want header + %d", len(b), len(payload))
			}
			f.Release()
			sent.want(t, 1, "peer consumed the frame")

			// Dropped: no such rank, then a peer that died.
			nowhere, err := lend(99)
			if err == nil {
				t.Fatal("lent send to rank 99 succeeded")
			}
			nowhere.want(t, 1, "no route")
			w.die()
			wantLoss(t, ch, w.peer)
			dead, _ := lend(w.peer) // an error, or sent into a member nobody reads
			w.settle()
			dead.want(t, 1, "dead peer")

			// Held by the consumer when the mux closes: Close releases
			// only what it still holds.
			held, err := lend(0)
			if err != nil {
				t.Fatal(err)
			}
			w.home.deliver((<-w.home.out).f)
			ev = nextEvent(t, ch)
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
			w.home.deliver((<-w.home.out).f)
			w.queued(t, 1)
			loan.want(t, 0, "frame queued in the inbox")
			w.mux.Close()
			w.mux.Close()
			loan.want(t, 1, "Close with the frame still queued")
			if _, err := w.mux.Recv(); !errors.Is(err, ErrClosed) {
				t.Fatalf("Recv after Close: %v", err)
			}
			after := &countLoan{}
			if err := w.mux.SendvLent(w.peer, append(GetBuf(0), 7, 7), lentPayload(), after); err == nil {
				w.settle()
			}
			after.want(t, 1, "send after Close")
		}},
	}
	for _, shape := range muxShapes {
		for _, step := range script {
			t.Run(shape.name+"/"+step.name, func(t *testing.T) {
				before := runtime.NumGoroutine()
				w := shape.build(t)
				step.run(t, w)
				w.mux.Close()
				w.die() // the far end of a link, if the step left it open
				w.settle()
				// No goroutine left: pumps, read loops, the far end's
				// reader and the step's receiver have all returned.
				for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
					if time.Now().After(deadline) {
						buf := make([]byte, 1<<16)
						t.Fatalf("%d goroutines before, %d after Close:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
					}
					time.Sleep(time.Millisecond)
				}
			})
		}
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
