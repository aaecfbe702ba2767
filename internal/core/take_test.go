package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"

	"gompi/internal/transport"
)

// hold stops p's mailbox from waking anybody: a frame put in it stays
// queued until release, which makes the progress goroutine listen again.
// Nobody may be polling p meanwhile.
func hold(p *Proc) (release func()) {
	p.mu.Lock()
	p.mux.Listen(transport.NewBell())
	p.mu.Unlock()
	return func() {
		p.mu.Lock()
		p.mux.Listen(p.idleBell)
		p.mu.Unlock()
	}
}

// TestTakenFramesKeepPairOrder: rank 0 receives with AnySource from
// ranks 1 and 2 of one job. Rank 2's frames go through rank 0's mailbox,
// which rank 0 holds for a while, so rank 1's sends meet it occupied
// (queued: all of the first third, some behind a frame of rank 1's own
// that went through the mailbox too), draining (either way) and empty
// (taken: all of the last third). Whichever way a frame went, each
// sender's messages are received in the order it sent them.
func TestTakenFramesKeepPairOrder(t *testing.T) {
	const k = 64
	var ps [3]*Proc
	for i, d := range transport.NewShmJob(3, 0) {
		ps[i] = NewProc(d, Config{})
		defer ps[i].Close()
	}
	p0, p1, p2 := ps[0], ps[1], ps[2]
	var sent [3]int
	body := func(src int) []byte {
		b := make([]byte, 8)
		binary.LittleEndian.PutUint32(b, uint32(src))
		binary.LittleEndian.PutUint32(b[4:], uint32(sent[src]))
		sent[src]++
		return b
	}
	sends := 0 // rank 1's through Send, which alone may be taken
	send1 := func(n int) {
		sends += n
		for range n {
			if err := p1.Send(0, 1, 0, 7, body(1), ModeStandard, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	queue := func(p *Proc) { // never taken: it enters the mailbox like any frame that finds it occupied
		src := int32(p.Rank())
		env := envelope{srcWorld: src, srcGroup: src, tag: 9}
		if !p.mux.TrySendv(0, buildEagerHdr(false, env, 0), body(int(src)), false, nil) {
			t.Fatal("rank 0's mailbox refused a frame")
		}
	}

	var recvs []*Request
	post := func(n int) {
		for range n {
			recvs = append(recvs, p0.Irecv(0, AnySource, AnyTag))
		}
	}
	post(k)
	release := hold(p0)
	for p0.mux.Empty() { // the progress goroutine may take what reaches it before it parks
		queue(p2)
		time.Sleep(time.Millisecond)
	}
	for i := range k {
		if i%8 == 0 {
			queue(p1)
			queue(p2)
		}
		send1(1)
	}
	release()
	send1(k)
	eventually(t, "rank 0's mailbox draining", p0.mux.Empty)
	send1(k)
	queue(p2)
	post(sent[1] + sent[2] - k)

	var next [3]uint32
	for i, r := range recvs {
		st := waitStatus(t, r)
		src := binary.LittleEndian.Uint32(r.Payload)
		seq := binary.LittleEndian.Uint32(r.Payload[4:])
		if st.Err != nil || st.SourceGroup != int(src) || seq != next[src] {
			t.Fatalf("receive %d: %+v carrying rank %d's #%d; want rank %d's #%d next", i, st, src, seq, src, next[src])
		}
		next[src]++
		r.Recycle()
	}
	taken := int(pv(p0, "core.frames_taken"))
	t.Logf("rank 1: %d frames taken, %d queued; rank 2: %d queued", taken, sent[1]-taken, sent[2])
	if taken < k || taken > 2*k {
		t.Errorf("%d of rank 1's %d sends taken, want between %d and %d", taken, sends, k, 2*k)
	}
	if n := int(pv(p0, "transport.chan.frames_recv")); n != sent[1]+sent[2] {
		t.Errorf("transport.chan.frames_recv = %d, want every frame counted, %d", n, sent[1]+sent[2])
	}
}

// TestProbeWakesOnTakenFrame: a caller parked in Probe, or in an Await
// on a predicate, holding the progress role, is woken by an arrival that
// its sender ran through the engine: the frame never enters the mailbox
// whose bell the caller parks on, and it completes no request.
func TestProbeWakesOnTakenFrame(t *testing.T) {
	for _, tc := range []struct {
		name string
		wait func(p *Proc) error
	}{
		{"Probe", func(p *Proc) error {
			st, err := p.Probe(0, AnySource, AnyTag)
			if err == nil && (st.SourceGroup != 1 || st.Tag != 5 || st.Bytes != 3) {
				err = fmt.Errorf("probed %+v", st)
			}
			return err
		}},
		{"Await", func(p *Proc) error {
			p.Await(func() bool { return len(p.arrived) > 0 })
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p0, p1 := newPair(t, Config{})
			done := make(chan error, 1)
			go func() { done <- tc.wait(p0) }()
			eventually(t, "the waiter parking with the progress role", func() bool {
				p0.mu.Lock()
				defer p0.mu.Unlock()
				return p0.pollParked && p0.pollFor == nil
			})
			if err := p1.Send(0, 1, 0, 5, []byte("abc"), ModeStandard, false); err != nil {
				t.Fatal(err)
			}
			if n := pv(p0, "core.frames_taken"); n != 1 {
				t.Fatalf("core.frames_taken = %d, want the frame taken by its sender", n)
			}
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s never saw the frame its sender took", tc.name)
			}
		})
	}
}

// TestSendParity: the blocking Send, which builds no request for an
// eager standard send, fails exactly as Isend and Wait do, eager,
// synchronous or rendezvous, for each thing that bars a send.
func TestSendParity(t *testing.T) {
	injected := errors.New("injected endpoint death")
	class := func(err error) string {
		var pl *transport.PeerLostError
		switch {
		case err == nil:
			return "nil"
		case errors.Is(err, injected):
			return "fatal"
		case errors.Is(err, ErrCommRevoked):
			return "revoked"
		case errors.As(err, &pl):
			return "lost"
		case errors.Is(err, transport.ErrClosed):
			return "closed"
		}
		return "other: " + err.Error()
	}
	const ctx = 2 // a pair of its own, so revoking it leaves the world's alone
	for _, tc := range []struct {
		name, want string
		bar        func(p *Proc)
	}{
		{"fatal endpoint", "fatal", func(p *Proc) { p.failAll(injected) }},
		{"revoked context", "revoked", func(p *Proc) { p.Revoke(ctx) }},
		{"lost peer", "lost", func(p *Proc) { p.failPeer(&transport.PeerLostError{Peer: 1}) }},
		{"closed engine", "closed", func(p *Proc) { p.Close() }},
	} {
		for _, send := range []struct {
			name string
			size int
			mode Mode
		}{
			{"eager", 8, ModeStandard},
			{"ready", 8, ModeReady},
			{"sync", 8, ModeSync},
			{"rendezvous", 256, ModeStandard},
		} {
			t.Run(tc.name+"/"+send.name, func(t *testing.T) {
				p0, _ := newPair(t, Config{EagerLimit: 64})
				tc.bar(p0)
				serr := p0.Send(ctx, 0, 1, 3, make([]byte, send.size), send.mode, false)
				req, ierr := p0.Isend(ctx, 0, 1, 3, make([]byte, send.size), send.mode, false)
				if ierr == nil {
					ierr = waitStatus(t, req).Err
				}
				if got, want := class(serr), class(ierr); got != tc.want || want != tc.want {
					t.Fatalf("Send failed with %v (%s), Isend+Wait with %v (%s); want %s", serr, got, ierr, want, tc.want)
				}
			})
		}
	}
}
