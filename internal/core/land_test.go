package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"gompi/internal/transport"
)

// The landing seam: a rendezvous DATA frame longer than a connection's
// read buffer is read off the socket into the receive's own buffer
// (Proc.Land) instead of staged and copied. These tests hold it to what
// the staged path does, byte for byte and Status for Status, and to the
// rule that makes it safe: a request handed to the read loop is in no
// table, and Landed is its only completion.

// poolSettles fails the test if, once everything registered after it
// has been cleaned up, a frame-pool buffer taken during the test is
// still out.
func poolSettles(t *testing.T) {
	t.Helper()
	base := poolOutstanding()
	t.Cleanup(func() {
		if got := poolOutstanding() - base; got != 0 {
			t.Errorf("%d pool buffers outstanding after the test", got)
		}
	})
}

// readBuf is the connection read buffer's size as the engine sees it: a
// DATA frame up to this long is staged, a longer one may land.
const readBuf = 16 << 10

// TestLandingAgreesWithStaging sends the same lent payload to the same
// receive over a loopback mesh and by reference, on both sides of the
// read buffer's size and up to 4 MiB: every form of receive must end
// with the same bytes in the same places and the same Status, and the
// counters must say which way the bytes went.
func TestLandingAgreesWithStaging(t *testing.T) {
	poolSettles(t)
	type result struct {
		st      Status
		got     []byte // what the receive holds: its buffer, or its payload
		copied  uint64
		landed  uint64
		payload bool
	}
	forms := []struct {
		name string
		// post posts the receive of a size-byte message.
		post func(p *Proc, size int) (req *Request, into []byte)
		// ragged: the message sent is not a whole number of the
		// receive's 8-byte elements.
		ragged bool
		// lands: a long frame of this form goes the landing way.
		lands bool
	}{
		{"into", func(p *Proc, size int) (*Request, []byte) {
			b := bytes.Repeat([]byte{0xee}, size+24)
			return p.IrecvInto(0, 0, 3, b, 1), b
		}, false, true},
		{"plain", func(p *Proc, size int) (*Request, []byte) {
			return p.Irecv(0, 0, 3), nil
		}, false, false},
		{"truncating", func(p *Proc, size int) (*Request, []byte) {
			b := bytes.Repeat([]byte{0xee}, size/2)
			return p.IrecvInto(0, 0, 3, b, 1), b
		}, false, false},
		{"ragged", func(p *Proc, size int) (*Request, []byte) {
			b := bytes.Repeat([]byte{0xee}, size+24)
			return p.IrecvInto(0, 0, 3, b, 8), b
		}, true, false},
	}
	sent := func(form, size int) int {
		if forms[form].ragged {
			return size - size%8 + 5
		}
		return size
	}
	run := func(t *testing.T, procs []*Proc, form int, size int) result {
		t.Helper()
		f := forms[form]
		src := pattern(sent(form, size), byte(size))
		copied, landed := pv(procs[1], "core.bytes_copied"), pv(procs[1], "core.bytes_landed")
		rreq, into := f.post(procs[1], size)
		sreq, err := procs[0].IsendLent(0, 0, 1, 3, src, ModeStandard)
		if err != nil {
			t.Fatal(err)
		}
		if st := waitStatus(t, sreq); st.Err != nil || st.Bytes != len(src) {
			t.Fatalf("lent send: %+v", st)
		}
		r := result{st: *waitStatus(t, rreq), got: into}
		if into == nil {
			r.got, r.payload = bytes.Clone(rreq.Payload), true
		}
		r.copied, r.landed = pv(procs[1], "core.bytes_copied")-copied, pv(procs[1], "core.bytes_landed")-landed
		sreq.Recycle()
		rreq.Recycle()
		return r
	}
	chanProcs := make([]*Proc, 2)
	chanProcs[0], chanProcs[1] = newPair(t, Config{})
	tcpProcs := loopbackProcs(t, 2)
	for _, size := range []int{readBuf - dataHdrLen, readBuf + 1, 64<<10 + 8, 1 << 20, 4 << 20} {
		for i, f := range forms {
			t.Run(fmt.Sprintf("%s/%d", f.name, size), func(t *testing.T) {
				want, got := run(t, chanProcs, i, size), run(t, tcpProcs, i, size)
				if got.st != want.st {
					t.Fatalf("status over tcp %+v, by reference %+v", got.st, want.st)
				}
				if !bytes.Equal(got.got, want.got) {
					t.Fatalf("the receive holds other bytes over tcp than by reference")
				}
				sent := sent(i, size)
				long := sent+dataHdrLen > readBuf
				switch {
				case f.lands && long:
					if got.landed != uint64(sent) || got.copied != 0 {
						t.Fatalf("a %d-byte frame: %d bytes landed, %d copied; want all landed", sent+dataHdrLen, got.landed, got.copied)
					}
				case got.landed != 0:
					t.Fatalf("%d bytes landed; this receive must be staged", got.landed)
				case !got.payload && got.copied != want.copied:
					t.Fatalf("%d bytes copied over tcp, %d by reference", got.copied, want.copied)
				}
			})
		}
	}
}

// rawPeer is the far end of a link joined to a one-rank engine: the
// test plays world rank 1 by hand, one frame at a time. The link is a
// net.Pipe, so a write returns only once the read loop has consumed it —
// after half a body has been written, the landing is blocked mid-body —
// and whatever the engine sends must be read, or its sender (and the
// Close that waits for it) blocks: grants reads it all and keeps the
// receive ids the CTS frames name.
type rawPeer struct {
	t      *testing.T
	p      *Proc
	conn   net.Conn
	rank   int
	grants chan uint64
}

func newRawPeer(t *testing.T) *rawPeer {
	t.Helper()
	mux := transport.NewShmJob(1, 0)[0]
	p := NewProc(mux, Config{})
	t.Cleanup(func() { p.Close() })
	return joinRawPeer(t, p, mux)
}

func joinRawPeer(t *testing.T, p *Proc, mux *transport.Mux) *rawPeer {
	t.Helper()
	near, far := net.Pipe()
	rank, err := mux.Join(near, PatchFrameSource)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { far.Close() })
	r := &rawPeer{t: t, p: p, conn: far, rank: rank, grants: make(chan uint64, 4)}
	go func() {
		var lp [4]byte
		for {
			if _, err := io.ReadFull(far, lp[:]); err != nil {
				return
			}
			frame := make([]byte, binary.LittleEndian.Uint32(lp[:]))
			if _, err := io.ReadFull(far, frame); err != nil {
				return
			}
			if f, err := parseFrame(transport.Frame{Data: frame}); err == nil && f.kind == kCts {
				r.grants <- f.recvID
			}
		}
	}()
	return r
}

// strangerRank is what the raw peer calls itself on the wire; the link's
// stamp rewrites it to the rank the engine knows the peer by.
const strangerRank = 77

// write puts the first upTo bytes of the frame hdr+body on the wire.
func (r *rawPeer) write(hdr, body []byte, upTo int) {
	r.t.Helper()
	wire := binary.LittleEndian.AppendUint32(nil, uint32(len(hdr)+len(body)))
	wire = append(append(wire, hdr...), body...)
	transport.PutBuf(hdr)
	if _, err := r.conn.Write(wire[:4+upTo]); err != nil {
		r.t.Fatalf("raw peer write: %v", err)
	}
}

// advertise sends an RTS for a size-byte message on ctx and returns the
// id the engine's grant names: the receive must already be posted.
func (r *rawPeer) advertise(ctx int32, tag, size int) (recvID uint64) {
	r.t.Helper()
	env := envelope{srcWorld: strangerRank, ctx: ctx, srcGroup: int32(r.rank), tag: int32(tag)}
	rts := buildRts(env, 42, size)
	r.write(rts, nil, len(rts))
	select {
	case recvID = <-r.grants:
	case <-time.After(10 * time.Second):
		r.t.Fatal("no grant came back")
	}
	return recvID
}

// eventually waits for cond, which another goroutine makes true.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// goroutinesSettle waits for the goroutine count to come back to base.
func goroutinesSettle(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d before the test:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLandingOverAJoinedLink: a joined link's frames carry the sender's
// own idea of its rank; the stamp runs before Land is asked, so the DATA
// frame lands as coming from the rank the grant went to.
func TestLandingOverAJoinedLink(t *testing.T) {
	poolSettles(t)
	r := newRawPeer(t)
	const size = 48 << 10
	body, into := pattern(size, 5), make([]byte, size)
	rreq := r.p.IrecvInto(0, int32(r.rank), 8, into, 1)
	recvID := r.advertise(0, 8, size)
	r.write(buildDataHdr(strangerRank, recvID), body, dataHdrLen+size)
	st := waitStatus(t, rreq)
	if st.Err != nil || st.Bytes != size || st.SourceGroup != r.rank || st.Tag != 8 || !bytes.Equal(into, body) {
		t.Fatalf("landed receive: %+v, intact=%v", st, bytes.Equal(into, body))
	}
	if landed, copied := pv(r.p, "core.bytes_landed"), pv(r.p, "core.bytes_copied"); landed != size || copied != 0 {
		t.Fatalf("%d bytes landed, %d copied; want the frame landed", landed, copied)
	}
}

// TestLandingCutMidBody: the peer writes a DATA header and half a body,
// then its connection closes. The receive completes with the peer's
// loss; nothing writes its buffer once Wait has returned (the test
// overwrites it at once, so a late writer is a reported race); the
// stream's own loss report still reaches the engine; and the read loop
// is gone.
func TestLandingCutMidBody(t *testing.T) {
	poolSettles(t)
	base := runtime.NumGoroutine()
	r := newRawPeer(t)
	const size = 256 << 10
	body, into := pattern(size, 1), make([]byte, size)
	rreq := r.p.IrecvInto(0, int32(r.rank), 8, into, 1)
	recvID := r.advertise(0, 8, size)
	r.write(buildDataHdr(strangerRank, recvID), body, dataHdrLen+size/2)
	if _, done := rreq.Test(); done {
		t.Fatal("the receive completed on half a body")
	}
	r.conn.Close()
	st := waitStatus(t, rreq)
	clear(into)
	var pl *transport.PeerLostError
	if !errors.As(st.Err, &pl) || pl.Peer != r.rank || st.SourceGroup != r.rank || st.Tag != 8 {
		t.Fatalf("receive cut mid-body: %+v, want the loss of rank %d", st, r.rank)
	}
	eventually(t, "the stream's own loss report to reach the engine", func() bool { return r.p.PeerDown(r.rank) })
	if got := pv(r.p, "core.bytes_landed"); got != 0 {
		t.Fatalf("%d bytes counted as landed for a frame that never finished", got)
	}
	r.p.Close()
	goroutinesSettle(t, base)
}

// TestLandingIsInNoTable: while the read loop is writing a receive's
// buffer, nothing but Landed may complete it — not Cancel, not a
// revocation, not the peer's loss reported by somebody else. The landing
// then finishes as if nothing had happened; and Close, which tears the
// connection down under a second blocked landing, does not return before
// that one is settled with an error.
func TestLandingIsInNoTable(t *testing.T) {
	poolSettles(t)
	r := newRawPeer(t)
	const size = 128 << 10
	body, into := pattern(size, 2), make([]byte, size)
	blocked := func(tag int) *Request {
		t.Helper()
		rreq := r.p.IrecvInto(0, int32(r.rank), int32(tag), into, 1)
		recvID := r.advertise(0, tag, size)
		r.write(buildDataHdr(strangerRank, recvID), body, dataHdrLen+size/2)
		return rreq
	}

	rreq := blocked(int(RecoveryTag) | 1) // a repair tag: posting survives the revocation below
	if r.p.Cancel(rreq) {
		t.Fatal("a landing receive was cancelled")
	}
	r.p.Revoke(0)
	if _, done := rreq.Test(); done {
		t.Fatal("revocation completed a receive the read loop is writing")
	}
	if _, err := r.conn.Write(body[size/2:]); err != nil {
		t.Fatal(err)
	}
	if st := waitStatus(t, rreq); st.Err != nil || st.Bytes != size || !bytes.Equal(into, body) {
		t.Fatalf("landing that outlived a revocation: %+v, intact=%v", st, bytes.Equal(into, body))
	}

	rreq = blocked(int(RecoveryTag) | 2)
	r.p.failPeer(&transport.PeerLostError{Peer: r.rank}) // hearsay: the link itself is fine
	if _, done := rreq.Test(); done {
		t.Fatal("a reported loss completed a receive the read loop is writing")
	}
	r.p.Close()
	st, done := rreq.Test()
	if !done || st.Err == nil {
		t.Fatalf("after Close: completed=%v status %+v, want the landing settled with an error", done, st)
	}
	clear(into) // nothing is writing it any more
}

// TestGrantedReceiveRemembersItsPeer: a granted receive on a derived
// context nobody registered a group for is failed when the rank it was
// granted to dies (its owner used to be looked up through the group
// table, found nowhere, and the receive waited for ever), and only that
// rank answers the grant: DATA or a withdrawal from anybody else is
// dropped and counted, staged or offered to Land alike.
func TestGrantedReceiveRemembersItsPeer(t *testing.T) {
	poolSettles(t)
	mux := transport.NewShmJob(1, 0)[0]
	p := NewProc(mux, Config{})
	t.Cleanup(func() { p.Close() })
	granted, other := joinRawPeer(t, p, mux), joinRawPeer(t, p, mux)
	const ctx, size = 6, 32 << 10 // no RegisterGroup for ctx
	body, into := pattern(size, 3), bytes.Repeat([]byte{0xee}, size)

	rreq := p.IrecvInto(ctx, int32(granted.rank), 1, into, 1)
	recvID := granted.advertise(ctx, 1, size)
	wd := buildWithdrawn(strangerRank, recvID)
	other.write(wd, nil, len(wd))
	other.write(buildDataHdr(strangerRank, recvID), body[:64], dataHdrLen+64) // staged
	other.write(buildDataHdr(strangerRank, recvID), body, dataHdrLen+size)    // offered to Land
	eventually(t, "a stranger's 3 answers to the grant to be counted malformed", func() bool { return p.Stats().FramesMalformed.Load() == 3 })
	if _, done := rreq.Test(); done || into[0] != 0xee {
		t.Fatalf("another rank's frames answered the grant (completed=%v)", done)
	}
	granted.conn.Close()
	st := waitStatus(t, rreq)
	var pl *transport.PeerLostError
	if !errors.As(st.Err, &pl) || pl.Peer != granted.rank {
		t.Fatalf("granted receive on an unregistered context: %+v, want the loss of rank %d", st, granted.rank)
	}
}

// TestLandingAllocatesNothing: the landing is the request itself seen
// through a pointer conversion, so the engine's end of a landed frame —
// Land, then Landed — allocates nothing. (The read loop's end is
// transport's TestReadLoopLandsWithoutAllocating.)
func TestLandingAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's bookkeeping allocates")
	}
	p0, _ := newPair(t, Config{})
	into := make([]byte, 32<<10)
	head := buildDataHdr(1, 7)
	defer transport.PutBuf(head)
	req := newRequest(p0, reqRecv)
	req.into, req.dstWorld, req.id = into, 1, 7
	allocs := testing.AllocsPerRun(200, func() {
		req.completed.Store(false)
		p0.pending[7] = req
		hdrLen, dst, l := p0.Land(1, head, dataHdrLen+len(into))
		if l == nil || hdrLen != dataHdrLen || len(dst) != len(into) {
			t.Fatal("Land declined a frame it should take")
		}
		l.Landed(nil)
	})
	if allocs != 0 {
		t.Fatalf("landing a frame allocates %.1f times in the engine, want 0", allocs)
	}
}
