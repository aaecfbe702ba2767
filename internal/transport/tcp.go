package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"
)

// connWriterSize is the per-connection staging buffer: a length prefix,
// header and small payload coalesce into one buffered write and flush as
// a single syscall, while writes larger than the buffer stream through
// bufio's large-write bypass without an extra copy.
const connWriterSize = 16 << 10

// frameConn is one connection carrying frames behind a 4-byte
// little-endian length prefix: the one wire framing, of mesh connections
// and joined links alike. Per-pair FIFO ordering follows from TCP's
// byte-stream ordering plus the writer lock.
type frameConn struct {
	mu sync.Mutex // serializes frame writes
	c  net.Conn
	w  *bufio.Writer
}

func newFrameConn(c net.Conn) *frameConn {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true) //nolint:errcheck // latency matters more than throughput here
	}
	return &frameConn{c: c, w: bufio.NewWriterSize(c, connWriterSize)}
}

// errFrameTooLarge refuses a frame the 32-bit length prefix cannot
// describe. It is the sender's error, not the connection's: the stream
// is untouched and the peer is not lost.
var errFrameTooLarge = errors.New("transport: frame exceeds the 32-bit length prefix")

// framePrefix is the length prefix of a frame of n bytes. A truncated
// length would leave the reader parsing payload bytes as the next prefix.
func framePrefix(n int) (lp [4]byte, err error) {
	if uint64(n) > math.MaxUint32 {
		return lp, fmt.Errorf("%w (%d bytes)", errFrameTooLarge, n)
	}
	binary.LittleEndian.PutUint32(lp[:], uint32(n))
	return lp, nil
}

// send writes f as one length-prefixed frame — the gather of header and
// payload through the buffered writer, flushed before return so no
// progress logic is needed to push stragglers out — and releases it: a
// byte stream is done with the storage (pooled or lent) once the bytes
// are written or refused.
func (p *frameConn) send(f Frame) error {
	defer f.Release() // after the unlock: a loan's return may take its lender's locks
	lp, err := framePrefix(len(f.Data) + len(f.Payload))
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, err := p.w.Write(lp[:]); err != nil {
		return err
	}
	if _, err := p.w.Write(f.Data); err != nil {
		return err
	}
	if len(f.Payload) > 0 {
		if _, err := p.w.Write(f.Payload); err != nil {
			return err
		}
	}
	return p.w.Flush()
}

// connReaderSize is the per-connection read buffer, the writer's size:
// a control frame — prefix, header, small payload — costs one read, and
// a body longer than the buffer is read around it, straight into where
// it is going.
const connReaderSize = connWriterSize

// landPeek is how much of a long frame the lander is shown: the smallest
// pool class, which every frame header fits.
const landPeek = 64

// Lander is asked where a frame read off a connection should land. An
// engine that knows, from the frame's head alone, that the body belongs
// in a buffer it already holds has it read there straight off the
// socket, instead of staged in a pooled buffer and copied out. It is
// deliberately not part of Device (see Mux.SetLander): only a Mux's own
// read loops ask.
type Lander interface {
	// Land is shown head, the first bytes of a frameLen-byte frame from
	// world rank peer, before the rest has been read. To take the frame
	// it returns the number of leading bytes of head that are header,
	// the buffer the bytes after them are to be read into — what it has
	// no room for is discarded, and the frame is not delivered through
	// the mailbox — and the landing to settle once they have been. A nil
	// landing declines: the frame is staged and delivered like any
	// other. Land must not block on the network and must not keep head.
	Land(peer int, head []byte, frameLen int) (hdrLen int, dst []byte, landing Landing)
}

// Landing is one accepted frame on its way into the buffer Land named.
type Landing interface {
	// Landed is called exactly once, from the connection's read loop:
	// with nil when the buffer holds the frame's bytes, else with the
	// error that ended the stream mid-frame, in which case any prefix of
	// the buffer may have been written. Either way nothing writes the
	// buffer afterwards.
	Landed(err error)
}

// landFunc is a Lander's Land for one connection's peer.
type landFunc func(head []byte, frameLen int) (hdrLen int, dst []byte, landing Landing)

// readFrames drains a connection into mb until the stream fails
// (the error is returned: the peer is lost) or done closes (nil). A
// frame is staged whole in one pooled buffer, which the engine parses
// in place, and which goes back to the pool on every path that does not
// deliver it — unless it is longer than the read buffer and land, if
// set, takes it: then its body is read into the buffer land names and
// the frame never enters the mailbox. stamp, if set, edits the frame
// first — the head land is shown included; its error ends the stream.
func readFrames(r io.Reader, mb *mailbox, cnt *devCounters, stamp func([]byte) error, land landFunc) error {
	br := bufio.NewReaderSize(r, connReaderSize)
	var lp [4]byte
	for {
		if _, err := io.ReadFull(br, lp[:]); err != nil {
			return err
		}
		n := int(binary.LittleEndian.Uint32(lp[:]))
		stamped := false
		if land != nil && n > connReaderSize {
			// A failed Peek is left for readBody to meet again and report.
			if head, err := br.Peek(landPeek); err == nil {
				if stamp != nil {
					if err := stamp(head); err != nil {
						return err
					}
					stamped = true // in the read buffer: the edit goes where the bytes go
				}
				if hdrLen, dst, landing := land(head, n); landing != nil {
					err := readInto(br, n, hdrLen, dst)
					landing.Landed(err)
					if err != nil {
						return err
					}
					cnt.countRecv(n)
					continue
				}
			}
		}
		frame, err := readBody(br, n)
		if err == nil && stamp != nil && !stamped {
			if err = stamp(frame); err != nil {
				PutBuf(frame)
			}
		}
		if err != nil {
			return err
		}
		cnt.countRecv(len(frame))
		if !mb.put(Frame{Data: frame, pooledData: true}, nil, cnt) {
			PutBuf(frame)
			return nil
		}
	}
}

// readInto consumes an n-byte frame whose first hdrLen bytes the lander
// has already seen: the rest is read into dst, and whatever dst has no
// room for is discarded.
func readInto(br *bufio.Reader, n, hdrLen int, dst []byte) error {
	dst = dst[:min(len(dst), n-hdrLen)]
	_, err := br.Discard(hdrLen)
	if err == nil {
		_, err = io.ReadFull(br, dst)
	}
	if err == nil {
		_, err = br.Discard(n - hdrLen - len(dst))
	}
	return err
}

const (
	// trustedFrame is the largest frame whose length prefix is believed
	// before any of the body has arrived.
	trustedFrame = 64 << 20
	// frameDeposit is how much of a larger frame must arrive before the
	// rest is reserved.
	frameDeposit = 64 << 10
)

// readBody reads an n-byte frame body into one buffer of exactly that
// size: one allocation, one pass. Only a frame beyond trustedFrame pays
// a deposit first — its head is staged in a pooled buffer and copied
// over once it has really come — so a garbage prefix that nothing
// follows costs this process 64 MiB at most, not the 4 GiB it can claim.
func readBody(r io.Reader, n int) ([]byte, error) {
	head := n
	if n > trustedFrame {
		head = frameDeposit
	}
	buf := GetBuf(head)
	_, err := io.ReadFull(r, buf)
	if err == nil && head < n {
		full := GetBuf(n)
		copy(full, buf)
		PutBuf(buf)
		buf = full
		_, err = io.ReadFull(r, buf[head:])
	}
	if err != nil {
		PutBuf(buf)
		return nil, err
	}
	return buf, nil
}

const meshMagic = 0x6d706a31 // "mpj1"

// handshakeTimeout bounds how long an accepted connection may take to
// introduce itself (a variable so a test need not wait it out).
var handshakeTimeout = 5 * time.Second

// ConnectMesh builds the endpoint of one rank of a socket-mesh job — the
// paper's Distributed Memory (DM) mode, whole or in part. members[r],
// where set, is the device that already carries world rank r (the
// shared-memory island of a hybrid job); every rank it leaves uncovered
// gets a connection, except the rank itself, which it reaches by
// reference. addrs[i] is the listen address of rank i and ln this
// rank's own listener, closed before ConnectMesh returns. Rank r dials
// every uncovered lower rank and accepts from every uncovered higher
// one, identifying peers through a handshake frame, so the procedure is
// deadlock-free regardless of scheduling; both ends of a pair must agree
// on whether it is covered. The mux owns members, also when it fails.
func ConnectMesh(rank int, members []Device, addrs []string, ln net.Listener) (*Mux, error) {
	defer ln.Close() // every peer due has been accepted, or the mesh has failed
	size := len(members)
	m := newMux(rank, size, 0)
	m.adopt(members)
	fail := func(err error) (*Mux, error) {
		m.Close()
		return nil, err
	}
	if len(addrs) != size {
		return fail(fmt.Errorf("transport: %d addresses for job size %d", len(addrs), size))
	}
	t := m.table()
	if !t[rank].covered() {
		t[rank] = route{to: m, med: viaTCP}
	}
	need := 0
	for r := range t {
		switch {
		case t[r].covered():
		case r > rank:
			need++
		default:
			c, err := dialPeer(addrs[r], rank)
			if err != nil {
				return fail(fmt.Errorf("transport: rank %d dialing rank %d: %w", rank, r, err))
			}
			t[r] = route{conn: newFrameConn(c), med: viaTCP}
		}
	}
	for ; need > 0; need-- {
		c, peer, err := acceptPeer(ln)
		if err != nil {
			return fail(fmt.Errorf("transport: rank %d accepting: %w", rank, err))
		}
		if peer <= rank || peer >= size || t[peer].covered() {
			c.Close()
			return fail(fmt.Errorf("transport: rank %d got bad handshake from claimed rank %d", rank, peer))
		}
		t[peer] = route{conn: newFrameConn(c), med: viaTCP}
	}
	m.start()
	return m, nil
}

func dialPeer(addr string, myRank int) (net.Conn, error) {
	var c net.Conn
	var err error
	// The peer's listener exists before addresses are published, but
	// transient kernel-level refusals can still happen under load.
	for attempt := 0; attempt < 50; attempt++ {
		c, err = net.DialTimeout("tcp", addr, 5*time.Second)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		return nil, err
	}
	var hs [8]byte
	binary.LittleEndian.PutUint32(hs[0:], meshMagic)
	binary.LittleEndian.PutUint32(hs[4:], uint32(myRank))
	if _, err := c.Write(hs[:]); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// acceptPeer returns the next connection that introduces itself as a
// mesh peer, with the rank it claims. A dial-in that says anything
// else, or nothing within handshakeTimeout, is a stranger, not a peer:
// it is dropped and the wait goes on, so it can neither wedge nor fail
// the mesh.
func acceptPeer(ln net.Listener) (net.Conn, int, error) {
	for {
		c, err := ln.Accept()
		if err != nil {
			return nil, 0, err
		}
		var hs [8]byte
		c.SetReadDeadline(time.Now().Add(handshakeTimeout)) //nolint:errcheck // an unarmed deadline only restores the old wait
		_, err = io.ReadFull(c, hs[:])
		if err == nil && binary.LittleEndian.Uint32(hs[0:]) == meshMagic {
			c.SetReadDeadline(time.Time{}) //nolint:errcheck // a stale deadline would surface as the peer's loss
			return c, int(binary.LittleEndian.Uint32(hs[4:])), nil
		}
		c.Close()
	}
}

// NewLoopbackJob creates an n-rank DM-mode job entirely in-process over
// 127.0.0.1, for tests and benchmarks: real sockets, real wire framing,
// no separate OS processes.
func NewLoopbackJob(n int) ([]*Mux, error) {
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for j := 0; j < i; j++ {
				lns[j].Close()
			}
			return nil, err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	devs := make([]*Mux, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			devs[i], errs[i] = ConnectMesh(i, make([]Device, n), addrs, lns[i])
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		for _, d := range devs {
			if d != nil {
				d.Close()
			}
		}
		return nil, err
	}
	return devs, nil
}
