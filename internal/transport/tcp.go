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

// TCPDevice is one endpoint of a socket-mesh job: the paper's Distributed
// Memory (DM) mode. Every pair of ranks shares one TCP connection
// carrying length-prefixed frames; per-pair FIFO ordering follows from
// TCP's byte-stream ordering plus a per-connection writer lock.
type TCPDevice struct {
	rank, size int
	peers      []*frameConn // indexed by rank; nil at own rank
	ln         net.Listener
	ownsLn     bool

	mailbox
	closeOnce sync.Once

	devCounters
}

// connWriterSize is the per-connection staging buffer: a length prefix,
// header and small payload coalesce into one buffered write and flush as
// a single syscall, while writes larger than the buffer stream through
// bufio's large-write bypass without an extra copy.
const connWriterSize = 16 << 10

// frameConn is one connection carrying frames behind a 4-byte
// little-endian length prefix: the one wire framing, shared by mesh
// connections (TCPDevice) and a Mux's joined links.
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

// readFrames drains a connection into inbox until the stream fails
// (the error is returned: the peer is lost) or done closes (nil). Each
// frame is staged whole in one pooled buffer, which the engine parses
// in place, and which goes back to the pool on every path that does not
// deliver it. stamp, if set, edits the frame first; its error ends the
// stream.
func readFrames(r io.Reader, inbox chan<- Frame, done <-chan struct{}, cnt *devCounters, stamp func([]byte) error) error {
	var lp [4]byte
	for {
		if _, err := io.ReadFull(r, lp[:]); err != nil {
			return err
		}
		frame, err := readBody(r, int(binary.LittleEndian.Uint32(lp[:])))
		if err == nil && stamp != nil {
			if err = stamp(frame); err != nil {
				PutBuf(frame)
			}
		}
		if err != nil {
			return err
		}
		cnt.countRecv(len(frame))
		select {
		case inbox <- Frame{Data: frame, pooledData: true}:
		case <-done:
			PutBuf(frame)
			return nil
		}
	}
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

// ConnectMesh builds the full connection mesh for one rank of a size-rank
// job. addrs[i] is the listen address of rank i's listener; ln is this
// rank's own listener (retained and closed by the device if ownsListener
// is true). Rank r dials every lower rank and accepts from every higher
// rank, identifying peers through a handshake frame, so the procedure is
// deadlock-free regardless of scheduling.
func ConnectMesh(rank, size int, addrs []string, ln net.Listener, ownsListener bool) (*TCPDevice, error) {
	return ConnectPartialMesh(rank, size, addrs, ln, ownsListener, nil)
}

// ConnectPartialMesh is ConnectMesh restricted to a peer subset: ranks
// with skip[r] set get no connection (a hybrid job reaches them through
// another medium). A nil skip connects everyone. Sends toward a skipped
// rank fail with ErrClosed.
func ConnectPartialMesh(rank, size int, addrs []string, ln net.Listener, ownsListener bool, skip []bool) (*TCPDevice, error) {
	if len(addrs) != size {
		return nil, fmt.Errorf("transport: %d addresses for job size %d", len(addrs), size)
	}
	skipped := func(r int) bool { return skip != nil && r < len(skip) && skip[r] }
	d := &TCPDevice{
		rank:    rank,
		size:    size,
		peers:   make([]*frameConn, size),
		ln:      ln,
		ownsLn:  ownsListener,
		mailbox: newMailbox(),
	}
	// Dial lower ranks.
	for j := 0; j < rank; j++ {
		if skipped(j) {
			continue
		}
		c, err := dialPeer(addrs[j], rank)
		if err != nil {
			d.Close()
			return nil, fmt.Errorf("transport: rank %d dialing rank %d: %w", rank, j, err)
		}
		d.peers[j] = newFrameConn(c)
	}
	// Accept higher ranks.
	need := 0
	for r := rank + 1; r < size; r++ {
		if !skipped(r) {
			need++
		}
	}
	for ; need > 0; need-- {
		c, peer, err := acceptPeer(ln)
		if err != nil {
			d.Close()
			return nil, fmt.Errorf("transport: rank %d accepting: %w", rank, err)
		}
		if peer <= rank || peer >= size || skipped(peer) || d.peers[peer] != nil {
			c.Close()
			d.Close()
			return nil, fmt.Errorf("transport: rank %d got bad handshake from claimed rank %d", rank, peer)
		}
		d.peers[peer] = newFrameConn(c)
	}
	for r, p := range d.peers {
		if p != nil {
			go d.readLoop(r, p.c)
		}
	}
	return d, nil
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

func acceptPeer(ln net.Listener) (net.Conn, int, error) {
	c, err := ln.Accept()
	if err != nil {
		return nil, 0, err
	}
	var hs [8]byte
	if _, err := io.ReadFull(c, hs[:]); err != nil {
		c.Close()
		return nil, 0, err
	}
	if binary.LittleEndian.Uint32(hs[0:]) != meshMagic {
		c.Close()
		return nil, 0, fmt.Errorf("bad mesh handshake magic")
	}
	return c, int(binary.LittleEndian.Uint32(hs[4:])), nil
}

// NewLoopbackJob creates an n-rank DM-mode job entirely in-process over
// 127.0.0.1, for tests and benchmarks: real sockets, real wire framing,
// no separate OS processes.
func NewLoopbackJob(n int) ([]*TCPDevice, error) {
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
	devs := make([]*TCPDevice, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			devs[i], errs[i] = ConnectMesh(i, n, addrs, lns[i], true)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, d := range devs {
				if d != nil {
					d.Close()
				}
			}
			return nil, err
		}
	}
	return devs, nil
}

// Rank returns this endpoint's world rank.
func (d *TCPDevice) Rank() int { return d.rank }

// Size returns the number of ranks in the job.
func (d *TCPDevice) Size() int { return d.size }

// Send writes frame to rank dst over its mesh connection. The frame is
// not returned to the frame pool: a legacy contiguous send carries no
// exclusivity promise.
func (d *TCPDevice) Send(dst int, frame []byte) error {
	return d.sendFrame(dst, Frame{Data: frame})
}

// Sendv writes the (hdr, payload) gather to rank dst without assembling
// a contiguous frame; both slices are recycled into the frame pool once
// the bytes are on the wire (the payload only when the sender vouched
// for exclusive ownership).
func (d *TCPDevice) Sendv(dst int, hdr, payload []byte, recycle bool) error {
	return d.sendFrame(dst, Frame{Data: hdr, Payload: payload, pooledData: true, pooledPayload: recycle})
}

// SendvLent writes a lent payload straight from the caller's memory.
// The loan is returned as soon as the bytes are on the wire — before
// SendvLent returns — except on self-delivery, which is by reference:
// there it rides the frame to the consumer's Release.
func (d *TCPDevice) SendvLent(dst int, hdr, payload []byte, loan Loan) error {
	return d.sendFrame(dst, Frame{Data: hdr, Payload: payload, pooledData: true, loan: loan})
}

// sendFrame ships the gather f describes. The device is done with f's
// storage on every path but a successful self-delivery, so Release —
// pool return for owned buffers, loan return for a lent payload — is
// the single exit.
func (d *TCPDevice) sendFrame(dst int, f Frame) error {
	if err := checkDst(dst, d.size); err != nil {
		f.Release()
		return err
	}
	if dst == d.rank {
		return d.selfDeliver(f)
	}
	p := d.peers[dst]
	if p == nil {
		f.Release()
		return ErrClosed
	}
	n := len(f.Data) + len(f.Payload)
	if err := p.send(f); err != nil {
		return d.sendErr(dst, err)
	}
	d.countSend(n)
	return nil
}

// selfDeliver enqueues f on the local inbox, releasing it if the device
// is already closed and nobody will consume it.
func (d *TCPDevice) selfDeliver(f Frame) error {
	n := len(f.Data) + len(f.Payload)
	select {
	case d.inbox <- f:
		d.countSend(n)
		d.countRecv(n)
		if f.loan != nil {
			releaseIfClosed(d.inbox, d.done)
		}
		return nil
	case <-d.done:
		f.Release()
		return ErrClosed
	}
}

// Recv returns the next frame addressed to this rank, or a
// PeerLostError when a mesh connection died mid-stream: receives
// pending on that peer then fail with an MPI error class instead of
// hanging, and the device stays usable for the surviving peers.
func (d *TCPDevice) Recv() (Frame, error) { return d.recv(nil) }

func (d *TCPDevice) readLoop(peer int, c net.Conn) {
	if err := readFrames(c, d.inbox, d.done, &d.devCounters, nil); err != nil {
		d.report(&PeerLostError{Peer: peer, Err: err})
	}
}

// Close tears down the mesh endpoint: the listener (if owned), all peer
// connections, and any blocked Recv calls.
func (d *TCPDevice) Close() error {
	d.closeOnce.Do(func() {
		close(d.done)
		if d.ownsLn && d.ln != nil {
			d.ln.Close()
		}
		for _, p := range d.peers {
			if p != nil && p.c != nil {
				p.c.Close()
			}
		}
	})
	return nil
}

// DeviceStats reports this endpoint's traffic; its payload buffers come
// from the process-private pool.
func (d *TCPDevice) DeviceStats() []DevStats {
	return []DevStats{d.devCounters.stats("tcp", PoolStats())}
}

var _ Device = (*TCPDevice)(nil)
