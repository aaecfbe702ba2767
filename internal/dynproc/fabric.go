package dynproc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"gompi/internal/core"
	"gompi/internal/obs"
	"gompi/internal/transport"
)

// linkWriterSize matches the tcp device's per-peer staging buffer: one
// buffered write coalesces length prefix, header and small payload.
const linkWriterSize = 16 << 10

// link is one admitted dynamic peer: a single TCP connection carrying
// length-prefixed frames, exactly the tcp device's wire framing.
type link struct {
	mu   sync.Mutex // serializes frame writes
	c    net.Conn
	w    *bufio.Writer
	guid string
	dead atomic.Bool
}

func newLink(c net.Conn, guid string) *link {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return &link{c: c, w: bufio.NewWriterSize(c, linkWriterSize), guid: guid}
}

func (l *link) writeFrame(hdr, payload []byte) error {
	var lp [4]byte
	binary.LittleEndian.PutUint32(lp[:], uint32(len(hdr)+len(payload)))
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.w.Write(lp[:]); err != nil {
		return err
	}
	if _, err := l.w.Write(hdr); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := l.w.Write(payload); err != nil {
			return err
		}
	}
	return l.w.Flush()
}

// Fabric is the dynamic-process device decorator. Ranks below baseSize
// are the original world and route through the wrapped base device;
// every admitted late joiner gets the next local index and a dedicated
// socket link. One pump goroutine merges base traffic into the same
// inbox the link read loops feed, so the engine above sees a single
// Device whose Size grows.
type Fabric struct {
	base     transport.Device
	baseSize int
	guid     string

	inbox      chan transport.Frame
	fail       chan error
	done       chan struct{}
	baseClosed chan struct{} // base device reached end-of-stream on its own
	closeOnce  sync.Once
	wg         sync.WaitGroup

	mu     sync.Mutex
	ln     net.Listener
	lnAddr string
	peers  []*link // dynamic peers; world index = baseSize + slice index
	byGUID map[string]int
	epoch  int
	ports  map[string]*Port // capability key → open port
	joins  map[uint64]*pendingJoin

	size atomic.Int64

	framesSent, framesRecv atomic.Uint64
	bytesSent, bytesRecv   atomic.Uint64

	// rec is the rank's flight recorder (nil = tracing disabled); the
	// join/admit handshakes record spans on it. Set once at wiring
	// time, before any handshake can run.
	rec *obs.Recorder
	// spanSeq mints ids for overlapping join/admit spans.
	spanSeq atomic.Uint32
}

// NewFabric wraps base. The pump starts immediately: frames cost one
// extra channel hop whether or not the world ever grows, in exchange
// for a data path with no mode switch to race against.
func NewFabric(base transport.Device) *Fabric {
	f := &Fabric{
		base:       base,
		baseSize:   base.Size(),
		guid:       newGUID(),
		inbox:      make(chan transport.Frame, transport.DefaultInboxDepth),
		fail:       make(chan error, 64),
		done:       make(chan struct{}),
		baseClosed: make(chan struct{}),
	}
	f.size.Store(int64(f.baseSize))
	f.wg.Add(1)
	go f.pump()
	return f
}

// GUID returns this process endpoint's globally unique id.
func (f *Fabric) GUID() string { return f.guid }

// SetRecorder attaches the rank's flight recorder. Call before the
// first Connect/Accept; a nil recorder keeps tracing disabled.
func (f *Fabric) SetRecorder(r *obs.Recorder) { f.rec = r }

// span opens a trace span and returns its closer.
func (f *Fabric) span(kind obs.EventKind, val int64) func() {
	if f.rec == nil {
		return func() {}
	}
	id := f.spanSeq.Add(1)
	f.rec.Begin(kind, id, val)
	return func() { f.rec.End(kind, id, 0) }
}

// Epoch returns the world epoch: the number of joins admitted so far.
func (f *Fabric) Epoch() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.epoch
}

// BaseSize returns the size of the original (launch-time) world.
func (f *Fabric) BaseSize() int { return f.baseSize }

// Rank returns this endpoint's world rank. Original ranks keep their
// launch-time numbers forever; the fabric only ever appends.
func (f *Fabric) Rank() int { return f.base.Rank() }

// Size returns the current world size as this process sees it:
// baseSize plus every dynamic peer admitted so far.
func (f *Fabric) Size() int { return int(f.size.Load()) }

// Unwrap exposes the wrapped base device to stats queries and tests.
func (f *Fabric) Unwrap() transport.Device { return f.base }

func (f *Fabric) linkAt(dst int) *link {
	f.mu.Lock()
	defer f.mu.Unlock()
	i := dst - f.baseSize
	if i < 0 || i >= len(f.peers) {
		return nil
	}
	return f.peers[i]
}

// Send delivers a contiguous frame; dynamic destinations go over the
// peer link with the tcp wire framing.
func (f *Fabric) Send(dst int, frame []byte) error {
	if dst < f.baseSize {
		return f.base.Send(dst, frame)
	}
	l := f.linkAt(dst)
	if l == nil {
		return fmt.Errorf("dynproc: no link to peer %d (world size %d)", dst, f.Size())
	}
	if l.dead.Load() {
		return &transport.PeerLostError{Peer: dst}
	}
	if err := l.writeFrame(frame, nil); err != nil {
		return &transport.PeerLostError{Peer: dst, Err: err}
	}
	f.countSend(len(frame))
	return nil
}

// Sendv is the scatter-gather send toward either half of the world.
func (f *Fabric) Sendv(dst int, hdr, payload []byte, recycle bool) error {
	if dst < f.baseSize {
		return f.base.Sendv(dst, hdr, payload, recycle)
	}
	l := f.linkAt(dst)
	release := func() {
		transport.PutBuf(hdr)
		if recycle {
			transport.PutBuf(payload)
		}
	}
	if l == nil {
		release()
		return fmt.Errorf("dynproc: no link to peer %d (world size %d)", dst, f.Size())
	}
	if l.dead.Load() {
		release()
		return &transport.PeerLostError{Peer: dst}
	}
	err := l.writeFrame(hdr, payload)
	n := len(hdr) + len(payload)
	release()
	if err != nil {
		return &transport.PeerLostError{Peer: dst, Err: err}
	}
	f.countSend(n)
	return nil
}

// SendvLent forwards a lent payload: to the original world through the
// base device's own loan capability (the pump carries a by-reference
// frame, loan and all, on to the engine), and to a dynamic peer as a
// socket write, after which the loan is returned.
func (f *Fabric) SendvLent(dst int, hdr, payload []byte, loan transport.Loan) error {
	if dst < f.baseSize {
		return transport.SendLent(f.base, dst, hdr, payload, loan)
	}
	err := f.Sendv(dst, hdr, payload, false)
	loan.Returned()
	return err
}

// Recv returns the next frame from the whole world — base device or any
// dynamic link — or a PeerLostError when either half loses a peer.
func (f *Fabric) Recv() (transport.Frame, error) {
	// Frames already received win over failure reports.
	select {
	case fr := <-f.inbox:
		return fr, nil
	default:
	}
	select {
	case fr := <-f.inbox:
		return fr, nil
	case err := <-f.fail:
		return transport.Frame{}, err
	case <-f.baseClosed:
		// The base device died under us (e.g. fault injection closing
		// the endpoint): behave as it would — drain what arrived, then
		// report end-of-stream persistently.
		select {
		case fr := <-f.inbox:
			return fr, nil
		case err := <-f.fail:
			return transport.Frame{}, err
		default:
			return transport.Frame{}, transport.ErrClosed
		}
	case <-f.done:
		select {
		case fr := <-f.inbox:
			return fr, nil
		default:
			return transport.Frame{}, transport.ErrClosed
		}
	}
}

// pump forwards the base device's traffic into the fabric inbox.
// Peer-loss reports pass through and pumping continues (the base
// device stays usable for its surviving peers); any other base error is
// terminal for the base and forwarded once.
func (f *Fabric) pump() {
	defer f.wg.Done()
	for {
		fr, err := f.base.Recv()
		if err != nil {
			if errors.Is(err, transport.ErrClosed) {
				// Surface the closure to the engine: blocked and future
				// Recv calls must see ErrClosed just as they would on
				// the bare device, not hang on an idle inbox.
				close(f.baseClosed)
				return
			}
			var pl *transport.PeerLostError
			recoverable := errors.As(err, &pl)
			select {
			case f.fail <- err:
			case <-f.done:
				return
			}
			if !recoverable {
				return
			}
			continue
		}
		select {
		case f.inbox <- fr:
		case <-f.done:
			fr.Release()
			return
		}
	}
}

// readLoop drains one dynamic link. Before a frame reaches the engine
// its sender-stamped source rank — the sender's own index for itself,
// meaningless here — is rewritten to this process's index for the peer,
// so envelope matching and reply routing see a coherent local world.
func (f *Fabric) readLoop(idx int, l *link) {
	defer f.wg.Done()
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(l.c, hdr[:]); err != nil {
			f.linkLost(idx, l, err)
			return
		}
		n := binary.LittleEndian.Uint32(hdr[:])
		buf := transport.GetBuf(int(n))
		if _, err := io.ReadFull(l.c, buf); err != nil {
			transport.PutBuf(buf)
			f.linkLost(idx, l, err)
			return
		}
		if err := core.PatchFrameSource(buf, int32(idx)); err != nil {
			transport.PutBuf(buf)
			f.linkLost(idx, l, err)
			return
		}
		f.countRecv(int(n))
		select {
		case f.inbox <- transport.PooledFrame(buf, nil, true, false):
		case <-f.done:
			transport.PutBuf(buf)
			return
		}
	}
}

// linkLost marks a dynamic link dead and reports the peer once, unless
// the fabric itself is shutting down.
func (f *Fabric) linkLost(idx int, l *link, err error) {
	if l.dead.Swap(true) {
		return
	}
	l.c.Close()
	select {
	case <-f.done:
		return
	default:
	}
	select {
	case f.fail <- &transport.PeerLostError{Peer: idx, Err: err}:
	case <-f.done:
	}
}

// EnsureListener starts the rendezvous listener on first use and
// returns its address. One listener serves every port and join of this
// process for the life of the fabric.
func (f *Fabric) EnsureListener() (string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	select {
	case <-f.done:
		return "", transport.ErrClosed
	default:
	}
	if f.ln != nil {
		return f.lnAddr, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("dynproc: rendezvous listener: %w", err)
	}
	f.ln = ln
	f.lnAddr = ln.Addr().String()
	f.wg.Add(1)
	go f.acceptLoop(ln)
	return f.lnAddr, nil
}

// Close tears the fabric down: rendezvous listener, open ports, parked
// joins, every dynamic link, then the base device. Blocked Recv calls
// return ErrClosed.
func (f *Fabric) Close() error {
	f.closeOnce.Do(func() {
		close(f.done)
		f.mu.Lock()
		ln := f.ln
		peers := append([]*link(nil), f.peers...)
		ports := f.ports
		joins := f.joins
		f.ports = nil
		f.joins = nil
		f.mu.Unlock()
		if ln != nil {
			ln.Close()
		}
		for _, p := range ports {
			p.drain("world shut down")
		}
		for _, pj := range joins {
			pj.closeAll()
		}
		for _, l := range peers {
			l.dead.Store(true)
			l.c.Close()
		}
		f.base.Close()
		f.wg.Wait()
	})
	return nil
}

func (f *Fabric) countSend(n int) {
	f.framesSent.Add(1)
	f.bytesSent.Add(uint64(n))
}

func (f *Fabric) countRecv(n int) {
	f.framesRecv.Add(1)
	f.bytesRecv.Add(uint64(n))
}

// DeviceStats reports the base device's media plus, once any dynamic
// traffic or peer exists, a "dyn" entry for the late-joiner links.
func (f *Fabric) DeviceStats() []transport.DevStats {
	out := transport.DeviceStatsOf(f.base)
	f.mu.Lock()
	active := len(f.peers) > 0
	f.mu.Unlock()
	if active || f.framesSent.Load() > 0 || f.framesRecv.Load() > 0 {
		out = append(out, transport.DevStats{
			Name:       "dyn",
			FramesSent: f.framesSent.Load(),
			FramesRecv: f.framesRecv.Load(),
			BytesSent:  f.bytesSent.Load(),
			BytesRecv:  f.bytesRecv.Load(),
			Pool:       transport.PoolStats(),
		})
	}
	return out
}

var (
	_ transport.Device        = (*Fabric)(nil)
	_ transport.Lender        = (*Fabric)(nil)
	_ transport.StatsReporter = (*Fabric)(nil)
	_ transport.Unwrapper     = (*Fabric)(nil)
)
