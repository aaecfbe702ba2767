package transport

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
)

// mailbox is the receive half of an endpoint whose frames arrive on
// goroutines of its own (socket read loops, member pumps): the one
// inbox, the one channel of loss reports and the one Recv select.
type mailbox struct {
	inbox chan Frame
	// fail is unbuffered: a reporter waits for recv to take its report
	// (or for Close), having forwarded all its peer's frames first.
	fail chan error
	done chan struct{} // the endpoint was closed
}

func newMailbox() mailbox {
	return mailbox{inbox: make(chan Frame, DefaultInboxDepth), fail: make(chan error), done: make(chan struct{})}
}

// recv returns the next frame or loss report. Frames already in the
// inbox win over reports: a stream is forwarded in order and its
// reporter speaks only afterwards, so a peer's last frames all come
// before its loss. Once done (or ended, if set) closes, what arrived
// before is handed out, then ErrClosed, persistently.
func (b *mailbox) recv(ended <-chan struct{}) (Frame, error) {
	select {
	case f := <-b.inbox:
		return f, nil
	default:
	}
	select {
	case f := <-b.inbox:
		return f, nil
	case err := <-b.fail:
		return Frame{}, err
	case <-ended:
	case <-b.done:
	}
	select {
	case f := <-b.inbox:
		return f, nil
	default:
		return Frame{}, ErrClosed
	}
}

// report hands a peer's loss to recv — unless the endpoint is closing:
// its own shutdown tearing connections down is not the peer's death.
func (b *mailbox) report(err error) {
	select {
	case <-b.done:
		return
	default:
	}
	select {
	case b.fail <- err:
	case <-b.done:
	}
}

// sendErr classifies a failed frame write toward peer. A frame refused
// before the stream was touched, or this endpoint's own shutdown, is not
// the peer's death; any other failure of its connection is, whether or
// not the reader has noticed yet.
func (b *mailbox) sendErr(peer int, err error) error {
	if errors.Is(err, errFrameTooLarge) {
		return fmt.Errorf("transport: send to rank %d: %w", peer, err)
	}
	select {
	case <-b.done:
		return ErrClosed
	default:
		return &PeerLostError{Peer: peer, Err: err}
	}
}

// Mux is the one composite device: whatever media a rank's traffic
// travels, its engine reads one Mux.
//
// Static members are Devices fixed at construction, each carrying the
// world ranks the route table assigns it: the whole-world device of a
// chan/tcp/shm job, or the shared-memory island plus a partial socket
// mesh of a hybrid job. One pump per member forwards its receive stream
// into the inbox; merging never reorders a pair, whose frames all
// travel one member.
//
// Joined members are connections admitted after launch (Spawn, Connect,
// Accept). Each gets the next world rank past the static ones (existing
// ranks are never renumbered), speaks the tcp wire framing and is
// drained by the shared read loop straight into the same inbox.
type Mux struct {
	rank    int
	route   []Device // world rank → static member carrying it
	members []Device // distinct static members, pump order

	mu    sync.Mutex
	links []*frameConn // joined members; world rank = len(route) + index
	// lost dedupes loss reports: several members may see a peer die,
	// the engine must see exactly one PeerLostError for it.
	lost map[int]bool
	size atomic.Int64

	mailbox
	// eos closes when a static member reaches end-of-stream on its own
	// (e.g. fault injection closing the endpoint under the mux).
	eos     chan struct{}
	eosOnce sync.Once
	wg      sync.WaitGroup

	dyn devCounters // joined-link traffic, the "dyn" stats entry

	closeOnce sync.Once
	closeErr  error
}

// NewMux builds the composite endpoint of world rank rank over static
// members: route[r] is the member carrying traffic to and from world
// rank r; a rank nobody carries is a bug in the caller and panics. The
// mux owns its members and closes them on Close.
func NewMux(rank int, route []Device) *Mux {
	m := &Mux{rank: rank, route: route, lost: make(map[int]bool), mailbox: newMailbox(), eos: make(chan struct{})}
	for r, d := range route {
		if d == nil {
			panic(fmt.Sprintf("transport: mux route missing rank %d", r))
		}
		if !slices.Contains(m.members, d) {
			m.members = append(m.members, d)
		}
	}
	m.size.Store(int64(len(route)))
	for _, d := range m.members {
		m.wg.Add(1)
		go m.pump(d)
	}
	return m
}

// MuxOver returns the mux an engine should read dev through: dev itself
// when it already is one (a hybrid job's composite is not pumped a
// second time), else a mux whose single member dev carries the whole
// world.
func MuxOver(dev Device) *Mux {
	if m, ok := dev.(*Mux); ok {
		return m
	}
	route := make([]Device, dev.Size())
	for r := range route {
		route[r] = dev
	}
	return NewMux(dev.Rank(), route)
}

// Rank returns this endpoint's world rank.
func (m *Mux) Rank() int { return m.rank }

// Size returns the world size as this endpoint sees it: the static
// ranks plus every member joined so far.
func (m *Mux) Size() int { return int(m.size.Load()) }

// Join admits the peer at the far end of c as the next world rank and
// starts draining it; the mux owns c from here on. The two ends of a
// link each number the other in their own world, so stamp rewrites the
// sender-stamped source rank of every inbound frame to the returned
// rank before the frame reaches the inbox.
func (m *Mux) Join(c net.Conn, stamp func(frame []byte, src int32) error) (int, error) {
	l := newFrameConn(c)
	m.mu.Lock()
	select {
	case <-m.done:
		m.mu.Unlock()
		c.Close()
		return 0, ErrClosed
	default:
	}
	peer := len(m.route) + len(m.links)
	m.links = append(m.links, l)
	m.size.Store(int64(peer + 1))
	m.wg.Add(1)
	m.mu.Unlock()
	go func() {
		defer m.wg.Done()
		err := readFrames(c, m.inbox, m.done, &m.dyn, func(b []byte) error { return stamp(b, int32(peer)) })
		c.Close() // fail writers fast instead of filling a dead socket
		if err != nil {
			m.lose(peer, &PeerLostError{Peer: peer, Err: err})
		}
	}()
	return peer, nil
}

// Lost reports whether peer's loss has been admitted.
func (m *Mux) Lost(peer int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lost[peer]
}

// pump forwards one static member's receive stream into the inbox. The
// member stays usable for its surviving peers after a loss report;
// anything else it returns is its end of stream.
func (m *Mux) pump(d Device) {
	defer m.wg.Done()
	for {
		f, err := d.Recv()
		if err != nil {
			var pl *PeerLostError
			if errors.As(err, &pl) {
				// Only the member routing a rank speaks for it: an
				// island may share its segment with ranks reached
				// over the mesh, and a medium losing a peer it does not
				// carry must not fail that peer's healthy route.
				if uint(pl.Peer) < uint(len(m.route)) && m.route[pl.Peer] == d {
					m.lose(pl.Peer, err)
				}
				continue
			}
			m.eosOnce.Do(func() { close(m.eos) })
			return
		}
		select {
		case m.inbox <- f:
		case <-m.done:
			f.Release()
			return
		}
	}
}

// lose hands a loss report to Recv, once per peer.
func (m *Mux) lose(peer int, report error) {
	m.mu.Lock()
	dup := m.lost[peer]
	m.lost[peer] = true
	m.mu.Unlock()
	if !dup {
		m.report(report)
	}
}

// Send routes a contiguous frame by destination. Toward a joined peer
// the frame is not returned to the pool: a contiguous send carries no
// exclusivity promise.
func (m *Mux) Send(dst int, frame []byte) error {
	if uint(dst) < uint(len(m.route)) {
		return m.route[dst].Send(dst, frame)
	}
	return m.sendLink(dst, Frame{Data: frame})
}

// Sendv routes a scatter-gather frame by destination.
func (m *Mux) Sendv(dst int, hdr, payload []byte, recycle bool) error {
	if uint(dst) < uint(len(m.route)) {
		return m.route[dst].Sendv(dst, hdr, payload, recycle)
	}
	return m.sendLink(dst, Frame{Data: hdr, Payload: payload, pooledData: true, pooledPayload: recycle})
}

// SendvLent routes a lent payload like Sendv. A static member decides
// when the loan returns (a by-reference frame rides the pump, loan and
// all, up to the engine); a joined link serialises, so there it is back
// before SendvLent returns.
func (m *Mux) SendvLent(dst int, hdr, payload []byte, loan Loan) error {
	if uint(dst) < uint(len(m.route)) {
		return m.route[dst].SendvLent(dst, hdr, payload, loan)
	}
	return m.sendLink(dst, Frame{Data: hdr, Payload: payload, pooledData: true, loan: loan})
}

// sendLink writes f to the joined peer dst, releasing it on every path.
func (m *Mux) sendLink(dst int, f Frame) error {
	m.mu.Lock()
	var l *frameConn
	if i := dst - len(m.route); i >= 0 && i < len(m.links) {
		l = m.links[i]
	}
	m.mu.Unlock()
	if l == nil {
		f.Release()
		return fmt.Errorf("transport: no route to rank %d (world size %d)", dst, m.Size())
	}
	n := len(f.Data) + len(f.Payload)
	if err := l.send(f); err != nil {
		return m.sendErr(dst, err)
	}
	m.dyn.countSend(n)
	return nil
}

// Recv returns the next frame from any member, or the next admitted
// loss report. A static member ending on its own ends the mux as it
// would end the bare device: what arrived is handed out, then ErrClosed.
func (m *Mux) Recv() (Frame, error) { return m.recv(m.eos) }

// Close shuts every member down, waits for the pumps and read loops and
// releases what the inbox still holds. Blocked Recv calls return
// ErrClosed.
func (m *Mux) Close() error {
	m.closeOnce.Do(func() {
		m.mu.Lock()
		close(m.done) // under mu: Join admits no link Close will not see
		links := m.links
		m.mu.Unlock()
		for _, l := range links {
			l.c.Close()
		}
		for _, d := range m.members {
			m.closeErr = errors.Join(m.closeErr, d.Close())
		}
		m.wg.Wait()
		drainFrames(m.inbox)
	})
	return m.closeErr
}

// DeviceStats concatenates the static members' counters, one entry per
// medium, plus a "dyn" entry once any peer has joined.
func (m *Mux) DeviceStats() []DevStats {
	var out []DevStats
	for _, d := range m.members {
		out = append(out, d.DeviceStats()...)
	}
	if m.Size() > len(m.route) {
		out = append(out, m.dyn.stats("dyn", PoolStats()))
	}
	return out
}

var _ Device = (*Mux)(nil)
