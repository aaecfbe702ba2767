package transport

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
)

// DefaultInboxDepth is the per-rank flow-control window, in frames.
const DefaultInboxDepth = 1024

// medium names the counters a frame moves when it travels a route of
// the mux's own: one DeviceStats entry each.
type medium uint8

const (
	viaChan medium = iota // by reference, within the address space
	viaTCP                // a mesh connection; a meshed rank's route to itself
	viaDyn                // a link joined after launch
	nMedia
)

var mediumNames = [nMedia]string{"chan", "tcp", "dyn"}

// route says how one world rank is reached; exactly one of to, conn and
// dev is set.
type route struct {
	// to is the peer's endpoint in this address space: frames are
	// enqueued on its mailbox by reference, loan and all.
	to *Mux
	// conn carries length-prefixed frames to the peer; the frames it
	// brings are read straight into the mailbox.
	conn *frameConn
	// dev is a member device — another medium's endpoint, pumped into
	// the mailbox. It keeps its own counters.
	dev Device
	// med is whose counters a frame over to or conn moves, on both ends.
	med medium
}

func (r route) covered() bool { return r.to != nil || r.conn != nil || r.dev != nil }

// Mux is the one endpoint type: it owns the one mailbox of a rank —
// whatever media the rank's traffic travels, its engine reads this
// inbox — and a route table saying how each world rank is reached.
// Per-pair FIFO order is each route's own: a pair's frames all travel
// one route, and merging routes into one channel never reorders them.
//
// A peer's loss travels through the inbox too, as a marked frame behind
// the last frame the peer's route delivered, so Recv is one receive and
// a peer's frames always come before its loss.
type Mux struct {
	rank int
	mailbox
	own *Bell // what Recv parks on

	// routes is the one table, indexed by world rank. Entries made at
	// launch never change; Join publishes a longer copy, so every send
	// reads the table without a lock and existing ranks are never
	// renumbered.
	routes  atomic.Pointer[[]route]
	members []Device // the distinct member devices, in pump order

	mu     sync.Mutex // guards closed, lost and the growth of routes
	closed bool       // done is closed
	// lost dedupes loss reports: several routes may see a peer die,
	// the engine must see exactly one PeerLostError for it.
	lost map[int]bool

	wg  sync.WaitGroup // read loops and pumps
	cnt [nMedia]devCounters
	// lander, once set, is offered every long frame a connection brings.
	lander atomic.Pointer[Lander]
	// taker, once set, is offered every frame a sender in this address
	// space delivers by reference without a loan.
	taker atomic.Pointer[Taker]
	// job is what the endpoints of one in-process job share (NewShmJob);
	// nil for every other endpoint.
	job *Job

	closeOnce sync.Once
	closeErr  error
}

// newMux makes the endpoint of world rank rank in a size-rank world,
// with no rank reachable yet. It is the one place a mailbox is made.
func newMux(rank, size, depth int) *Mux {
	if depth <= 0 {
		depth = DefaultInboxDepth
	}
	m := &Mux{rank: rank, own: NewBell(), lost: make(map[int]bool)}
	m.inbox, m.done = make(chan Frame, depth), make(chan struct{})
	m.bell.Store(m.own) // until a consumer listens
	table := make([]route, size)
	m.routes.Store(&table)
	return m
}

func (m *Mux) table() []route { return *m.routes.Load() }

// routeTo returns dst's route; the zero route, which covers nothing,
// for a rank outside the table.
func (m *Mux) routeTo(dst int) route {
	if t := m.table(); uint(dst) < uint(len(t)) {
		return t[dst]
	}
	return route{}
}

// NewShmJob creates an n-rank in-process job — the paper's SM mode —
// and returns its endpoints: every rank reaches every rank, itself
// included, by reference. Channel semantics give exactly the ordering a
// device must provide, and the per-rank progress engine drains the
// inbox continuously, so senders only block transiently on flow
// control. depth is the per-rank inbox capacity in frames; depth <= 0
// selects DefaultInboxDepth. The endpoints share one Job.
func NewShmJob(n, depth int) []*Mux {
	job := make([]*Mux, n)
	shared := &Job{claimed: make([]bool, n), left: n, shared: make(map[any]*jobShare)}
	for i := range job {
		job[i] = newMux(i, n, depth)
		job[i].job = shared
	}
	for _, m := range job {
		for r, to := range job {
			m.table()[r] = route{to: to, med: viaChan}
		}
	}
	return job
}

// NewMux builds the endpoint of world rank rank over member devices:
// members[r] is the device carrying traffic to and from world rank r; a
// rank nobody carries is a bug in the caller and panics. The mux owns
// its members and closes them on Close.
func NewMux(rank int, members []Device) *Mux {
	if r := slices.Index(members, nil); r >= 0 {
		panic(fmt.Sprintf("transport: mux route missing rank %d", r))
	}
	m := newMux(rank, len(members), 0)
	m.adopt(members)
	m.start()
	return m
}

// adopt routes every rank members names a device for through it.
func (m *Mux) adopt(members []Device) {
	for r, d := range members {
		if d == nil {
			continue
		}
		m.table()[r] = route{dev: d}
		if !slices.Contains(m.members, d) {
			m.members = append(m.members, d)
		}
	}
}

// start begins draining what the finished launch-time table names: one
// read loop per connection, one pump per member device. By-reference
// routes need neither.
func (m *Mux) start() {
	for peer, r := range m.table() {
		if r.conn != nil {
			m.wg.Add(1)
			go m.serve(peer, r, nil)
		}
	}
	for _, d := range m.members {
		m.wg.Add(1)
		go m.pump(d)
	}
}

// MuxOver returns the mux an engine should read dev through: dev itself
// when it already is one (a chan, tcp or hybrid job's endpoint), else a
// mux whose single member dev — a segment device, or a decorated one —
// carries the whole world.
func MuxOver(dev Device) *Mux {
	if m, ok := dev.(*Mux); ok {
		return m
	}
	members := make([]Device, dev.Size())
	for r := range members {
		members[r] = dev
	}
	return NewMux(dev.Rank(), members)
}

// Rank returns this endpoint's world rank.
func (m *Mux) Rank() int { return m.rank }

// Size returns the world size as this endpoint sees it: the launch-time
// ranks plus every peer joined so far.
func (m *Mux) Size() int { return len(m.table()) }

// Join admits the peer at the far end of c as the next world rank and
// starts draining it; the mux owns c from here on. The two ends of a
// link each number the other in their own world, so stamp rewrites the
// sender-stamped source rank of every inbound frame to the returned
// rank before the frame reaches the inbox.
func (m *Mux) Join(c net.Conn, stamp func(frame []byte, src int32) error) (int, error) {
	r := route{conn: newFrameConn(c), med: viaDyn}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		c.Close()
		return 0, ErrClosed
	}
	old := m.table()
	peer := len(old)
	grown := append(old[:peer:peer], r)
	m.routes.Store(&grown)
	m.wg.Add(1)
	m.mu.Unlock()
	go m.serve(peer, r, func(b []byte) error { return stamp(b, int32(peer)) })
	return peer, nil
}

// SetLander names the engine that says where long frames read off this
// endpoint's connections land (see Lander). The read loops are already
// running: frames they took before were staged, which is always right.
// Only connections ask — a member device, decorated or not, pumps staged
// frames — which is why this is a method of the mux and not of Device.
func (m *Mux) SetLander(l Lander) { m.lander.Store(&l) }

// Taker is the engine of an endpoint that may take a frame from the
// producer delivering it by reference, before it reaches the mailbox.
type Taker interface {
	// Take runs f through the engine on the producer's goroutine and
	// reports true, owning f from then on; false declines, f still the
	// producer's, and the frame goes through the mailbox. It must
	// decline while the mailbox holds anything (Empty), so that no frame
	// overtakes one queued before it.
	Take(f Frame) bool
}

// SetTaker names the engine that may take frames delivered to this
// endpoint by reference (see Taker); only an engine that reads the
// endpoint itself, undecorated, sets one.
func (m *Mux) SetTaker(t Taker) { m.taker.Store(&t) }

// serve reads peer's connection into the inbox until the stream fails,
// which is the peer's loss, or the endpoint shuts down.
func (m *Mux) serve(peer int, r route, stamp func([]byte) error) {
	defer m.wg.Done()
	land := func(head []byte, frameLen int) (int, []byte, Landing) {
		if l := m.lander.Load(); l != nil {
			return (*l).Land(peer, head, frameLen)
		}
		return 0, nil, nil
	}
	err := readFrames(r.conn.c, &m.mailbox, &m.cnt[r.med], stamp, land)
	r.conn.c.Close() // fail writers fast instead of filling a dead socket
	if err != nil {
		m.lose(&PeerLostError{Peer: peer, Err: err})
	}
}

// pump forwards one member device's receive stream into the inbox. The
// member stays usable for its surviving peers after a loss report;
// anything else it returns is its end of stream, which ends the
// endpoint as it would end the bare device: Recv hands out what
// arrived, then ErrClosed.
func (m *Mux) pump(d Device) {
	defer m.wg.Done()
	for {
		f, err := d.Recv()
		var pl *PeerLostError
		switch {
		case err == nil:
			if !m.put(f, nil, nil) {
				f.Release()
				return
			}
		case errors.As(err, &pl):
			// Only the route carrying a rank speaks for it: an island
			// may share its segment with ranks reached over the mesh,
			// and a medium losing a peer it does not carry must not
			// fail that peer's healthy route.
			if t := m.table(); uint(pl.Peer) < uint(len(t)) && t[pl.Peer].dev == d {
				m.lose(pl)
			}
		default:
			m.shut()
			return
		}
	}
}

// lose queues a peer's loss behind whatever its route delivered, once
// per peer — and never for a closed endpoint: its own shutdown tearing
// connections down is not the peer's death.
func (m *Mux) lose(pl *PeerLostError) {
	m.mu.Lock()
	skip := m.closed || m.lost[pl.Peer]
	m.lost[pl.Peer] = true
	m.mu.Unlock()
	if skip {
		return
	}
	m.put(Frame{loan: lossReport{pl}}, nil, nil)
}

// Lost reports whether peer's loss has been admitted.
func (m *Mux) Lost(peer int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lost[peer]
}

// Send routes a contiguous frame by destination. It is not returned to
// the pool once written to a connection: a contiguous send carries no
// exclusivity promise.
func (m *Mux) Send(dst int, frame []byte) error {
	return m.send(dst, Frame{Data: frame})
}

// Sendv routes a scatter-gather frame by destination. By reference the
// receiver reads the sender's buffers directly — no copy or contiguous
// assembly anywhere on the path — and recycles them at its Release; a
// connection recycles them once the bytes are written.
func (m *Mux) Sendv(dst int, hdr, payload []byte, recycle bool) error {
	return m.send(dst, Frame{Data: hdr, Payload: payload, pooledData: true, pooledPayload: recycle})
}

// SendvLent routes a lent payload like Sendv. By reference the loan
// rides the frame and returns at the consumer's Release; a connection
// serialises, so there it is back before SendvLent returns; a member
// device decides for itself.
func (m *Mux) SendvLent(dst int, hdr, payload []byte, loan Loan) error {
	return m.send(dst, Frame{Data: hdr, Payload: payload, pooledData: true, loan: loan})
}

// TrySendv is Sendv — SendvLent, when loan is set — for a caller that
// must never wait, like an engine's progress loop answering a frame: the
// frame is handed over only where that takes no waiting — to a peer
// reached by reference whose mailbox has room — and otherwise TrySendv
// reports false, having taken nothing: hdr, payload and loan are still
// the caller's, to send the blocking way from somewhere that may block.
func (m *Mux) TrySendv(dst int, hdr, payload []byte, recycle bool, loan Loan) bool {
	r := m.routeTo(dst)
	if r.to == nil {
		return false
	}
	if isClosed(m.done) || isClosed(r.to.done) {
		return false
	}
	f := Frame{Data: hdr, Payload: payload, pooledData: true, pooledPayload: recycle, loan: loan}
	select {
	case r.to.inbox <- f:
		r.to.rang()
		m.delivered(r, f)
		return true
	default:
		return false
	}
}

// ByReference reports whether dst is reached by reference: its mailbox
// is in this address space, so a frame — and a loan — changes hands
// without its bytes being copied or serialised on the way.
func (m *Mux) ByReference(dst int) bool { return m.routeTo(dst).to != nil }

// send ships f over dst's route. The mux is done with f's storage on
// every path that does not hand it to a consumer, so Release — pool
// return for owned buffers, loan return for a lent payload — is the
// single exit of those.
func (m *Mux) send(dst int, f Frame) error {
	r := m.routeTo(dst)
	switch {
	case r.to != nil:
		return m.deliver(r, f)
	case r.conn != nil:
		n := len(f.Data) + len(f.Payload)
		if err := r.conn.send(f); err != nil {
			return m.sendErr(dst, err)
		}
		m.cnt[r.med].countSend(n)
		return nil
	case r.dev == nil:
		f.Release()
		return fmt.Errorf("transport: no route to rank %d (world size %d)", dst, m.Size())
	case f.loan != nil:
		return r.dev.SendvLent(dst, f.Data, f.Payload, f.loan)
	case f.pooledData:
		return r.dev.Sendv(dst, f.Data, f.Payload, f.pooledPayload)
	default:
		return r.dev.Send(dst, f.Data)
	}
}

// deliver hands f to the peer r reaches by reference: to its engine
// (Taker) when f carries no loan and the engine takes it (a closed
// endpoint has none, see shut), else to its mailbox. It fails with
// ErrClosed when either endpoint has shut down, so a sender can never
// block for ever on a dead receiver, and a full inbox blocks it only
// until the peer's engine drains. On failure the frame was handed to no
// one and is released here.
func (m *Mux) deliver(r route, f Frame) error {
	if t := r.to.taker.Load(); t != nil && f.loan == nil && !isClosed(m.done) && (*t).Take(f) {
		m.delivered(r, f)
		return nil
	}
	if !r.to.put(f, m.done, &m.cnt[r.med]) {
		f.Release()
		return ErrClosed
	}
	m.delivered(r, f)
	return nil
}

// mailbox is a rank's one inbox and what its consumer parks on. Nobody
// blocks receiving on inbox: a consumer takes frames with TryRecv and,
// finding none, parks on its own Bell, registered with Listen; every
// producer whose frame its engine does not take (Taker) puts it in and
// then rings whichever bell is registered.
// A consumer can therefore hand the right to receive to another — a
// waiting caller, and back — by registering a different bell, which
// wakes nobody, where a goroutine blocked in a receive on inbox could not
// be passed over without waking it.
type mailbox struct {
	inbox chan Frame
	done  chan struct{} // closed with the endpoint, see shut
	// queued counts what was put in (frames, loss reports, the end of the
	// stream) less the frames taken out. A producer adds to it before it
	// reads bell, a consumer registers its bell before it reads queued:
	// whichever comes second sees the other (Dekker), so a frame put in
	// while the registration changes rings one of the two bells.
	queued atomic.Int64
	bell   atomic.Pointer[Bell]
}

// Bell is a mailbox consumer's doorbell (Mux.Listen). Rings coalesce: a
// bell holds at most one until it is waited on.
type Bell struct{ c chan struct{} }

// NewBell makes a bell nobody has rung.
func NewBell() *Bell { return &Bell{c: make(chan struct{}, 1)} }

// Ring wakes the bell's waiter, or lets the next Wait through; it never
// blocks.
func (b *Bell) Ring() {
	select {
	case b.c <- struct{}{}:
	default:
	}
}

// Wait parks until the bell rings.
func (b *Bell) Wait() { <-b.c }

// rang counts one thing put in and rings the registered bell.
func (b *mailbox) rang() {
	b.queued.Add(1)
	b.bell.Load().Ring()
}

// Listen makes bell the one producers ring from now on. A ring left in
// it from before is dropped, and if anything is queued already it is
// rung at once, so its consumer misses nothing put in before or during
// the change. The previous bell is rung no more: registering is how one
// consumer hands the mailbox to another without waking anybody.
func (b *mailbox) Listen(bell *Bell) {
	select {
	case <-bell.c:
	default:
	}
	b.bell.Store(bell)
	if b.queued.Load() > 0 {
		bell.Ring()
	}
}

// TryRecv is Recv for a consumer that never waits in it: ok is false,
// and nothing taken, while the mailbox is empty and its endpoint open;
// the consumer then parks on its bell.
func (b *mailbox) TryRecv() (f Frame, ok bool, err error) {
	select { // a waiting frame is taken without entering selectgo
	case f = <-b.inbox:
	default:
		if !isClosed(b.done) {
			return Frame{}, false, nil
		}
		select { // closed: what arrived before is handed out, then ErrClosed
		case f = <-b.inbox:
		default:
			return Frame{}, true, ErrClosed
		}
	}
	b.queued.Add(-1)
	f, err = f.received()
	return f, true, err
}

// Empty reports whether the inbox holds no frame: every frame put in
// has been taken out by its consumer (a loss report is a frame too).
func (b *mailbox) Empty() bool { return len(b.inbox) == 0 }

// isClosed reports whether done is closed. A select with one case and a
// default compiles to a non-blocking channel receive: no selectgo, no
// channel lock while the channel is open.
func isClosed(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// put is the one way a producer that may wait hands a mailbox a frame,
// ringing the consumer after: it reports false, having handed f to no
// one, when the mailbox's endpoint (done) or the producer's (from; nil
// for a producer that is the endpoint's own read loop or pump) has shut
// down. A mailbox with room takes the frame through non-blocking channel
// operations alone; the multi-case select — three channel locks, sorted,
// per frame — is reached only when the mailbox is full and the producer
// must wait for the engine to drain it (flow control), which cnt, if
// set, counts.
func (b *mailbox) put(f Frame, from <-chan struct{}, cnt *devCounters) bool {
	if isClosed(b.done) || isClosed(from) {
		return false
	}
	select {
	case b.inbox <- f:
	default:
		if cnt != nil {
			cnt.sendWaits.Add(1)
		}
		select { // a nil from never fires
		case b.inbox <- f:
		case <-b.done:
			return false
		case <-from:
			return false
		}
	}
	b.rang()
	return true
}

// delivered accounts for a frame just enqueued on r.to's mailbox, and
// sees to it that a frame enqueued on an endpoint that closed meanwhile
// is not stranded there.
func (m *Mux) delivered(r route, f Frame) {
	n := len(f.Data) + len(f.Payload)
	m.cnt[r.med].countSend(n)
	r.to.cnt[r.med].countRecv(n)
	releaseIfClosed(r.to.inbox, r.to.done)
}

// releaseIfClosed covers the window in which a frame is enqueued on an
// endpoint that closed meanwhile: its consumer may already have seen
// the inbox empty and left, and a loan stranded there would hang its
// lender for ever (a pooled buffer would merely miss the pool). Once the endpoint is closed, whatever still sits in
// the inbox is undeliverable, so the sender that may have raced
// releases it all; the departing consumer, if still draining, shares
// the frames with it one receive at a time.
func releaseIfClosed(inbox chan Frame, done <-chan struct{}) {
	if isClosed(done) {
		drainFrames(inbox)
	}
}

// drainFrames releases whatever inbox holds right now; a lent frame
// queued there goes back to its lender.
func drainFrames(inbox chan Frame) {
	for {
		select {
		case f := <-inbox:
			f.Release()
		default:
			return
		}
	}
}

// sendErr classifies a failed frame write toward peer. A frame refused
// before the stream was touched, or this endpoint's own shutdown, is not
// the peer's death; any other failure of its connection is, whether or
// not the reader has noticed yet.
func (m *Mux) sendErr(peer int, err error) error {
	if errors.Is(err, errFrameTooLarge) {
		return fmt.Errorf("transport: send to rank %d: %w", peer, err)
	}
	if isClosed(m.done) {
		return ErrClosed
	}
	return &PeerLostError{Peer: peer, Err: err}
}

// Recv returns the next frame from any route, or the next peer's loss.
// Once the endpoint is closed, what arrived before is handed out, then
// ErrClosed, persistently. It waits on the mux's own bell, the one
// registered from the start, so it is for an endpoint no engine reads.
func (m *Mux) Recv() (Frame, error) {
	f, ok, err := m.TryRecv()
	for ; !ok; f, ok, err = m.TryRecv() {
		m.own.Wait()
	}
	return f, err
}

// lossReport marks a frame as a peer's loss travelling through a mailbox
// behind that peer's last frame. The mark is explicit because an empty
// Frame is a legal message; it rides the loan slot, with nothing to
// return, so that Frame — which every request and every queued
// unexpected message embeds — stays the size it is.
type lossReport struct{ *PeerLostError }

func (lossReport) Returned() {}

// received unwraps what came out of an inbox: a message, or the loss
// report of a peer.
func (f Frame) received() (Frame, error) {
	if l, ok := f.loan.(lossReport); ok {
		return Frame{}, l.PeerLostError
	}
	return f, nil
}

// shut closes done, once.
func (m *Mux) shut() {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		// A dead endpoint's engine takes no frame: a sender in process
		// learns of the death only from its send failing (deliver).
		m.taker.Store(nil)
		close(m.done)
		m.rang() // the end of the stream is one more thing to take
	}
	m.mu.Unlock()
}

// Close shuts the endpoint down: connections and member devices close,
// the read loops and pumps are waited for, and what the inbox still
// holds is released. Blocked Recv calls return ErrClosed; other ranks'
// endpoints are unaffected.
func (m *Mux) Close() error {
	m.closeOnce.Do(func() {
		m.shut() // first: Join admits no link the loop below will not see
		for _, r := range m.table() {
			if r.conn != nil {
				r.conn.c.Close()
			}
		}
		for _, d := range m.members {
			m.closeErr = errors.Join(m.closeErr, d.Close())
		}
		m.wg.Wait()
		drainFrames(m.inbox)
	})
	return m.closeErr
}

// DeviceStats reports one entry per medium in use: the member devices'
// own, then one for each kind of route of the mux's own that the table
// holds ("chan", "tcp", and "dyn" once any peer has joined), counted
// where a frame leaves the sender and where it enters the mailbox.
func (m *Mux) DeviceStats() []DevStats {
	var out []DevStats
	for _, d := range m.members {
		out = append(out, d.DeviceStats()...)
	}
	var used [nMedia]bool
	for _, r := range m.table() {
		if r.to != nil || r.conn != nil {
			used[r.med] = true
		}
	}
	for med, ok := range used {
		if ok {
			out = append(out, m.cnt[med].stats(mediumNames[med], PoolStats()))
		}
	}
	return out
}

var _ Device = (*Mux)(nil)
