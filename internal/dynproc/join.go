package dynproc

import (
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"gompi/internal/obs"
	"gompi/internal/transport"
)

// Wire protocol of the rendezvous listener. Every connection opens with
// an 8-byte preamble (magic + kind), then length-prefixed gob messages.
// The length prefix matters: a gob.Decoder reads ahead of the value it
// decodes, so on the join connections — which carry raw engine frames
// immediately after the handshake — an unframed decoder would swallow
// the first frames into its buffer and lose them.
const (
	dynMagic = 0x676d6479 // "gmdy"

	connKindLeader = 1 // leader-to-leader handshake (Connect → Accept)
	connKindJoin   = 2 // pairwise dial-in that becomes a frame link

	// maxMsg bounds a handshake message; member tables are tiny.
	maxMsg = 4 << 20

	// handshakeTimeout bounds how long a half-open inbound connection
	// may sit in the handshake before the listener drops it.
	handshakeTimeout = 60 * time.Second
)

// leaderHello is the connect-side leader's opening message.
type leaderHello struct {
	Key     string // capability key parsed from the port name
	Epoch   int    // epoch parsed from the port name
	CtxCand int32  // connect side's agreed context-id candidate
	Eager   int    // connect side's eager limit; the accept side's must match
	Members []Member
}

// leaderWelcome is the accept-side leader's reply.
type leaderWelcome struct {
	Err     string // non-empty: refusal, connection closes after
	JoinID  uint64
	CtxCand int32
	Members []Member
}

// joinHello opens a pairwise dial-in.
type joinHello struct {
	JoinID uint64
	GUID   string // dialer's process id
}

// joinAck confirms the dial-in was parked for admission.
type joinAck struct{ Err string }

func writePreamble(c net.Conn, kind uint32) error {
	var pre [8]byte
	binary.LittleEndian.PutUint32(pre[0:], dynMagic)
	binary.LittleEndian.PutUint32(pre[4:], kind)
	_, err := c.Write(pre[:])
	return err
}

func writeMsg(c net.Conn, v any) error {
	var buf bytes.Buffer
	buf.Write(make([]byte, 4)) // the length prefix, filled in below
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return err
	}
	msg := buf.Bytes()
	binary.LittleEndian.PutUint32(msg, uint32(len(msg)-4)) // readMsg refuses > maxMsg
	_, err := c.Write(msg)
	return err
}

func readMsg(c net.Conn, v any) error {
	var lp [4]byte
	if _, err := io.ReadFull(c, lp[:]); err != nil {
		return err
	}
	n := binary.LittleEndian.Uint32(lp[:])
	if n > maxMsg {
		return fmt.Errorf("dynproc: oversized handshake message (%d bytes)", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(c, b); err != nil {
		return err
	}
	return gob.NewDecoder(bytes.NewReader(b)).Decode(v)
}

// Port is an open rendezvous port: the server half of MPI_Open_port.
// Inbound leader handshakes park on it until an Accept collects them.
type Port struct {
	fab    *Fabric
	name   string
	key    string
	epoch  int
	hellos chan *inboundLeader
}

type inboundLeader struct {
	c     net.Conn
	hello leaderHello
}

// Name returns the full port name to hand to a connecting world.
func (p *Port) Name() string { return p.name }

// Close deregisters the port and refuses everything parked on it.
// The rendezvous listener itself stays up — it is shared by every port
// and join of the process.
func (p *Port) Close() {
	p.fab.mu.Lock()
	if p.fab.ports != nil {
		delete(p.fab.ports, p.key)
	}
	p.fab.mu.Unlock()
	p.drain("port closed")
}

func (p *Port) drain(reason string) {
	for {
		select {
		case in := <-p.hellos:
			writeMsg(in.c, leaderWelcome{Err: reason})
			in.c.Close()
		default:
			return
		}
	}
}

// OpenPort opens a rendezvous port on this process: starts the shared
// listener if needed and mints an unguessable port name bound to the
// current world epoch.
func (f *Fabric) OpenPort() (*Port, error) {
	addr, err := f.EnsureListener()
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	key := randomHex(16)
	p := &Port{
		fab:    f,
		key:    key,
		epoch:  f.epoch,
		name:   FormatPortName(addr, f.epoch, key),
		hellos: make(chan *inboundLeader, 8),
	}
	if f.ports == nil {
		f.ports = map[string]*Port{}
	}
	f.ports[key] = p
	return p, nil
}

func (f *Fabric) acceptLoop(ln net.Listener) {
	defer f.wg.Done()
	for {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		go f.handleConn(c)
	}
}

func (f *Fabric) handleConn(c net.Conn) {
	c.SetDeadline(time.Now().Add(handshakeTimeout))
	var pre [8]byte
	if _, err := io.ReadFull(c, pre[:]); err != nil {
		c.Close()
		return
	}
	if binary.LittleEndian.Uint32(pre[0:]) != dynMagic {
		c.Close()
		return
	}
	switch binary.LittleEndian.Uint32(pre[4:]) {
	case connKindLeader:
		var h leaderHello
		if err := readMsg(c, &h); err != nil {
			c.Close()
			return
		}
		f.mu.Lock()
		p := f.ports[h.Key]
		var reject string
		switch {
		case p == nil:
			reject = "unknown or closed port"
		case p.epoch != h.Epoch || p.epoch != f.epoch:
			reject = fmt.Sprintf("stale port: opened at world epoch %d, world is at epoch %d", h.Epoch, f.epoch)
		}
		f.mu.Unlock()
		if reject != "" {
			writeMsg(c, leaderWelcome{Err: reject})
			c.Close()
			return
		}
		select {
		case p.hellos <- &inboundLeader{c: c, hello: h}:
			// AcceptLeader re-arms the deadline when it picks this up.
		default:
			writeMsg(c, leaderWelcome{Err: "port connection backlog full"})
			c.Close()
		}
	case connKindJoin:
		var h joinHello
		if err := readMsg(c, &h); err != nil {
			c.Close()
			return
		}
		if err := writeMsg(c, joinAck{}); err != nil {
			c.Close()
			return
		}
		c.SetDeadline(time.Time{})
		f.joinFor(h.JoinID).put(h.GUID, c)
	default:
		c.Close()
	}
}

// DialLeader runs the connect side of the leader handshake against a
// remote port and returns the admission ticket for the local world,
// whose engines run at eager limit eager.
func (f *Fabric) DialLeader(portName string, local []Member, ctxCand int32, eager int, timeout time.Duration) (*Ticket, error) {
	defer f.rec.Span(obs.EvJoin, int64(len(local)))(0)
	addr, epoch, key, err := ParsePortName(portName)
	if err != nil {
		return nil, err
	}
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("dynproc: dialing port at %s: %w", addr, err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(timeout))
	if err := writePreamble(c, connKindLeader); err != nil {
		return nil, fmt.Errorf("dynproc: port handshake: %w", err)
	}
	hello := leaderHello{Key: key, Epoch: epoch, CtxCand: ctxCand, Eager: eager, Members: local}
	if err := writeMsg(c, hello); err != nil {
		return nil, fmt.Errorf("dynproc: port handshake: %w", err)
	}
	var w leaderWelcome
	if err := readMsg(c, &w); err != nil {
		return nil, fmt.Errorf("dynproc: port handshake: %w", err)
	}
	if w.Err != "" {
		return nil, fmt.Errorf("dynproc: port refused connection: %s", w.Err)
	}
	return &Ticket{JoinID: w.JoinID, AcceptSide: false, Remote: w.Members, RemoteCtxCand: w.CtxCand}, nil
}

// AcceptLeader runs the accept side: waits for a leader handshake
// parked on the port, names the join, and replies with the local
// member table. A connecting world whose eager limit is not eager, the
// local world's, is refused: the joined worlds would choose different
// collective schedules for one call.
func (f *Fabric) AcceptLeader(p *Port, local []Member, ctxCand int32, eager int, timeout time.Duration) (*Ticket, error) {
	defer f.rec.Span(obs.EvJoin, int64(len(local)))(0)
	var in *inboundLeader
	select {
	case in = <-p.hellos:
	case <-time.After(timeout):
		return nil, fmt.Errorf("dynproc: accept on port %q: no connection within %v", p.name, timeout)
	case <-f.done:
		return nil, transport.ErrClosed
	}
	defer in.c.Close()
	in.c.SetDeadline(time.Now().Add(timeout))
	if in.hello.Eager != eager {
		reason := fmt.Sprintf("eager limits differ: the connecting world's is %d bytes, the accepting world's %d", in.hello.Eager, eager)
		writeMsg(in.c, leaderWelcome{Err: reason})
		return nil, fmt.Errorf("dynproc: accept on port %q: %s", p.name, reason)
	}
	id, err := randomJoinID()
	if err != nil {
		return nil, err
	}
	if err := writeMsg(in.c, leaderWelcome{JoinID: id, CtxCand: ctxCand, Members: local}); err != nil {
		return nil, fmt.Errorf("dynproc: port handshake: %w", err)
	}
	return &Ticket{JoinID: id, AcceptSide: true, Remote: in.hello.Members, RemoteCtxCand: in.hello.CtxCand}, nil
}

func randomJoinID() (uint64, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return 0, fmt.Errorf("dynproc: join id: %w", err)
	}
	id := binary.LittleEndian.Uint64(b[:])
	if id == 0 {
		id = 1
	}
	return id, nil
}

// pendingJoin parks pairwise dial-ins by the dialer's GUID until the
// local Admit collects them. It is created lazily by whichever side
// arrives first — an inbound connection may beat the broadcast that
// tells this process the join exists.
type pendingJoin struct {
	mu    sync.Mutex
	cond  *sync.Cond
	conns map[string]net.Conn
}

func newPendingJoin() *pendingJoin {
	pj := &pendingJoin{conns: map[string]net.Conn{}}
	pj.cond = sync.NewCond(&pj.mu)
	return pj
}

func (f *Fabric) joinFor(id uint64) *pendingJoin {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.joins == nil {
		f.joins = map[uint64]*pendingJoin{}
	}
	pj := f.joins[id]
	if pj == nil {
		pj = newPendingJoin()
		f.joins[id] = pj
	}
	return pj
}

func (f *Fabric) forgetJoin(id uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.joins != nil {
		delete(f.joins, id)
	}
}

func (pj *pendingJoin) put(guid string, c net.Conn) {
	pj.mu.Lock()
	defer pj.mu.Unlock()
	if old, ok := pj.conns[guid]; ok {
		old.Close()
	}
	pj.conns[guid] = c
	pj.cond.Broadcast()
}

func (pj *pendingJoin) take(guid string, deadline time.Time) (net.Conn, error) {
	timer := time.AfterFunc(time.Until(deadline), func() {
		pj.mu.Lock()
		pj.cond.Broadcast()
		pj.mu.Unlock()
	})
	defer timer.Stop()
	pj.mu.Lock()
	defer pj.mu.Unlock()
	for {
		if c, ok := pj.conns[guid]; ok {
			delete(pj.conns, guid)
			return c, nil
		}
		if !time.Now().Before(deadline) {
			return nil, fmt.Errorf("dynproc: peer %s did not dial in before the deadline", guid)
		}
		pj.cond.Wait()
	}
}

func (pj *pendingJoin) closeAll() {
	pj.mu.Lock()
	defer pj.mu.Unlock()
	for g, c := range pj.conns {
		c.Close()
		delete(pj.conns, g)
	}
	pj.cond.Broadcast()
}

// dialJoin opens the pairwise frame connection toward one remote
// member's rendezvous listener.
func (f *Fabric) dialJoin(addr string, id uint64, deadline time.Time) (net.Conn, error) {
	c, err := net.DialTimeout("tcp", addr, time.Until(deadline))
	if err != nil {
		return nil, err
	}
	c.SetDeadline(deadline)
	if err := writePreamble(c, connKindJoin); err != nil {
		c.Close()
		return nil, err
	}
	if err := writeMsg(c, joinHello{JoinID: id, GUID: f.guid}); err != nil {
		c.Close()
		return nil, err
	}
	var ack joinAck
	if err := readMsg(c, &ack); err != nil {
		c.Close()
		return nil, err
	}
	if ack.Err != "" {
		c.Close()
		return nil, errors.New(ack.Err)
	}
	c.SetDeadline(time.Time{})
	return c, nil
}

// Admit links this process to every member of the joining remote world
// and returns their local world indices, in the remote world's rank
// order. The accept side waits for dial-ins; the connect side dials.
// Members already admitted through an earlier join are reused (their
// indices are returned again), so repeated Connect/Accept between the
// same worlds — or a Merge after an Accept — never duplicates links.
// On success the world epoch advances.
func (f *Fabric) Admit(t *Ticket, timeout time.Duration) ([]int, error) {
	defer f.rec.Span(obs.EvAdmit, int64(len(t.Remote)))(0)
	deadline := time.Now().Add(timeout)
	idxs := make([]int, len(t.Remote))
	for i, m := range t.Remote {
		if m.GUID == f.guid {
			return nil, fmt.Errorf("dynproc: member %d of the remote world is this process; a world cannot connect to itself", i)
		}
		if idx, alive, known := f.lookupGUID(m.GUID); known {
			if !alive {
				return nil, &transport.PeerLostError{Peer: idx}
			}
			idxs[i] = idx
			continue
		}
		var c net.Conn
		var err error
		if t.AcceptSide {
			c, err = f.joinFor(t.JoinID).take(m.GUID, deadline)
		} else {
			c, err = f.dialJoin(m.Addr, t.JoinID, deadline)
		}
		if err != nil {
			return nil, fmt.Errorf("dynproc: linking remote member %d (%s): %w", i, m.GUID, err)
		}
		idx, aerr := f.attach(m.GUID, c)
		if aerr != nil {
			return nil, aerr
		}
		idxs[i] = idx
	}
	f.forgetJoin(t.JoinID)
	f.mu.Lock()
	f.epoch++
	f.mu.Unlock()
	return idxs, nil
}
