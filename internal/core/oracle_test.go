package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"gompi/internal/transport"
)

// The matching rules as a reference: two lists searched front to back,
// correct by inspection — the oldest posted receive an arriving message
// fits takes it, a new receive takes the oldest arrived message it fits
// (messages of one sender are never overtaken, a wildcard takes whoever
// came first), revocation and peer loss fail what can no longer complete.
// A message meets its receive in post or in arrive, and either way the
// same things follow: a synchronous one owes its sender one ACK, an
// advertised one whose sender is known lost fails the receive it matched,
// and so does one its sender withdrew (cancelled while unmatched).
// The engine is driven beside it and must agree on which receive every
// message completes, on every Status and on the ACKs sent. Whoever
// restructures posted and arrived, or the place the two meet, has this
// to answer to.

type refEnv struct{ ctx, src, tag int32 }

// admits reports whether a receive for e takes a message sent as got.
func (e refEnv) admits(got refEnv) bool {
	return e.ctx == got.ctx && (e.src == AnySource || e.src == got.src) && (e.tag == AnyTag || e.tag == got.tag)
}

type refRecv struct {
	id int
	refEnv
}

type refMsg struct {
	id int
	refEnv
	size int
	rts  bool // advertised only: the payload is still at its sender
	sync bool // eager, and its sender waits for the ACK of the match
	// withdrawn: advertised, and cancelled by its sender while unmatched
	withdrawn bool
}

// refDone is one receive's completion: by msg, or failed with why.
type refDone struct {
	recv refRecv
	msg  *refMsg
	why  error // nil, ErrCommRevoked, ErrWithdrawn, errRefLost or errRefCancelled
}

var (
	errRefLost      = errors.New("peer lost")
	errRefCancelled = errors.New("cancelled")
)

type refMatcher struct {
	posted  []refRecv
	arrived []refMsg
	revoked map[int32]bool // by context
	lost    map[int32]bool // by rank
	acks    int            // owed so far: one per synchronous message matched
}

// meet is what a match comes to, whichever side came second.
func (m *refMatcher) meet(r refRecv, g refMsg) *refDone {
	if g.rts && m.lost[g.src] {
		return &refDone{recv: r, msg: &g, why: errRefLost} // matched; the payload died with its sender
	}
	if g.withdrawn {
		return &refDone{recv: r, msg: &g, why: ErrWithdrawn} // matched; no payload will follow
	}
	if g.sync {
		m.acks++
	}
	return &refDone{recv: r, msg: &g}
}

func (m *refMatcher) barred(e refEnv) bool {
	return m.revoked[e.ctx] && !(e.tag >= 0 && e.tag&RecoveryTag != 0)
}

func (m *refMatcher) post(r refRecv) *refDone {
	if m.barred(r.refEnv) {
		return &refDone{recv: r, why: ErrCommRevoked}
	}
	for i, g := range m.arrived {
		if r.admits(g.refEnv) {
			m.arrived = slices.Delete(m.arrived, i, i+1)
			return m.meet(r, g)
		}
	}
	if r.src != AnySource && m.lost[r.src] {
		return &refDone{recv: r, why: errRefLost}
	}
	m.posted = append(m.posted, r)
	return nil
}

func (m *refMatcher) arrive(g refMsg) *refDone {
	for i, r := range m.posted {
		if r.admits(g.refEnv) {
			m.posted = slices.Delete(m.posted, i, i+1)
			return m.meet(r, g)
		}
	}
	m.arrived = append(m.arrived, g)
	return nil
}

// probe is Iprobe: the oldest arrival e admits, else why none ever will.
func (m *refMatcher) probe(e refEnv) (*refMsg, error) {
	if i := slices.IndexFunc(m.arrived, func(g refMsg) bool { return e.admits(g.refEnv) }); i >= 0 {
		return &m.arrived[i], nil
	}
	switch {
	case m.barred(e):
		return nil, ErrCommRevoked
	case e.src != AnySource && m.lost[e.src]:
		return nil, errRefLost
	}
	return nil, nil
}

func (m *refMatcher) cancel(id int) *refDone {
	i := slices.IndexFunc(m.posted, func(r refRecv) bool { return r.id == id })
	if i < 0 {
		return nil
	}
	r := m.posted[i]
	m.posted = slices.Delete(m.posted, i, i+1)
	return &refDone{recv: r, why: errRefCancelled}
}

// withdraw marks the queued advertisement msg as cancelled by its sender.
func (m *refMatcher) withdraw(msg int) {
	m.arrived[slices.IndexFunc(m.arrived, func(g refMsg) bool { return g.id == msg })].withdrawn = true
}

// sweep fails, in post order, the posted receives gone reports gone.
func (m *refMatcher) sweep(why error, gone func(refEnv) bool) (done []refDone) {
	m.posted = slices.DeleteFunc(m.posted, func(r refRecv) bool {
		if gone(r.refEnv) {
			done = append(done, refDone{recv: r, why: why})
			return true
		}
		return false
	})
	return done
}

func (m *refMatcher) revoke(base int32) []refDone {
	m.revoked[base], m.revoked[base+1] = true, true
	m.arrived = slices.DeleteFunc(m.arrived, func(g refMsg) bool { return m.barred(g.refEnv) })
	return m.sweep(ErrCommRevoked, m.barred)
}

func (m *refMatcher) lose(rank int32) []refDone {
	m.lost[rank] = true
	return m.sweep(errRefLost, func(e refEnv) bool { return e.src == rank })
}

// The driver: rank 0's engine is the subject, ranks 1 and 2 are its
// senders, all on one by-reference job so every frame crosses a real
// mailbox. ops is decoded four bytes to an operation (the seeded test
// draws them, the fuzzer mutates them); each operation is applied to the
// reference first, and the engine is then held to what the reference
// said: the predicted completions must happen, with the predicted
// message and Status, nothing still posted may complete, and rank 0 has
// sent exactly the ACKs owed.

const (
	oracleEager = 48 // the job's eager limit: payloads of 2..48 B go eager (inline up to 39), 49..64 B rendezvous
	oracleOps   = 256
)

var (
	oracleCtx      = [...]int32{0, 2, 3} // 2 and 3 are one pair: revoking base 2 takes both
	oracleSendTags = [...]int32{0, 1, 2, RecoveryTag | 1}
	oracleRecvTags = [...]int32{0, 1, 2, AnyTag, RecoveryTag | 1}
	oracleRecvSrcs = [...]int32{1, 2, AnySource}
)

type oracleRecv struct {
	req  *Request
	into []byte
}

type oracleRun struct {
	t      *testing.T
	procs  [3]*Proc
	closed [3]bool // a lost rank that is also gone; one merely reported lost still has frames in flight
	ref    refMatcher
	recvs  []oracleRecv
	sends  map[int]*Request // by message id
	nmsg   int
	eager  int // eager frames sent to rank 0, taken by their sender or not
	log    []string
}

func (o *oracleRun) fail(format string, args ...any) {
	o.t.Helper()
	o.t.Fatalf("%s\nafter:\n  %s", fmt.Sprintf(format, args...), strings.Join(o.log, "\n  "))
}

// eventually waits for something the reference says must happen.
func (o *oracleRun) eventually(what string, cond func() bool) {
	o.t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(20 * time.Microsecond) {
		if time.Now().After(deadline) {
			o.fail("engine never got to: %s", what)
		}
	}
}

// body is message id's payload: its id, then a pattern.
func oracleBody(id, size int) []byte {
	b := pattern(size, byte(id))
	binary.LittleEndian.PutUint16(b, uint16(id))
	return b
}

// settled checks one predicted completion against the engine.
func (o *oracleRun) settled(d refDone) {
	o.t.Helper()
	r := o.recvs[d.recv.id]
	o.eventually(fmt.Sprintf("receive #%d completing", d.recv.id), func() bool { _, ok := r.req.Test(); return ok })
	st := r.req.Stat
	want := Status{SourceGroup: int(d.recv.src), Tag: int(d.recv.tag)}
	if d.msg != nil {
		want = Status{SourceGroup: int(d.msg.src), Tag: int(d.msg.tag), Bytes: d.msg.size}
	}
	var pl *transport.PeerLostError
	switch d.why {
	case errRefCancelled:
		want = Status{Cancelled: true}
	case errRefLost:
		want.Bytes = 0
		if !errors.As(st.Err, &pl) {
			o.fail("receive #%d: error %v, want the peer's loss", d.recv.id, st.Err)
		}
	case ErrWithdrawn:
		want.Bytes = 0
		if !errors.Is(st.Err, ErrWithdrawn) {
			o.fail("receive #%d: error %v, want withdrawn", d.recv.id, st.Err)
		}
	case ErrCommRevoked:
		if !errors.Is(st.Err, ErrCommRevoked) {
			o.fail("receive #%d: error %v, want revoked", d.recv.id, st.Err)
		}
	default:
		if st.Err != nil {
			o.fail("receive #%d: error %v, want message #%d", d.recv.id, st.Err, d.msg.id)
		}
		got := r.req.Payload
		if r.into != nil {
			got = r.into[:min(st.Bytes, len(r.into))]
		}
		if !bytes.Equal(got, oracleBody(d.msg.id, d.msg.size)) {
			o.fail("receive #%d completed by %x, want message #%d", d.recv.id, got, d.msg.id)
		}
	}
	st.Err = nil
	if st != want {
		o.fail("receive #%d: status %+v, want %+v", d.recv.id, st, want)
	}
	r.req.ReleaseFrame()
	if d.why == nil && d.msg.sync && !o.closed[d.msg.src] { // a sender that closed has failed its own sends
		sreq := o.sends[d.msg.id]
		o.eventually(fmt.Sprintf("the synchronous send of #%d completing on its ACK", d.msg.id), func() bool { _, ok := sreq.Test(); return ok })
		if sreq.Stat != (Status{Bytes: d.msg.size}) {
			o.fail("synchronous send of #%d: status %+v", d.msg.id, sreq.Stat)
		}
	}
}

func (o *oracleRun) step(op [4]byte) {
	p0 := o.procs[0]
	ctx := oracleCtx[int(op[3]&3)%len(oracleCtx)]
	flag := op[3]&4 != 0
	kind := op[0] % 16
	switch {
	case kind == 14 && op[1]%4 != 0:
		kind = 0 // revocation and loss end traffic: keep them rare
	case kind == 15 && op[1]%4 != 0:
		kind = 5
	}
	switch {
	case kind <= 4: // post a receive; flag: receive-into
		e := refEnv{ctx, oracleRecvSrcs[int(op[1])%len(oracleRecvSrcs)], oracleRecvTags[int(op[2])%len(oracleRecvTags)]}
		r := refRecv{len(o.recvs), e}
		o.log = append(o.log, fmt.Sprintf("post #%d %+v into=%v", r.id, e, flag))
		var live oracleRecv
		if flag {
			live.into = make([]byte, 64)
			live.req = p0.IrecvInto(e.ctx, e.src, e.tag, live.into, 1)
		} else {
			live.req = p0.Irecv(e.ctx, e.src, e.tag)
		}
		o.recvs = append(o.recvs, live)
		if d := o.ref.post(r); d != nil {
			o.settled(*d)
		}
	case kind <= 10: // a message arrives: eager (flag: synchronous) or advertised (flag: lent)
		// An eager standard one with op[1]&2 goes through rank 0's
		// mailbox, like a frame that finds it occupied: no sender takes
		// it, and a later frame of its sender must not overtake it.
		src := 1 + int32(op[1]%2)
		g := refMsg{id: o.nmsg, refEnv: refEnv{ctx, src, oracleSendTags[int(op[2])%len(oracleSendTags)]}, rts: kind >= 9}
		g.size = 2 + int(op[3]>>3)%(oracleEager-1)
		if g.rts {
			g.size = oracleEager + 1 + int(op[3]>>3)%(64-oracleEager)
		}
		g.sync = !g.rts && flag
		queued := !g.rts && !g.sync && op[1]&2 != 0
		if o.closed[src] || o.ref.barred(g.refEnv) {
			return // a dead rank sends nothing; a revoked context refuses the send at its sender
		}
		o.nmsg++
		if !g.rts {
			o.eager++
		}
		o.log = append(o.log, fmt.Sprintf("arrive #%d %+v queued=%v", g.id, g, queued))
		var err error
		switch {
		case queued:
			env := envelope{srcWorld: src, ctx: g.ctx, srcGroup: src, tag: g.tag}
			if !o.procs[src].mux.TrySendv(0, buildEagerHdr(false, env, 0), oracleBody(g.id, g.size), false, nil) {
				o.fail("rank 0's mailbox refused #%d", g.id)
			}
		case g.rts && flag:
			o.sends[g.id], err = o.procs[src].IsendLent(g.ctx, int(src), 0, int(g.tag), oracleBody(g.id, g.size), ModeStandard)
		case g.sync:
			o.sends[g.id], err = o.procs[src].Isend(g.ctx, int(src), 0, int(g.tag), oracleBody(g.id, g.size), ModeSync, false)
		default:
			o.sends[g.id], err = o.procs[src].Isend(g.ctx, int(src), 0, int(g.tag), oracleBody(g.id, g.size), ModeStandard, false)
		}
		if err != nil {
			o.fail("send of #%d: %v", g.id, err)
		}
		if d := o.ref.arrive(g); d != nil {
			o.settled(*d)
		} else {
			o.eventually(fmt.Sprintf("message #%d queued unexpected", g.id), func() bool {
				return p0.PendingUnexpected() == len(o.ref.arrived)
			})
			if g.sync {
				if _, done := o.sends[g.id].Test(); done {
					o.fail("synchronous send of #%d completed (%+v) with nobody receiving it", g.id, o.sends[g.id].Stat)
				}
			}
		}
	case kind <= 12: // Iprobe
		e := refEnv{ctx, oracleRecvSrcs[int(op[1])%len(oracleRecvSrcs)], oracleRecvTags[int(op[2])%len(oracleRecvTags)]}
		o.log = append(o.log, fmt.Sprintf("iprobe %+v", e))
		st, ok, err := p0.Iprobe(e.ctx, e.src, e.tag)
		g, why := o.ref.probe(e)
		if ok != (g != nil) || ok && st != (Status{SourceGroup: int(g.src), Tag: int(g.tag), Bytes: g.size}) {
			o.fail("Iprobe = %+v, %v; the reference sees %+v", st, ok, g)
		}
		var pl *transport.PeerLostError
		if why == nil && err != nil || why == ErrCommRevoked && !errors.Is(err, ErrCommRevoked) || why == errRefLost && !errors.As(err, &pl) {
			o.fail("Iprobe failed with %v; the reference says %v", err, why)
		}
	case kind == 13 && flag: // cancel a send whose advertisement waits unmatched at rank 0
		var queued []refMsg
		for _, g := range o.ref.arrived {
			if g.rts && !g.withdrawn && !o.closed[g.src] { // a sender that closed has failed its own sends
				queued = append(queued, g)
			}
		}
		if len(queued) == 0 {
			return
		}
		g := queued[int(op[1])%len(queued)]
		o.log = append(o.log, fmt.Sprintf("cancel the send of #%d", g.id))
		sreq := o.sends[g.id]
		if !o.procs[g.src].Cancel(sreq) {
			o.fail("Cancel of the unmatched send of #%d refused", g.id)
		}
		if sreq.Stat != (Status{Bytes: g.size, Cancelled: true}) {
			o.fail("cancelled send of #%d: status %+v", g.id, sreq.Stat)
		}
		o.ref.withdraw(g.id)
	case kind == 13: // cancel any receive ever posted
		if len(o.recvs) == 0 {
			return
		}
		id := int(op[1]) % len(o.recvs)
		o.log = append(o.log, fmt.Sprintf("cancel #%d", id))
		d := o.ref.cancel(id)
		if took := p0.Cancel(o.recvs[id].req); took != (d != nil) {
			o.fail("Cancel(#%d) = %v, the reference says %v", id, took, d != nil)
		}
		if d != nil {
			o.settled(*d)
		}
	case kind == 14: // revoke a pair at rank 0; the notice floods to the senders
		base := ctx &^ 1
		o.log = append(o.log, fmt.Sprintf("revoke %d", base))
		p0.Revoke(base)
		for _, d := range o.ref.revoke(base) {
			o.settled(d)
		}
		for rank := int32(1); rank <= 2; rank++ {
			if !o.ref.lost[rank] {
				o.eventually("the revocation reaching a sender", func() bool { return o.procs[rank].ContextRevoked(base) })
			}
		}
		o.eventually("revoked messages dropped", func() bool { return p0.PendingUnexpected() == len(o.ref.arrived) })
	case kind == 15: // a sender is lost; by reference nobody notices, so its loss is reported as a launcher would
		// flag: by hearsay only — the rank is still up, and what it sends
		// from here on is what a dead rank had in flight.
		rank := 1 + int32(op[2]%2)
		if o.ref.lost[rank] {
			return
		}
		o.log = append(o.log, fmt.Sprintf("lose %d hearsay=%v", rank, flag))
		if !flag {
			o.closed[rank] = true
			o.procs[rank].Close()
		}
		p0.failPeer(&transport.PeerLostError{Peer: int(rank)})
		for _, d := range o.ref.lose(rank) {
			o.settled(d)
		}
	}
	for _, r := range o.ref.posted {
		if _, done := o.recvs[r.id].req.Test(); done {
			o.fail("receive #%d completed (%+v); the reference still has it posted", r.id, o.recvs[r.id].req.Stat)
		}
	}
	// One ACK per synchronous message matched, whichever of the two came
	// first; one too many never comes back down, and fails the next step.
	o.eventually(fmt.Sprintf("rank 0 having sent %d ACKs", o.ref.acks), func() bool {
		n, _ := o.procs[0].Obs().Value("core.acks_sent")
		return n == int64(o.ref.acks)
	})
}

// runMatchOps runs ops and reports how many of the eager frames rank 0
// received their senders took, and how many went through its mailbox.
func runMatchOps(t *testing.T, ops []byte) (taken, queued int) {
	muxes := transport.NewShmJob(3, 0)
	o := &oracleRun{t: t, sends: map[int]*Request{}, ref: refMatcher{revoked: map[int32]bool{}, lost: map[int32]bool{}}}
	for i, d := range muxes {
		o.procs[i] = NewProc(d, Config{EagerLimit: oracleEager})
		o.procs[i].RegisterGroup(2, []int{0, 1, 2})
		defer o.procs[i].Close()
	}
	for n := 0; len(ops) >= 4 && n < oracleOps; ops, n = ops[4:], n+1 {
		o.step([4]byte(ops))
	}
	taken = int(pv(o.procs[0], "core.frames_taken"))
	return taken, o.eager - taken
}

// TestMatchOrderAgainstReference drives seed-reproducible random
// interleavings of post / eager, synchronous and rendezvous arrival /
// Iprobe / Cancel of a receive or of an unmatched send / revoke / peer loss (with and without frames still in
// flight), wildcards included, through the engine and the reference. A
// failure prints the operations that led to it. Eager frames reach the
// engine both ways, taken by their sender and through the mailbox.
func TestMatchOrderAgainstReference(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 10
	}
	var taken, queued int
	for seed := 1; seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			ops := make([]byte, 4*oracleOps)
			rand.New(rand.NewSource(int64(seed))).Read(ops)
			n, q := runMatchOps(t, ops)
			taken, queued = taken+n, queued+q
		})
	}
	t.Logf("eager frames: %d taken by their sender, %d through the mailbox", taken, queued)
	if taken == 0 || queued == 0 {
		t.Errorf("eager frames: %d taken by their sender, %d through the mailbox; want both paths run", taken, queued)
	}
}

// FuzzMatchOrder lets the fuzzer choose the interleaving.
func FuzzMatchOrder(f *testing.F) {
	f.Add([]byte{0, 2, 3, 0, 5, 0, 0, 0, 5, 1, 1, 0, 0, 0, 1, 4, 9, 0, 0, 4, 11, 2, 3, 0, 13, 0, 0, 0, 14, 0, 0, 0, 15, 0, 1, 0})
	// A synchronous message before its receive and one after it.
	f.Add([]byte{5, 0, 0, 4, 0, 0, 0, 0, 0, 1, 1, 0, 5, 1, 1, 4})
	// Rank 1 reported lost with an RTS still in flight: it meets a posted
	// wildcard receive, then one is posted to meet the next.
	f.Add([]byte{0, 2, 3, 0, 15, 0, 0, 4, 9, 0, 0, 0, 10, 0, 1, 4, 0, 2, 1, 0})
	// A plain and a lent advertisement queued, both withdrawn by their
	// sender, then met by a receive each.
	f.Add([]byte{9, 0, 0, 0, 9, 0, 0, 4, 13, 0, 0, 4, 13, 0, 0, 4, 0, 2, 0, 0, 0, 2, 0, 4})
	for seed := int64(1); seed <= 3; seed++ {
		ops := make([]byte, 4*64)
		rand.New(rand.NewSource(seed)).Read(ops)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) { runMatchOps(t, ops) })
}
