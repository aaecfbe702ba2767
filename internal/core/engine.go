package core

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"gompi/internal/obs"
	"gompi/internal/transport"
)

// DefaultEagerLimit is the payload size, in bytes, at or below which a
// standard-mode message is shipped eagerly; larger messages use the
// RTS/CTS rendezvous protocol. MPICH-era implementations sit in the same
// range; the ablation bench sweeps this knob.
const DefaultEagerLimit = 64 << 10

// ErrTruncated reports that a receive-into buffer was smaller than the
// incoming message (MPI_ERR_TRUNCATE semantics): the buffer is filled to
// capacity and the remainder of the message is discarded.
var ErrTruncated = errors.New("core: receive buffer too small, message truncated")

// ErrCommRevoked is the completion error of operations poisoned by a
// communicator revocation (MPI_ERR_REVOKED semantics): once any member
// revokes a context pair, every in-flight and future operation on it —
// except recovery-tagged agreement traffic — fails with this error on
// every member the revocation reaches.
var ErrCommRevoked = errors.New("core: communicator revoked")

// ErrInstanceCancelled is the completion error of the operations of a
// collective instance that a member cancelled (RevokeInstance): the
// instance ends on every member the cancellation reaches — what is in
// flight fails, what arrives is dropped, what is posted later fails at
// once — while the communicator, and every other instance on it, carry
// on.
var ErrInstanceCancelled = errors.New("core: collective instance cancelled")

// ErrWithdrawn is the completion error of a receive that matched a
// rendezvous send whose sender gave it up — cancelled it, or had it
// failed by a revocation — before the grant arrived, or before the
// receiver could claim the payload its RTS carried: the match stands
// (matching order is already committed), but no payload will follow.
var ErrWithdrawn = errors.New("core: matched send was withdrawn by its sender")

// RecoveryTag is the tag bit reserved for communicator-repair traffic
// (the fault-tolerant agreement under Shrink). Operations whose tag
// carries it keep working on a revoked context: revocation must not
// poison the very protocol that repairs the communicator. User tags are
// capped below this bit and collective tags occupy the bits beneath it,
// so no ordinary operation can claim the exemption.
const RecoveryTag int32 = 1 << 30

// isRecoveryTag reports whether t carries the repair exemption. Wildcard
// tags are negative, so the bit test alone would misread them.
func isRecoveryTag(t int32) bool { return t >= 0 && t&RecoveryTag != 0 }

// TagFamBits is how many low bits of a collective tag name its family
// within the collective instance; the bits above name the instance
// (internal/coll composes its tags this way).
const TagFamBits = 4

// instanceOf is the collective instance tag belongs to: the tag with its
// family bits cleared.
func instanceOf(tag int32) int32 { return tag &^ (1<<TagFamBits - 1) }

// revKey names what a revocation record bars: the collective instance
// inst on context ctx, or, when inst is wholePair, the context pair at
// ctx (ctx, ctx+1).
type revKey struct{ ctx, inst int32 }

// wholePair is the instance of a record that bars a whole pair: no tag's
// instance, as its family bits are set.
const wholePair int32 = -1

// bars reports whether the record k bars an operation on ctx with tag.
// Recovery-tagged traffic is never barred.
func (k revKey) bars(ctx, tag int32) bool {
	if k.inst == wholePair {
		return (ctx == k.ctx || ctx == k.ctx+1) && !isRecoveryTag(tag)
	}
	return ctx == k.ctx && instanceOf(tag) == k.inst && !isRecoveryTag(tag)
}

// Config tunes a Proc.
type Config struct {
	// EagerLimit is the eager/rendezvous switch-over in payload bytes;
	// 0 selects DefaultEagerLimit, negative forces all-rendezvous.
	EagerLimit int
	// Recorder, when non-nil, receives this rank's trace events. A nil
	// recorder disables tracing at the cost of one branch per
	// instrumentation point.
	Recorder *obs.Recorder
}

func (c Config) eagerLimit() int {
	switch {
	case c.EagerLimit == 0:
		return DefaultEagerLimit
	case c.EagerLimit < 0:
		return -1
	default:
		return c.EagerLimit
	}
}

// inMsg is an arrived, not-yet-matched message (the unexpected queue
// entry): either a complete eager message or an RTS advertisement, which
// carries its payload if it is an offer. The entry owns the transport
// frame backing payload — an offer's loan, not its header — until a
// receive matches it and takes the frame over.
type inMsg struct {
	kind    byte
	env     envelope
	id      uint64
	size    int // advertised payload size for kRts
	payload []byte
	frame   transport.Frame
}

// inMsgPool recycles the unexpected queue's entries: one a receive has
// matched and whose frame is released goes back (Proc.irecv).
var inMsgPool = sync.Pool{New: func() any { return new(inMsg) }}

// outFrame is a frame produced by the matching engine to be sent after
// the engine lock is released (sending under the lock can deadlock with
// the peer's flow control: a full inbox blocks the sender until the
// peer's engine drains it, which may need this lock). hdr is pool-born;
// payload (rendezvous DATA only: an offer's rides its RTS, which the
// sending user goroutine ships) is shipped by reference, and a non-nil
// loan marks it as the sending caller's own memory.
type outFrame struct {
	dst     int32
	hdr     []byte
	payload []byte
	recycle bool
	loan    transport.Loan
}

// Proc is one rank's progress engine. All methods are safe for
// concurrent use. Progress — taking frames out of the rank's mailbox and
// running them through the engine — is driven by whichever goroutine
// holds the progress role: a caller blocked in Wait, Probe or Await,
// else the engine's own progress goroutine. An eager frame that a rank of
// the same job delivers while the mailbox is empty never enters it: the
// sender's goroutine runs it through the engine itself (Take).
type Proc struct {
	// mux is the rank's endpoint and its one mailbox, read by whoever
	// holds the progress role.
	mux *transport.Mux
	cfg Config

	mu   sync.Mutex
	cond *sync.Cond
	// The progress role. A caller about to park in Wait or Probe takes
	// it while no other caller has it (polling), runs the engine's body
	// itself and parks on pollBell between frames, so the producer of the
	// frame it waits for wakes it directly: by ringing pollBell as it
	// puts the frame in the mailbox, or, having run an eager frame
	// through the engine itself (Take), by completing the request the
	// caller waits for, or ringing for a caller whose wait is a
	// predicate. The progress goroutine, parked on idleBell, holds the
	// role the rest of the time. Handing it over is registering the
	// other bell with the mailbox, which wakes nobody.
	idleBell, pollBell *transport.Bell
	polling            bool
	// pollFor is what the polling caller waits for; nil for a wait on a
	// predicate (Probe, Await), which any completion may satisfy.
	pollFor *Request
	// pollParked: the polling caller is parked on pollBell, or about to
	// be. Whatever completes pollFor then rings it; while it runs the
	// body, it looks for itself before parking again.
	pollParked bool

	posted  []*Request // receives no message has met yet, post order
	arrived []*inMsg   // unexpected messages, arrival order
	// pending holds, by id, every operation a peer's next frame settles:
	// a send awaiting its CTS or ACK and a granted receive awaiting its
	// DATA. Both draw their ids from nextID, and Request.kind says which
	// frames may name one. posted and pending are all that
	// failWhereLocked and Cancel can reach: an operation in neither (a
	// lent send after its CTS, a receive handed to a read loop) has one
	// completion left, and it is not theirs. An offer stays in pending
	// until its loan returns, but once its receiver has taken it, it
	// completes outside the tables: every sweep spares it.
	pending  map[uint64]*Request
	peerDown map[int]error // world rank -> loss report, once per peer
	// groups maps a registered context to its group-rank→world-rank
	// table, letting failPeer and the fail-fast paths attribute peer
	// death on derived communicators, not just COMM_WORLD.
	groups map[int32][]int
	// revoked maps what a revocation bars — a context pair a member
	// revoked (Revoke), a collective instance a member cancelled
	// (RevokeInstance) — to the error it fails operations with.
	revoked map[revKey]error
	// instances counts revoked's instance records, for ForgetInstance to
	// read without the lock.
	instances atomic.Int32
	// parentOf maps the base of a context pair the runtime derived for
	// its own use (Derive) to the base of the pair it serves.
	parentOf map[int32]int32
	nextID   uint64
	closed   bool
	// fatal is the terminal device error that killed this endpoint
	// (failAll); operations posted after death fail fast with it.
	fatal error

	stats Stats
	// reg is the rank's performance-variable registry; stats is a typed
	// view over it and layers above hang their own variables off it.
	reg *obs.Registry
	// rec is the rank's flight recorder (nil = tracing disabled).
	rec *obs.Recorder
	// eagerLim is the eager/rendezvous threshold, fixed for the
	// engine's life from Config (every rank of a job is built with the
	// same one). Negative forces all-rendezvous.
	eagerLim int
	// unexpDepth mirrors len(arrived) for the registry
	// ("core.unexpected_depth"): current and peak unexpected-queue
	// occupancy without taking the engine lock to read.
	unexpDepth *obs.Gauge

	wg sync.WaitGroup

	// nextCtx is the next free context pair's base; it reaches 2^31 once
	// all MaxContextPairs are handed out. Guarded by mu.
	nextCtx int64
	// job is the in-process job whose endpoint this engine reads
	// undecorated (transport.Mux.Claim), or nil.
	job *transport.Job
	// outbox holds, in post order, the control frames the mux would not
	// take without waiting; sending says its one sender is running, and
	// stays true until that sender finds the outbox empty. Guarded by mu.
	outbox  []outFrame
	sending bool
	// groupsN mirrors len(groups) for the registry ("core.groups"), set
	// wherever the table changes.
	groupsN *obs.Gauge
}

// NewProc wraps a device with a progress engine and starts its progress
// goroutine. A device that is not a transport.Mux is read through one
// (transport.MuxOver).
func NewProc(dev transport.Device, cfg Config) *Proc {
	mux := transport.MuxOver(dev)
	p := &Proc{
		mux:      mux,
		cfg:      cfg,
		idleBell: transport.NewBell(),
		pollBell: transport.NewBell(),
		reg:      obs.NewRegistry(),
		rec:      cfg.Recorder,
		pending:  make(map[uint64]*Request),
		nextCtx:  2, // 0 and 1 belong to COMM_WORLD
		job:      mux.Claim(),
		eagerLim: cfg.eagerLimit(),
	}
	mux.SetLander(p)
	p.cond = sync.NewCond(&p.mu)
	p.stats = newStats(p.reg)
	p.unexpDepth = p.reg.Gauge("core.unexpected_depth")
	p.groupsN = p.reg.Gauge("core.groups")
	p.reg.Source("transport.", p.transportVars)
	p.reg.Gauge("core.eager_limit").Set(int64(p.eagerLim))
	p.mux.Listen(p.idleBell)
	if p.job != nil {
		mux.SetTaker(p) // last: a sender may run Take the moment it is set
	}
	p.wg.Add(1)
	go p.progress()
	return p
}

// Rank returns the world rank.
func (p *Proc) Rank() int { return p.mux.Rank() }

// Size returns the world size.
func (p *Proc) Size() int { return p.mux.Size() }

// EagerLimit reports the eager/rendezvous threshold the engine was
// built with (the "core.eager_limit" performance variable).
func (p *Proc) EagerLimit() int { return p.eagerLim }

// ByReference reports whether frames to world rank w change hands
// inside this address space — no wire, no segment copy — which is where
// a lent payload is read in place and a message's fixed cost is lowest.
func (p *Proc) ByReference(w int) bool { return p.mux.ByReference(w) }

// Job returns the in-process job this engine's rank belongs to when the
// engine of every one of the job's ranks reads its endpoint undecorated
// (transport.Job.Direct: an answer every rank of the job shares), and
// nil otherwise.
func (p *Proc) Job() *transport.Job {
	if p.job != nil && p.job.Direct() {
		return p.job
	}
	return nil
}

// Close shuts the engine down: the device is closed and the progress
// goroutine joined. Outstanding requests never complete after Close; the
// binding layer runs a barrier first so correct programs are quiescent.
// Frames already queued unexpected stay readable — a receive posted
// after Close still matches and consumes them.
func (p *Proc) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.wakeLocked()
	// Let the outbox reach its destination inboxes first: a barrier
	// completing on this rank may still owe a peer its rendezvous
	// payload.
	for p.sending {
		p.cond.Wait()
	}
	p.mu.Unlock()
	err := p.mux.Close()
	p.wg.Wait()
	return err
}

// progress holds the progress role while no caller does: it runs the
// progress body whenever its bell rings, until the endpoint is dead.
func (p *Proc) progress() {
	defer p.wg.Done()
	p.mu.Lock()
	for p.fatal == nil {
		if p.polling || !p.stepLocked() {
			p.mu.Unlock()
			p.idleBell.Wait()
			p.stats.ProgressWakes.Inc()
			p.mu.Lock()
		}
	}
	p.mu.Unlock()
}

// Await blocks until done reports true, driving the rank's progress
// while it waits exactly as Request.Wait does: it is the wait of
// everything that is not one request (a collective schedule, a set of
// requests). done runs under the engine lock, which OnDone callbacks run
// under too, so state it shares with them needs no lock of its own; it
// may call Request.Test but nothing that takes the lock. done is not
// asked again once it has said true, so it may claim what it found.
// Whatever makes done true other than a completion must say so through
// Publish.
func (p *Proc) Await(done func() bool) {
	p.mu.Lock()
	p.awaitLocked(nil, done)
	p.mu.Unlock()
}

// Publish runs fn under the engine lock and wakes every Await, so one
// whose predicate fn made true returns.
func (p *Proc) Publish(fn func()) {
	p.mu.Lock()
	fn()
	p.wakeLocked()
	p.mu.Unlock()
}

// awaitLocked returns, holding mu as on entry, once done reports true.
// Until then the caller drives progress itself unless another caller
// already does: it takes the progress role, runs the progress body, and
// parks on pollBell whenever the mailbox is empty — where the producer
// of the next frame, or whatever completes mine outside the mailbox,
// rings it — and hands the role back once done holds. Other callers
// sleep on cond, and so does everyone once the endpoint is dead. done is
// not asked again once it has said true, so it may claim what it found.
func (p *Proc) awaitLocked(mine *Request, done func() bool) {
	for !done() {
		if p.polling || p.fatal != nil {
			p.cond.Wait()
			continue
		}
		p.polling, p.pollFor = true, mine
		p.mux.Listen(p.pollBell)
		over := false
		for !over && p.fatal == nil {
			if !p.stepLocked() {
				p.pollParked = true
				p.mu.Unlock()
				p.stats.CallerPolls.Inc()
				p.pollBell.Wait()
				p.mu.Lock()
				p.pollParked = false
			}
			over = done()
		}
		p.polling, p.pollFor = false, nil
		p.mux.Listen(p.idleBell)
		p.cond.Broadcast() // a caller sleeping for want of the role may take it
		if over {
			return
		}
	}
}

// stepLocked is the progress body, run by whoever holds the progress
// role: it takes the next frame or loss report out of the mailbox and
// runs it through the engine. Taking and matching happen under mu, in
// mailbox order, which keeps MPI's non-overtaking rule whoever holds the
// role; mu is dropped while the frames the engine produced go out and
// the requests they finish complete. It reports false, having taken
// nothing, when the mailbox is empty.
func (p *Proc) stepLocked() bool {
	raw, ok, err := p.mux.TryRecv()
	switch {
	case !ok:
		return false
	case err != nil:
		// A single lost peer is not a device failure: fail the
		// operations pinned to that peer (MPI_ERR_PROC_FAILED
		// semantics) and keep serving everyone else. This is what lets
		// surviving ranks drain a barrier while an already finalized
		// peer's exit is being noticed.
		var pl *transport.PeerLostError
		if errors.As(err, &pl) {
			p.failPeerLocked(pl)
		} else {
			// Terminal device error: the fabric under this rank is gone
			// (Close, or a fault-injected death of our own endpoint).
			// Complete everything pending with the error so goroutines
			// blocked in Wait unblock instead of hanging on a rank that
			// can no longer make progress.
			p.failAllLocked(err)
		}
		return true
	}
	p.runLocked(raw)
	return true
}

// runLocked runs one frame through the engine, the progress body's work
// whoever found the frame: matching happens under mu, and mu is dropped
// while the frames the engine produced go out and the requests they
// finish complete.
func (p *Proc) runLocked(raw transport.Frame) {
	f, err := parseFrame(raw)
	outs, after, purged := p.handleLocked(&f, err)
	if len(outs)+len(after)+len(purged) == 0 && !f.frame.Lent() {
		f.frame.Release() // pool storage at most: no lender's lock to take
		return
	}
	p.mu.Unlock()
	// Released once the lock is dropped: see handleLocked.
	f.frame.Release()
	release(purged)
	// Control frames (CTS/ACK/DATA) are keyed by unique ids and
	// order-insensitive, so they go out without ever blocking the
	// progress body (ship): a blocking send here could form a
	// flow-control cycle between two ranks flooding each other.
	// Matching-relevant frames (eager, RTS) are only ever sent from
	// user calls, preserving MPI's non-overtaking rule.
	p.ship(outs)
	// The rendezvous payload has been handed to the mux, or to the
	// outbox, which sends it whatever the request does next; the send
	// request completes now.
	for _, c := range after {
		p.complete(c.req, nil, c.st)
	}
	p.mu.Lock()
}

// Take is the engine's answer to a rank of its own job delivering a
// frame by reference (transport.Taker): an eager frame that finds the
// mailbox empty is run through the engine on the sender's goroutine,
// which holds no engine lock of its own here, and nobody is woken to
// take it out of the mailbox. Anything else is declined and goes through
// the mailbox: another kind of frame, a frame that would overtake one
// still queued, and a frame for a closed or dead endpoint.
func (p *Proc) Take(f transport.Frame) bool {
	if len(f.Data) == 0 || f.Data[0] != kEager && f.Data[0] != kEagerSync {
		return false
	}
	p.mu.Lock()
	if p.closed || !p.mux.Empty() {
		p.mu.Unlock()
		return false
	}
	p.stats.FramesTaken.Inc()
	p.runLocked(f)
	// A polling caller waiting on a predicate (Probe, Await) is woken by
	// the mailbox no more; an arrival that completed nothing may be what
	// it waits for.
	if p.pollParked && p.pollFor == nil {
		p.pollBell.Ring()
	}
	p.mu.Unlock()
	return true
}

// wakeLocked wakes whoever sleeps on the engine's state rather than on a
// request of its own: cond's sleepers, and a polling caller parked on its
// bell (a Probe's has no request to complete).
func (p *Proc) wakeLocked() {
	p.cond.Broadcast()
	if p.pollParked {
		p.pollBell.Ring()
	}
}

// malformed counts and traces a frame that can only be dropped: one
// parseFrame rejected, or one answering a grant made to another rank.
func (p *Proc) malformed(kind byte, n int) {
	p.stats.FramesMalformed.Inc()
	p.rec.Instant(obs.EvFrameMalformed, uint32(kind), int64(n))
}

type lateComplete struct {
	req *Request
	st  Status
}

// failWhereLocked is the one loop that fails operations: every posted
// receive (posted = true, in post order) and every pending operation
// hit selects completes with err. Peer loss, endpoint death and
// revocation are each a predicate over it; whatever it cannot reach is
// in neither table, or is a taken offer, by the rule on Proc.pending.
// Probe waiters are woken to re-read the state that made the sweep.
func (p *Proc) failWhereLocked(err error, hit func(r *Request, posted bool) bool) {
	kept := p.posted[:0]
	for _, r := range p.posted {
		if hit(r, true) {
			p.completeLocked(r, nil, Status{SourceGroup: int(r.src), Tag: int(r.tag), Err: err})
			continue
		}
		kept = append(kept, r)
	}
	clear(p.posted[len(kept):])
	p.posted = kept
	for _, r := range p.pending {
		if hit(r, false) {
			p.dropPendingLocked(r, Status{Err: err})
		}
	}
	p.wakeLocked()
}

// dropPendingLocked takes r out of pending and completes it with st, to
// which it adds what the request alone knows: a send's size, or the
// source and tag of the message a granted receive matched. A rendezvous
// payload that never shipped goes back to the pool if it came from there
// (a lent one is simply the caller's again). An offer still out is
// withdrawn here, by the compare-and-swap its receiver's claim races;
// one already taken is left where it is, and false reported.
func (p *Proc) dropPendingLocked(r *Request, st Status) bool {
	if r.kind == reqSend && !atomic.CompareAndSwapInt32(r.offer(), offerOut, offerWithdrawn) &&
		atomic.LoadInt32(r.offer()) == offerTaken {
		return false
	}
	delete(p.pending, r.id)
	if r.kind == reqSend {
		if r.data != nil && r.recycle {
			transport.PutBuf(r.data)
		}
		r.data = nil
		st.Bytes = r.size
	} else {
		st.SourceGroup, st.Tag = r.Stat.SourceGroup, r.Stat.Tag
	}
	p.completeLocked(r, nil, st)
	return true
}

// failPeerLocked records that world rank pl.Peer is gone and completes, with
// the loss as the status error, every operation only that peer could
// satisfy: posted receives pinned to it (world contexts map group ranks
// directly; derived communicators resolve through their registered
// group tables), sends awaiting its CTS/ACK, and granted receives
// awaiting its DATA. Later sends to the peer fail fast in Isend.
// Reported once per peer.
func (p *Proc) failPeerLocked(pl *transport.PeerLostError) {
	if _, dup := p.peerDown[pl.Peer]; dup {
		return
	}
	if p.peerDown == nil {
		p.peerDown = make(map[int]error)
	}
	p.peerDown[pl.Peer] = pl
	p.stats.PeersLost.Add(1)
	p.rec.Instant(obs.EvPeerLost, uint32(pl.Peer), 0)
	p.failWhereLocked(pl, func(r *Request, posted bool) bool {
		if posted {
			return r.src != AnySource && p.worldOfLocked(r.ctx, r.src) == pl.Peer
		}
		return int(r.dstWorld) == pl.Peer
	})
}

// failAllLocked marks the engine closed and completes every pending
// operation with err: the local endpoint itself is dead, so nothing
// pending can ever complete normally, and nobody drives progress again.
func (p *Proc) failAllLocked(err error) {
	p.closed = true
	p.fatal = err
	p.failWhereLocked(err, func(*Request, bool) bool { return true })
}

// lostSrcLocked returns the loss report of the rank a receive for group
// rank src on ctx is pinned to, or nil: a wildcard is pinned to nobody,
// and an unknown mapping (-1) is no rank.
func (p *Proc) lostSrcLocked(ctx, src int32) error {
	if src == AnySource {
		return nil
	}
	return p.peerDown[p.worldOfLocked(ctx, src)]
}

// worldOfLocked maps a group rank on a registered context to its world
// rank, falling back to the identity map on the world contexts; -1 when
// the mapping is unknown.
func (p *Proc) worldOfLocked(ctx, groupRank int32) int {
	if g, ok := p.groups[ctx]; ok {
		if groupRank >= 0 && int(groupRank) < len(g) {
			return g[groupRank]
		}
		return -1
	}
	if ctx <= 1 {
		return int(groupRank)
	}
	return -1
}

// RegisterGroup records the group-rank→world-rank table of the
// communicator whose context pair starts at base. Registration is what
// lets the engine fail receives pinned to a dead peer on derived
// communicators and route revocation notices to exactly the members.
func (p *Proc) RegisterGroup(base int32, world []int) {
	g := append([]int(nil), world...)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.groups == nil {
		p.groups = make(map[int32][]int)
	}
	p.groups[base] = g
	p.groups[base+1] = g
	p.groupsN.Set(int64(len(p.groups)))
}

// RegisterGroupCtx records the matching-rank→world-rank table for one
// context of a pair, overriding RegisterGroup's symmetric registration.
// Intercommunicators need the split: point-to-point traffic matches
// against the remote group (so peer-death attribution and revocation
// routing on the point-to-point context must resolve remote ranks),
// while collectives run within the local group on the paired context.
func (p *Proc) RegisterGroupCtx(ctx int32, world []int) {
	g := append([]int(nil), world...)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.groups == nil {
		p.groups = make(map[int32][]int)
	}
	p.groups[ctx] = g
	p.groupsN.Set(int64(len(p.groups)))
}

// ForgetGroup drops what RegisterGroup, RegisterGroupCtx, Derive and a
// revocation or an instance's cancellation recorded for the context pair
// at base: the communicator is freed. Operations still pending on it
// complete as before, except that a peer's loss no longer fails those
// pinned to that peer.
func (p *Proc) ForgetGroup(base int32) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, ctx := range []int32{base, base + 1} {
		delete(p.groups, ctx)
	}
	for k := range p.revoked {
		if k.ctx == base || k.ctx == base+1 {
			delete(p.revoked, k)
			if k.inst != wholePair {
				p.instances.Add(-1)
			}
		}
	}
	delete(p.parentOf, base)
	p.groupsN.Set(int64(len(p.groups)))
}

// DownPeers returns the world ranks currently known to have failed, in
// rank order.
func (p *Proc) DownPeers() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]int, 0, len(p.peerDown))
	for r := range p.peerDown {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// PeerDown reports whether world rank w is known to have failed.
func (p *Proc) PeerDown(w int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.peerDown[w] != nil
}

// Revoke poisons the communicator whose context pair starts at base
// (ULFM MPI_Comm_revoke): pending operations on the pair complete with
// ErrCommRevoked, future ones fail fast, and a revocation notice floods
// to every live member of the registered group. Propagation is
// engine-level: each member re-floods on first receipt, so the notice
// survives the revoker dying mid-broadcast as long as the live members
// stay connected. Recovery-tagged traffic (Agree/Shrink) is exempt —
// revocation must not poison the repair protocol itself.
func (p *Proc) Revoke(base int32) {
	p.revoke(revKey{base, wholePair}, true)
}

// RevokeInstance cancels the collective instance that tag names on the
// collective context ctx: this member's operations of the instance fail
// with ErrInstanceCancelled, its arrived messages are released, and its
// later ones fail at once — and, when flood is set, a notice carries the
// same to every live member of the group registered for ctx, which
// re-floods it as Revoke's does. Recovery-tagged traffic is exempt, and
// pairs derived from ctx's (Derive) are not touched. The record stays
// until ForgetInstance or ForgetGroup drops it.
func (p *Proc) RevokeInstance(ctx, tag int32, flood bool) {
	p.revoke(revKey{ctx, instanceOf(tag)}, flood)
}

// ForgetInstance drops the record of the instance that tag names on ctx,
// left by RevokeInstance or a peer's notice: its tags are about to be
// reused. It takes no lock while the engine holds no instance record.
func (p *Proc) ForgetInstance(ctx, tag int32) {
	if p.instances.Load() != 0 {
		p.mu.Lock()
		if k := (revKey{ctx, instanceOf(tag)}); p.revoked[k] != nil {
			delete(p.revoked, k)
			p.instances.Add(-1)
		}
		p.mu.Unlock()
	}
}

// revoke records k and runs its sweep (revokeLocked), then releases
// what the sweep purged and ships its notices.
func (p *Proc) revoke(k revKey, flood bool) {
	p.mu.Lock()
	outs, purged := p.revokeLocked(k, flood)
	p.mu.Unlock()
	release(purged)
	p.ship(outs)
}

// Derive links the context pair at child to the one at parent, which it
// serves on the runtime's behalf (an open file's or a window's private
// duplicate of a communicator): a revocation of parent — by this member
// or by a notice, before the link or after it — revokes child too, so a
// collective on child ends on every member although no application can
// name child to revoke it. ForgetGroup of child drops the link.
func (p *Proc) Derive(parent, child int32) {
	p.mu.Lock()
	if p.parentOf == nil {
		p.parentOf = make(map[int32]int32)
	}
	p.parentOf[child] = parent
	var outs []outFrame
	var purged []transport.Frame
	if p.revoked[revKey{parent, wholePair}] != nil {
		outs, purged = p.revokeLocked(revKey{child, wholePair}, true)
	}
	p.mu.Unlock()
	release(purged)
	p.ship(outs)
}

// release releases frames taken out of the engine's tables, once the
// engine lock is dropped: a lent one returns its loan, which takes the
// lender's lock.
func release(frames []transport.Frame) {
	for i := range frames {
		frames[i].Release()
	}
}

// ContextRevoked reports whether the context pair at base has been
// revoked.
func (p *Proc) ContextRevoked(base int32) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.revoked[revKey{base, wholePair}] != nil
}

// ctxErrLocked returns the revocation error barring an operation on ctx
// with tag — its pair's, or its collective instance's — or nil.
func (p *Proc) ctxErrLocked(ctx, tag int32) error {
	if len(p.revoked) == 0 || isRecoveryTag(tag) {
		return nil
	}
	return cmp.Or(p.revoked[revKey{ctx, wholePair}], p.revoked[revKey{ctx, instanceOf(tag)}])
}

// ship sends engine-produced control frames without ever blocking the
// caller: a frame the mux takes at once — to a peer reached by
// reference, whose mailbox has room — is gone; the rest join the outbox,
// whose one sender (drain) ships them in post order the blocking way.
func (p *Proc) ship(outs []outFrame) {
	kept := outs[:0]
	for _, o := range outs {
		if !p.mux.TrySendv(int(o.dst), o.hdr, o.payload, o.recycle, o.loan) {
			kept = append(kept, o)
		}
	}
	if len(kept) == 0 {
		return
	}
	p.mu.Lock()
	p.outbox = append(p.outbox, kept...)
	start := !p.sending
	p.sending = true
	p.mu.Unlock()
	if start {
		go p.drain()
	}
}

// drain is the outbox's sender: it sends what the outbox holds, oldest
// first, and stops once it finds the outbox empty, waking a Close that
// waits for it. A send's error is a peer's teardown racing this one and
// is benign.
func (p *Proc) drain() {
	p.mu.Lock()
	for len(p.outbox) > 0 {
		batch := p.outbox
		p.outbox = nil
		p.mu.Unlock()
		for _, o := range batch {
			if o.loan != nil {
				p.mux.SendvLent(int(o.dst), o.hdr, o.payload, o.loan) //nolint:errcheck
			} else {
				p.mux.Sendv(int(o.dst), o.hdr, o.payload, o.recycle) //nolint:errcheck
			}
		}
		p.mu.Lock()
	}
	p.sending = false
	p.cond.Broadcast()
	p.mu.Unlock()
}

// revokeLocked records the revocation k, fails every pinned operation
// it bars, drops queued unexpected messages it bars, revokes the pairs
// derived from a revoked pair (Derive), and returns — when flood is set —
// the notices to transmit, and the dropped messages' frames, for the
// caller to release once the lock is dropped. Both are empty when k was
// already recorded.
func (p *Proc) revokeLocked(k revKey, flood bool) (outs []outFrame, purged []transport.Frame) {
	if p.revoked[k] != nil {
		return nil, nil
	}
	if p.revoked == nil {
		p.revoked = make(map[revKey]error)
	}
	var err error
	if k.inst == wholePair {
		err = fmt.Errorf("%w (ctx %d)", ErrCommRevoked, k.ctx)
		p.revoked[revKey{k.ctx + 1, wholePair}] = err
	} else {
		err = fmt.Errorf("%w (ctx %d, tag %d)", ErrInstanceCancelled, k.ctx, k.inst)
		p.instances.Add(1)
	}
	p.revoked[k] = err
	p.rec.Instant(obs.EvRevoke, uint32(k.ctx), int64(k.inst))

	p.failWhereLocked(err, func(r *Request, _ bool) bool { return k.bars(r.ctx, r.tag) })
	// Unexpected messages it bars will never be matched; release their
	// frames rather than hold them until Close.
	kept := p.arrived[:0]
	for _, m := range p.arrived {
		if k.bars(m.env.ctx, m.env.tag) {
			purged = append(purged, m.frame)
			continue
		}
		kept = append(kept, m)
	}
	clear(p.arrived[len(kept):])
	p.arrived = kept
	p.unexpDepth.Set(int64(len(p.arrived)))

	if flood {
		me := p.Rank()
		members := p.groups[k.ctx]
		if members == nil {
			// No registered table (the world pair, or a comm built before
			// registration): every rank is a potential member.
			members = make([]int, p.Size())
			for i := range members {
				members[i] = i
			}
		}
		for _, w := range members {
			if w == me || p.peerDown[w] != nil {
				continue
			}
			outs = append(outs, outFrame{dst: int32(w), hdr: buildRevoke(int32(me), k.ctx, k.inst)})
		}
	}
	for child, parent := range p.parentOf {
		if k.inst == wholePair && parent == k.ctx {
			o, f := p.revokeLocked(revKey{child, wholePair}, true)
			outs, purged = append(outs, o...), append(purged, f...)
		}
	}
	return outs, purged
}

// handleLocked runs the matching engine on one frame, which parseFrame
// returned with err. It owns f.frame:
// the frame is transferred to the matching request or the unexpected
// queue, and cleared where its ownership moves; whatever is left in it,
// and purged, the caller releases — like the frames a revocation purges
// from that queue, after the engine lock is dropped, because releasing a
// lent payload (a DATA frame's, or an offer's) completes its sender's
// request under the *sender's* engine lock, and two ranks delivering to
// each other (or one rank sending to itself) must never nest those
// locks. It returns frames to transmit and requests to complete once
// those frames are sent.
func (p *Proc) handleLocked(f *parsed, err error) (outs []outFrame, after []lateComplete, purged []transport.Frame) {
	if err != nil {
		// Not a frame: a bug at the peer or a stranger on a link, not a
		// user error. It can only be dropped, and what it was meant to
		// complete now waits, so leave the cause where a hang gets
		// looked into.
		p.malformed(f.kind, len(f.frame.Data))
		return nil, nil, nil
	}
	switch f.kind {
	case kEager, kEagerSync, kRts:
		if f.kind == kRts {
			p.rec.Instant(obs.EvRtsRecv, uint32(f.env.srcGroup), int64(f.size))
		}
		req := p.takeMatchLocked(f.env)
		if req == nil {
			if p.ctxErrLocked(f.env.ctx, f.env.tag) != nil {
				// Nothing can match a late arrival on a revoked pair or
				// a cancelled instance: its frame goes back now, like
				// those revokeLocked purged from the unexpected queue.
				return nil, nil, nil
			}
			m := inMsgPool.Get().(*inMsg)
			*m = inMsg{kind: f.kind, env: f.env, id: f.id, size: f.size, payload: f.payload}
			if f.kind == kRts {
				// An RTS header is all in m already: it goes back to the
				// pool now, not at a teardown that never empties arrived.
				// An offer's loan stays, with the payload it lends.
				f.frame.ReleaseHeader()
			} else {
				p.rec.Instant(obs.EvRecvUnexpected, uint32(f.env.srcGroup), int64(len(f.payload)))
			}
			// The entry owns the frame its payload lives in.
			m.frame, f.frame = f.frame, transport.Frame{}
			p.arrived = append(p.arrived, m)
			p.unexpDepth.Set(int64(len(p.arrived)))
			p.cond.Broadcast()
			return nil, nil, nil
		}
		p.stats.RecvsMatched.Add(1)
		if f.kind != kRts {
			p.rec.Instant(obs.EvRecvMatched, uint32(f.env.srcGroup), int64(len(f.payload)))
		}
		if reply := p.meetLocked(req, f.kind, f.env, f.id, f.size, f.payload, &f.frame); reply != nil {
			outs = append(outs, outFrame{dst: f.env.srcWorld, hdr: reply})
		}
	case kCts:
		req := p.pending[f.id]
		if req == nil || req.kind != reqSend || atomic.LoadInt32(req.offer()) != offerNone {
			// The send left the table after its RTS went out (cancelled,
			// revoked), or its RTS carried the payload and wants no grant.
			// The receiver has matched it and can no longer cancel: tell
			// it that no DATA will come, or it waits for ever.
			return []outFrame{{dst: f.env.srcWorld, hdr: buildWithdrawn(int32(p.Rank()), f.recvID)}}, nil, nil
		}
		delete(p.pending, f.id)
		p.rec.Instant(obs.EvCtsRecv, uint32(f.id), 0)
		p.rec.End(obs.EvSendRndv, uint32(f.id), 0)
		data := outFrame{
			dst:     f.env.srcWorld,
			hdr:     buildDataHdr(int32(p.Rank()), f.recvID),
			payload: req.data,
			recycle: req.recycle,
		}
		req.data = nil
		if req.lent {
			// From here the request is in no table: cancel, peer loss
			// and revocation cannot reach it, and only the loan's
			// return — the last reader letting go — completes it.
			data.loan = (*lentSend)(req)
		} else {
			after = append(after, lateComplete{req: req, st: Status{Bytes: req.size}})
		}
		outs = append(outs, data)
	case kData:
		// The payload lands in the caller's buffer (receive-into) or
		// the posted request takes the frame over by reference — never
		// cloned, unless it is on loan and the receive does not borrow.
		if req := p.takeGrantedLocked(f); req != nil {
			p.deliverLocked(req, f.payload, &f.frame, req.Stat)
		}
	case kWithdrawn:
		if req := p.takeGrantedLocked(f); req != nil {
			st := req.Stat
			st.Err = ErrWithdrawn
			p.completeLocked(req, nil, st)
		}
	case kAck:
		if req := p.pending[f.id]; req != nil && req.kind == reqSend {
			delete(p.pending, f.id)
			p.completeLocked(req, nil, Status{Bytes: req.size})
		}
	case kRevoke:
		// First receipt poisons the pair, or ends the instance, and
		// re-floods the notice: the flood is what makes revocation
		// reliable when the revoker dies mid-broadcast (every member that
		// hears it tells everyone).
		outs, purged = p.revokeLocked(revKey{f.env.ctx, f.env.tag}, true)
	}
	return outs, after, purged
}

// deliverLocked completes a receive request with an arrived payload,
// following the ownership protocol: a receive-into request gets the
// bytes copied straight into its caller-owned buffer and the frame
// stays with the caller of deliverLocked, to release once the engine
// lock is dropped; an ordinary receive takes the frame over (clearing
// *frame) and sees the payload by reference, with release deferred to
// the request's consumer. A lent payload cannot wait for a consumer
// that is the receiving *user* — the sender's completion would hinge on
// that user reaching its Wait, which MPI does not promise — so an
// ordinary receive gets a private pooled copy of it instead; a
// borrowing receive (IrecvBorrow), whose consumer is a library schedule
// that releases within bounded time, takes the lent frame over like any
// other. st carries SourceGroup/Tag; Bytes and Err are filled here.
func (p *Proc) deliverLocked(req *Request, payload []byte, frame *transport.Frame, st Status) {
	st.Bytes = len(payload) // full incoming size, on either path
	if req.into != nil {
		// Deposit whole messages only: a payload that is not an exact
		// multiple of the element size is a wire-format error the
		// binding reports, and like the unpack of an ordinary receive
		// it deposits nothing.
		avail := payload
		if es := req.intoES; es > 1 && len(avail)%es != 0 {
			avail = nil
		}
		n := copy(req.into, avail)
		p.stats.BytesCopied.Add(uint64(n))
		if len(avail) > len(req.into) {
			st.Err = ErrTruncated
		}
		p.completeLocked(req, nil, st)
		return
	}
	if frame.Lent() && !req.borrow {
		own := transport.GetBuf(len(payload))
		p.stats.BytesCopied.Add(uint64(copy(own, payload)))
		req.frame = transport.PooledFrame(nil, own, false, true)
		payload = own
	} else {
		p.stats.RecvsZeroCopy.Add(1)
		req.frame, *frame = *frame, transport.Frame{}
	}
	p.completeLocked(req, payload, st)
}

// Land is the engine's answer to a connection's read loop holding the
// head of a long frame from world rank peer (transport.Lander): a
// rendezvous DATA frame from the rank its receive was granted to, whose
// payload the receive's own buffer takes whole, is read off the socket
// straight into that buffer. The request leaves pending here and goes to
// no other table — the rule a lent send follows after its CTS — so
// neither failWhereLocked nor Cancel can complete it while the read loop
// is writing the caller's memory: Landed is its only completion. Land
// matches nothing, it looks up an id; whatever it declines (truncating,
// ragged, by-reference, from another rank) is staged and reaches the one
// kData handler.
func (p *Proc) Land(peer int, head []byte, frameLen int) (int, []byte, transport.Landing) {
	if len(head) < dataHdrLen || head[0] != kData {
		return 0, nil, nil
	}
	src := int32(binary.LittleEndian.Uint32(head[1:]))
	recvID := binary.LittleEndian.Uint64(head[5:])
	n := frameLen - dataHdrLen
	p.mu.Lock()
	defer p.mu.Unlock()
	req := p.pending[recvID] // a send has no into
	if req == nil || req.into == nil || n > len(req.into) || (req.intoES > 1 && n%req.intoES != 0) ||
		req.dstWorld != src || int(src) != peer {
		return 0, nil, nil
	}
	delete(p.pending, recvID)
	req.Stat.Bytes = n
	return dataHdrLen, req.into[:n], (*landing)(req)
}

// landing is a granted receive-into seen as the transport.Landing of the
// DATA frame being read into its buffer. A pointer conversion rather
// than a closure, so landing allocates nothing.
type landing Request

func (l *landing) Landed(err error) {
	r := (*Request)(l)
	p, st := r.proc, r.Stat
	if err != nil {
		// The stream broke mid-body: the peer is gone, and its own loss
		// report follows through the inbox.
		st.Bytes, st.Err = 0, &transport.PeerLostError{Peer: int(r.dstWorld), Err: err}
	} else {
		p.stats.BytesLanded.Add(uint64(st.Bytes))
	}
	p.complete(r, nil, st)
}

// meetLocked is where a matched message meets its receive, whichever of
// the two came first: the arrival arm of handleLocked and irecv both end
// here. An eager message is delivered, and a synchronous one owes its
// sender the ACK. An RTS is granted — the receive moves to pending under
// a fresh id, remembering the source and tag it matched and the rank the
// CTS goes to, so that only that rank's DATA or withdrawal answers it and
// only that rank's loss fails it — unless its sender is already known to
// be lost: the match stands, but the advertised payload died with it and
// a grant would wait for DATA that never comes. An offer needs no grant:
// its payload is delivered here once claimed, and one its sender
// withdrew first fails the receive as a withdrawal answering the grant
// would. The message is taken by its fields so that a matched arrival
// never builds an inMsg; frame is cleared if the receive took it over.
// reply, when not nil, is the ACK or CTS owed to env.srcWorld, to be
// sent once the engine lock is dropped.
func (p *Proc) meetLocked(req *Request, kind byte, env envelope, id uint64, size int, payload []byte, frame *transport.Frame) (reply []byte) {
	st := Status{SourceGroup: int(env.srcGroup), Tag: int(env.tag)}
	if kind != kRts {
		p.stats.BytesRecv.Add(uint64(len(payload)))
		p.deliverLocked(req, payload, frame, st)
		if kind == kEagerSync {
			p.stats.AcksSent.Inc()
			reply = buildAck(int32(p.Rank()), id)
		}
		return reply
	}
	p.stats.BytesRecv.Add(uint64(size))
	if st.Err = p.peerDown[int(env.srcWorld)]; st.Err != nil {
		p.completeLocked(req, nil, st)
		return nil
	}
	if l, ok := frame.Loan().(*lentSend); ok {
		if l.take() {
			p.deliverLocked(req, payload, frame, st)
		} else {
			st.Err = ErrWithdrawn
			p.completeLocked(req, nil, st)
		}
		return nil
	}
	p.nextID++
	req.id, req.Stat, req.dstWorld = p.nextID, st, env.srcWorld
	p.pending[req.id] = req
	return buildCts(int32(p.Rank()), id, req.id)
}

// takeGrantedLocked removes and returns the granted receive a DATA or
// WITHDRAWN frame answers, or nil: the id may be gone (cancelled sender,
// swept receive) or name a send, and an answer from any rank but the one
// the grant went to is dropped and counted.
func (p *Proc) takeGrantedLocked(f *parsed) *Request {
	req := p.pending[f.recvID]
	if req == nil || req.kind != reqRecv {
		return nil
	}
	if req.dstWorld != f.env.srcWorld {
		p.malformed(f.kind, len(f.frame.Data))
		return nil
	}
	delete(p.pending, f.recvID)
	return req
}

// takeMatchLocked removes and returns the oldest posted receive matching
// the envelope, or nil.
func (p *Proc) takeMatchLocked(env envelope) *Request {
	for i, r := range p.posted {
		if matches(r.ctx, r.src, r.tag, env) {
			p.posted = slices.Delete(p.posted, i, i+1)
			return r
		}
	}
	return nil
}

// matches reports whether a receive for (ctx, src, tag) — src and tag may
// be wildcards — takes a message sent as env.
func matches(ctx, src, tag int32, env envelope) bool {
	if ctx != env.ctx {
		return false
	}
	if src != AnySource && src != env.srcGroup {
		return false
	}
	if tag != AnyTag && tag != env.tag {
		return false
	}
	return true
}

// Isend starts a send of payload on context ctx to world rank dstWorld.
// srcGroup is the caller's rank within the communicator group (carried in
// the envelope for matching). The payload slice is owned by the engine
// after the call; recycle additionally vouches that no other reference
// to it exists, licensing the runtime to return it to the frame pool
// once the receiver has consumed it (payloads packed into pool-born
// buffers should pass true; shared or caller-retained buffers must pass
// false).
func (p *Proc) Isend(ctx int32, srcGroup int, dstWorld int, tag int, payload []byte, mode Mode, recycle bool) (*Request, error) {
	return p.isend(ctx, srcGroup, dstWorld, tag, payload, mode, recycle, false)
}

// IsendLent starts a send whose payload stays the caller's memory, on
// loan to the engine: nothing is copied on this side, the rendezvous
// DATA frame carries the caller's bytes in place, and the request
// completes when the loan is returned — once the device has serialised
// them or the receiving engine has copied them out
// (transport.Device.SendvLent).
// The caller must leave payload untouched until then, which is MPI's
// own rule for a send buffer. A lent send always takes the rendezvous
// protocol, whatever its size: an eager frame may sit in the receiver's
// unexpected queue long after the send completed, which a loan cannot
// allow. To a peer reached by reference the RTS is the loan (an offer):
// one frame, no grant, no DATA. Until the receiver grants the rendezvous
// — or claims the offer — nobody reads the payload, so cancellation,
// peer loss and revocation complete the request as they do any other;
// afterwards only the loan's return does.
func (p *Proc) IsendLent(ctx int32, srcGroup int, dstWorld int, tag int, payload []byte, mode Mode) (*Request, error) {
	return p.isend(ctx, srcGroup, dstWorld, tag, payload, mode, false, true)
}

func (p *Proc) isend(ctx int32, srcGroup int, dstWorld int, tag int, payload []byte, mode Mode, recycle, lent bool) (*Request, error) {
	env := envelope{
		srcWorld: int32(p.Rank()),
		ctx:      ctx,
		srcGroup: int32(srcGroup),
		tag:      int32(tag),
	}
	req := newRequest(p, reqSend)
	req.dstWorld = int32(dstWorld)
	req.ctx, req.tag = ctx, int32(tag)
	req.size = len(payload)

	small := !lent && p.eager(len(payload))
	std := small && mode != ModeSync
	offer := lent && p.ByReference(dstWorld)

	p.mu.Lock()
	bar := p.barLocked(ctx, int32(tag), dstWorld)
	switch {
	case bar != nil:
		p.completeLocked(req, nil, Status{Err: bar})
	case std:
		// Eager standard/ready: the payload is with the device once the
		// send below returns, so the request completes at once — under
		// the hold that found nothing barring it.
		p.completeLocked(req, nil, Status{Bytes: len(payload)})
	default:
		// Synchronous eager completes on the matched ACK, rendezvous
		// ships its payload on the CTS: either waits in pending.
		p.nextID++
		req.id = p.nextID
		if !small {
			req.data, req.recycle, req.lent = payload, recycle, lent
		}
		if offer {
			*req.offer() = offerOut
		}
		p.pending[req.id] = req
	}
	p.mu.Unlock()
	if bar != nil {
		return req, refuse(ctx, dstWorld, bar, payload, recycle)
	}
	if std {
		return req, p.sendStd(env, dstWorld, payload, recycle)
	}
	p.stats.BytesSent.Add(uint64(len(payload)))
	var err error
	if small {
		p.stats.SendsSync.Add(1)
		p.rec.Instant(obs.EvSendSync, uint32(dstWorld), int64(len(payload)))
		err = p.sendEager(dstWorld, buildEagerHdr(true, env, req.id), payload, recycle)
	} else {
		p.stats.SendsRndv.Add(1)
		if lent {
			p.stats.SendsLent.Add(1)
			p.stats.BytesLent.Add(uint64(len(payload)))
		}
		// The rendezvous span opens at the RTS and closes when the CTS
		// grant arrives, or an offer's loan comes home (both on this,
		// the sender's, timeline): its width is the receiver-matching
		// stall the eager path avoids.
		p.rec.Begin(obs.EvSendRndv, uint32(req.id), int64(len(payload)))
		rts := buildRts(env, req.id, len(payload))
		if offer {
			err = p.mux.SendvLent(dstWorld, rts, payload, (*lentSend)(req))
		} else {
			err = p.mux.Sendv(dstWorld, rts, nil, false)
		}
	}
	if err != nil {
		// The device refused the frame the peer's answer depends on, so
		// no CTS or ACK will come, and nothing else sweeps the request: a
		// peer reached by reference is closed without a loss report. If
		// it is still pending (a sweep may have been quicker) it fails
		// here, and its unshipped payload is reclaimed.
		p.mu.Lock()
		if p.pending[req.id] == req {
			p.dropPendingLocked(req, Status{Err: err})
		}
		p.mu.Unlock()
		return req, fmt.Errorf("core: send to rank %d: %w", dstWorld, err)
	}
	return req, nil
}

// Send is a blocking send: Isend, Wait and Recycle in one call, with the
// error either would report, whether the send was barred or failed on
// its way. An eager standard or ready send builds no request at all: it
// is complete once its frame is with the device.
func (p *Proc) Send(ctx int32, srcGroup int, dstWorld int, tag int, payload []byte, mode Mode, recycle bool) error {
	if mode == ModeSync || !p.eager(len(payload)) {
		req, err := p.isend(ctx, srcGroup, dstWorld, tag, payload, mode, recycle, false)
		if err == nil {
			err = req.Wait().Err
		}
		req.Recycle()
		return err
	}
	p.mu.Lock()
	bar := p.barLocked(ctx, int32(tag), dstWorld)
	p.mu.Unlock()
	if bar != nil {
		return refuse(ctx, dstWorld, bar, payload, recycle)
	}
	env := envelope{srcWorld: int32(p.Rank()), ctx: ctx, srcGroup: int32(srcGroup), tag: int32(tag)}
	return p.sendStd(env, dstWorld, payload, recycle)
}

// eager reports whether a payload of n bytes goes eagerly.
func (p *Proc) eager(n int) bool { return p.eagerLim >= 0 && n <= p.eagerLim }

// barLocked returns what bars a send on ctx with tag to world rank dst,
// or nil: the local endpoint is dead (fault-injected or device failure),
// the context is revoked, or the destination is lost.
func (p *Proc) barLocked(ctx, tag int32, dst int) error {
	if p.fatal != nil {
		return p.fatal
	}
	if err := p.ctxErrLocked(ctx, tag); err != nil {
		return err
	}
	return p.peerDown[dst]
}

// refuse gives a barred send's payload back to the pool if it came from
// there, and says what barred the send.
func refuse(ctx int32, dst int, bar error, payload []byte, recycle bool) error {
	if recycle {
		transport.PutBuf(payload)
	}
	return fmt.Errorf("core: send to rank %d on context %d: %w", dst, ctx, bar)
}

// sendStd ships an eager standard or ready send, which nothing barred.
func (p *Proc) sendStd(env envelope, dst int, payload []byte, recycle bool) error {
	p.stats.BytesSent.Add(uint64(len(payload)))
	p.stats.SendsEager.Add(1)
	p.rec.Instant(obs.EvSendEager, uint32(dst), int64(len(payload)))
	if err := p.sendEager(dst, buildEagerHdr(false, env, 0), payload, recycle); err != nil {
		return fmt.Errorf("core: eager send: %w", err)
	}
	return nil
}

// sendEager ships an eager frame. A payload that fits the room left in
// the header's pooled buffer rides there — one buffer crosses to the
// receiver instead of two, and the frame is the contiguous one every
// socket receive produces, so parseFrame and the wire are as they were.
// The bound is the pool's, not a setting: the smallest class minus the
// eager header.
func (p *Proc) sendEager(dst int, hdr, payload []byte, recycle bool) error {
	if len(payload) <= cap(hdr)-len(hdr) {
		hdr = append(hdr, payload...)
		p.stats.BytesInlined.Add(uint64(len(payload)))
		if recycle {
			transport.PutBuf(payload)
		}
		payload, recycle = nil, false
	}
	return p.mux.Sendv(dst, hdr, payload, recycle)
}

// Irecv posts a receive on context ctx for (src, tag), either of which
// may be the AnySource/AnyTag wildcard. src is a group rank. The payload
// arrives by reference in Request.Payload; release it with
// Request.ReleaseFrame (or Recycle) once consumed.
func (p *Proc) Irecv(ctx int32, src, tag int32) *Request {
	return p.irecv(ctx, src, tag, nil, 0, false)
}

// IrecvBorrow posts a receive like Irecv whose consumer undertakes to
// Recycle the request within bounded time of its completion, whatever
// the user does: a lent payload (IsendLent) is then handed over by
// reference instead of through a private copy, and the sender's request
// completes at that Recycle. Until then Payload is the sender's memory,
// exclusively the borrower's. It is for library schedules that read an
// operand once (a reduction's fold); never for a receive a user waits
// on.
func (p *Proc) IrecvBorrow(ctx int32, src, tag int32) *Request {
	return p.irecv(ctx, src, tag, nil, 0, true)
}

// IrecvInto posts a receive like Irecv, but the payload is deposited
// directly into buf — the caller's buffer — with no intermediate
// allocation or handed-over frame. elemSize is the wire element size
// (<= 1 means byte granularity): a message that is not a whole number
// of elements is a wire-format error for the binding to report and
// deposits nothing, like the unpack of an ordinary receive. If the
// incoming message is larger than buf, buf is filled and the completion
// status carries ErrTruncated; Status.Bytes always reports the full
// incoming size. buf must stay untouched until the request completes.
func (p *Proc) IrecvInto(ctx int32, src, tag int32, buf []byte, elemSize int) *Request {
	if buf == nil {
		// A receive-into with no buffer is a zero-length receive; keep
		// the into marker non-nil so delivery stays on the into path.
		buf = emptyInto
	}
	return p.irecv(ctx, src, tag, buf, elemSize, false)
}

// emptyInto marks a zero-capacity receive-into buffer (into == nil means
// "ordinary receive", so nil buffers need a distinct sentinel).
var emptyInto = make([]byte, 0, 1)

func (p *Proc) irecv(ctx, src, tag int32, into []byte, elemSize int, borrow bool) *Request {
	req := newRequest(p, reqRecv)
	req.ctx, req.src, req.tag = ctx, src, tag
	req.into = into
	req.intoES = elemSize
	req.borrow = borrow

	p.mu.Lock()
	// A receive on a revoked context can never complete normally; fail
	// it now (revocation already purged the pair's unexpected queue).
	bar := p.ctxErrLocked(ctx, tag)
	var m *inMsg
	var idx int
	if bar == nil {
		m, idx = p.findArrivedLocked(ctx, src, tag)
	}
	if m == nil {
		// No queued match. On a dead endpoint parking the receive would
		// hang the caller on an engine with no progress (checked after
		// the queue so frames delivered before death stay readable), and
		// one pinned to an already-lost peer can never match either.
		if bar == nil {
			bar = p.fatal
		}
		if bar == nil {
			bar = p.lostSrcLocked(ctx, src)
		}
		if bar != nil {
			p.completeLocked(req, nil, Status{SourceGroup: int(src), Tag: int(tag), Err: bar})
		} else {
			p.posted = append(p.posted, req)
		}
		p.mu.Unlock()
		return req
	}
	p.arrived = slices.Delete(p.arrived, idx, idx+1)
	p.unexpDepth.Set(int64(len(p.arrived)))
	p.stats.RecvsUnexpected.Add(1)
	reply := p.meetLocked(req, m.kind, m.env, m.id, m.size, m.payload, &m.frame)
	p.mu.Unlock()
	m.frame.Release() // a receive-into left the queued frame behind
	peer := int(m.env.srcWorld)
	*m = inMsg{}
	inMsgPool.Put(m)
	if reply != nil {
		p.mux.Sendv(peer, reply, nil, false) //nolint:errcheck // teardown race
	}
	return req
}

// findArrivedLocked returns the oldest unexpected message matching
// (ctx, src, tag) and its index.
func (p *Proc) findArrivedLocked(ctx, src, tag int32) (*inMsg, int) {
	for i, m := range p.arrived {
		if matches(ctx, src, tag, m.env) {
			return m, i
		}
	}
	return nil, -1
}

// Probe blocks until a message matching (ctx, src, tag) has arrived (or
// at least been advertised via RTS) and returns its envelope status
// without receiving it; or until none ever can, which is its error.
func (p *Proc) Probe(ctx, src, tag int32) (st Status, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.awaitLocked(nil, func() (found bool) {
		st, found, err = p.probeLocked(ctx, src, tag)
		return found || err != nil
	})
	return st, err
}

// Iprobe is the non-blocking Probe: found is false, with no error, while
// nothing matching has arrived and something still may.
func (p *Proc) Iprobe(ctx, src, tag int32) (st Status, found bool, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.probeLocked(ctx, src, tag)
}

// probeLocked is the one check behind Probe and Iprobe: the status of the
// oldest matching arrival, else what bars one from ever arriving — a
// revoked context, a lost source, a dead endpoint.
func (p *Proc) probeLocked(ctx, src, tag int32) (Status, bool, error) {
	if m, _ := p.findArrivedLocked(ctx, src, tag); m != nil {
		return statusOf(m), true, nil
	}
	err := p.ctxErrLocked(ctx, tag)
	if err == nil {
		err = p.lostSrcLocked(ctx, src)
	}
	if err == nil && p.closed {
		err = transport.ErrClosed
	}
	return Status{SourceGroup: int(src), Tag: int(tag)}, false, err
}

func statusOf(m *inMsg) Status {
	n := len(m.payload)
	if m.kind == kRts {
		n = m.size
	}
	return Status{SourceGroup: int(m.env.srcGroup), Tag: int(m.env.tag), Bytes: n}
}

// Cancel attempts to cancel a request. Receives cancel if still posted;
// sends cancel if the rendezvous has not been granted, or the offer not
// taken. Returns true if the cancellation took effect.
func (p *Proc) Cancel(r *Request) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if r.completed.Load() {
		return false
	}
	if r.kind == reqSend {
		if p.pending[r.id] != r || !p.dropPendingLocked(r, Status{Cancelled: true}) {
			return false
		}
		p.stats.Cancelled.Add(1)
		return true
	}
	if !p.unpostLocked(r) {
		return false
	}
	p.stats.Cancelled.Add(1)
	p.completeLocked(r, nil, Status{Cancelled: true})
	return true
}

// MaxContextPairs is how many context pairs an engine hands out over its
// life: pair k is (2k, 2k+1), and context ids are int32.
const MaxContextPairs = 1 << 30

// ErrContextsExhausted fails the allocation of a context pair beyond
// MaxContextPairs; the agreed base is the same on every member, so every
// member fails alike.
var ErrContextsExhausted = errors.New("core: context ids exhausted")

// NoSource is a source no frame carries. A receive posted from it — a
// hold — is completed by Settle, by a sweep that reaches its context or
// its engine, or by Cancel; never by a message.
const NoSource int32 = math.MaxInt32

// Settle completes r, a hold (a receive posted from NoSource), with err
// as its status error, from outside the mailbox and from any goroutine:
// it is how a member of an in-process island finishes another's wait,
// under the waiter's engine lock, as a loan's return does. It reports
// false, touching nothing, once r is no longer posted: a sweep or a
// cancellation completed it first.
func (p *Proc) Settle(r *Request, err error) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.unpostLocked(r) {
		return false
	}
	p.completeLocked(r, nil, Status{SourceGroup: int(r.src), Tag: int(r.tag), Err: err})
	return true
}

// unpostLocked takes r out of posted, reporting whether it was there.
func (p *Proc) unpostLocked(r *Request) bool {
	i := slices.Index(p.posted, r)
	if i >= 0 {
		p.posted = slices.Delete(p.posted, i, i+1)
	}
	return i >= 0
}

// AllocContexts runs the local half of collective context-id allocation:
// it returns this rank's candidate pair base. The binding layer agrees on
// the max across the group and reports it back via CommitContexts.
func (p *Proc) AllocContexts() int32 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return int32(min(p.nextCtx, math.MaxInt32)) // past the last pair: a base no pair has
}

// CommitContexts records the group-agreed context base; the new
// communicator uses (base, base+1) and the counter moves past them. A
// base whose pair lies past the last of MaxContextPairs is refused with
// ErrContextsExhausted.
func (p *Proc) CommitContexts(base int32) error {
	if base < 0 || int64(base)+2 > 2*MaxContextPairs {
		return ErrContextsExhausted
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.nextCtx = max(p.nextCtx, int64(base)+2)
	return nil
}

// PendingUnexpected reports the current unexpected-queue length
// (diagnostics and tests).
func (p *Proc) PendingUnexpected() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.arrived)
}
