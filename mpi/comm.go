package mpi

import (
	"cmp"
	"errors"
	"sync"

	"gompi/internal/coll"
	"gompi/internal/core"
	"gompi/internal/dtype"
	"gompi/internal/transport"
)

// Comm is the communicator base class (paper Fig. 1): all communication
// functions are members of Comm or its subclasses Intracomm (with the
// collectives and constructors) and Intercomm. A communicator owns a
// pair of reserved context ids — one for point-to-point traffic, one for
// collectives — so traffic on different communicators can never
// cross-match.
type Comm struct {
	env   *Env
	group []int // world ranks indexed by group rank
	rank  int   // caller's group rank
	inter bool
	// remote holds the remote group of an intercommunicator; for
	// intracommunicators it aliases group, so destination ranks always
	// resolve through it (MPI inter-comm pt2pt addresses the remote
	// group).
	remote  []int
	ptpCtx  int32
	collCtx int32
	cl      *coll.Comm // the collective layer's view, with the communicator's plan cache
	name    string
	freed   bool
	errh    Errhandler
	attrs   *attrMap

	// Fault-tolerance state (see ft.go): the group ranks whose failure
	// this member has acknowledged with FailureAck. Behind a pointer so
	// derived views of one communicator (a topology comm embedding the
	// Intracomm it split from) share one ack state, and Comm values
	// stay copyable.
	ft *ftState
	// private marks a duplicate the runtime made for its own use
	// (privateDup).
	private bool
}

// ftState is a communicator's ULFM acknowledgement state.
type ftState struct {
	mu    sync.Mutex
	acked map[int]bool
}

// buildComm initializes c in place — not by struct assignment, because
// Comm carries a mutex (the fault-tolerance ack state) once built.
func (e *Env) buildComm(c *Comm, group []int, myRank int, ctxBase int32, name string) {
	c.attrs = &attrMap{}
	c.ft = &ftState{}
	c.env = e
	c.group = group
	c.rank = myRank
	c.remote = group
	c.ptpCtx = ctxBase
	c.collCtx = ctxBase + 1
	c.name = name
	c.cl = &coll.Comm{
		P:     e.proc,
		Ctx:   c.collCtx,
		Rank:  myRank,
		Size:  len(group),
		World: func(gr int) int { return group[gr] },
	}
	// Register the rank table with the engine: that is what lets it
	// attribute a peer death to this communicator's group ranks and
	// route revocation notices to exactly the members.
	e.proc.RegisterGroup(ctxBase, group)
}

// Base returns the communicator as its base class, whatever kind embeds
// it: the one accessor through which a layer over the binding
// (mpi/typed) reaches the point-to-point methods of every communicator
// kind with a static call.
func (c *Comm) Base() *Comm { return c }

// Rank returns the caller's rank within the (local) group.
func (c *Comm) Rank() int { return c.rank }

// Size returns the size of the (local) group.
func (c *Comm) Size() int { return len(c.group) }

// Group returns the communicator's local group (MPI_Comm_group).
func (c *Comm) Group() *Group {
	return &Group{ranks: append([]int(nil), c.group...), me: c.env.proc.Rank()}
}

// TestInter reports whether this is an inter-communicator
// (MPI_Comm_test_inter).
func (c *Comm) TestInter() bool { return c.inter }

// Name returns the communicator's name.
func (c *Comm) Name() string { return c.name }

// SetName names the communicator.
func (c *Comm) SetName(n string) { c.name = n }

// Errhandler returns the communicator's error handler.
func (c *Comm) Errhandler() Errhandler { return c.errh }

// SetErrhandler installs an error handler (MPI_Errhandler_set).
// ErrorsReturn (the default) delivers errors as return values;
// ErrorsAreFatal panics.
func (c *Comm) SetErrhandler(h Errhandler) { c.errh = h }

// Free marks the communicator freed (MPI_Comm_free) — one of the two
// classes the paper gives an explicit Free (§2.1) — and empties its
// plan cache and the engine's tables of its group: a freed
// communicator holds no schedules, no island and no group table.
// Subsequent use raises ErrComm.
func (c *Comm) Free() error {
	if err := c.ok(); err != nil {
		return err
	}
	c.deleteAllAttrs()
	c.cl.DropPlans()
	c.env.proc.ForgetGroup(c.ptpCtx)
	c.freed = true
	return nil
}

// raise routes an error through the communicator's error handler.
func (c *Comm) raise(err error) error {
	if err != nil && c.errh == ErrorsAreFatal {
		panic(err)
	}
	return err
}

// collErr classifies a collective's failure in its schedule. On a
// communicator the runtime owns (privateDup) it first revokes it: a
// member that left the collective may owe its peers messages, and they
// must not wait for them on a communicator nobody else can revoke. A
// cancelled instance needs no revocation: its cancellation has ended it
// on every member already.
func (c *Comm) collErr(err error) error {
	if c.private && !errors.Is(err, core.ErrInstanceCancelled) {
		c.env.proc.Revoke(c.ptpCtx)
	}
	return mapErr(err)
}

// leaderBcast is the binding's one root-decision path: it runs lead
// on the member of local rank root and broadcasts the outcome to the
// group — the bytes lead returned, or the class and text of its error —
// so every member, the root included, returns the same bytes or an
// *Error of the same class and message. Connect/Accept, Spawn,
// OpenFile, File.SetSize and the intercommunicator leaders' exchanges
// all decide through it.
func (c *Comm) leaderBcast(root int, lead func() ([]byte, error)) ([]byte, error) {
	var out []byte
	if c.rank == root {
		b, err := lead()
		if e, ok := err.(*Error); ok {
			b = []byte(e.Msg)
		} else if err != nil {
			b = []byte(err.Error())
		}
		out = append([]byte{byte(ClassOf(err))}, b...)
	}
	out, err := c.cl.Bcast(root, out)
	switch {
	case err != nil:
		return nil, c.collErr(err)
	case ErrClass(out[0]) != ErrSuccess:
		return nil, &Error{Class: ErrClass(out[0]), Msg: string(out[1:])}
	}
	return out[1:], nil
}

func (c *Comm) ok() error {
	switch {
	case c == nil:
		return errf(ErrComm, "nil communicator")
	case c.freed:
		return errf(ErrComm, "communicator %q has been freed", c.name)
	case c.env.finalized.Load():
		return errf(ErrComm, "MPI already finalized")
	}
	return nil
}

func (c *Comm) checkDest(rank int) error {
	if rank == ProcNull {
		return nil
	}
	if rank < 0 || rank >= len(c.remote) {
		return errf(ErrRank, "destination rank %d out of range [0,%d)", rank, len(c.remote))
	}
	return nil
}

func (c *Comm) checkTag(tag int, wildcardOK bool) error {
	if wildcardOK && tag == AnyTag {
		return nil
	}
	if tag < 0 || tag > TagUB {
		return errf(ErrTag, "tag %d out of range [0,%d]", tag, TagUB)
	}
	return nil
}

func (c *Comm) checkType(d *Datatype) error {
	switch {
	case d == nil:
		return errf(ErrType, "nil datatype")
	case d.t.IsMarker():
		return errf(ErrType, "%s cannot be used in communication", d.Name())
	case !d.Committed():
		return errf(ErrType, "datatype %s not committed", d.Name())
	}
	return nil
}

// sendChecks bundles the argument validation shared by every
// point-to-point send.
func (c *Comm) sendChecks(d *Datatype, dest, tag int) error {
	if err := c.ok(); err != nil {
		return err
	}
	if err := c.checkType(d); err != nil {
		return err
	}
	if err := c.checkDest(dest); err != nil {
		return err
	}
	return c.checkTag(tag, false)
}

// recvChecks is sendChecks for a receive; it returns the envelope in
// the engine's terms (recvEnvelope).
func (c *Comm) recvChecks(d *Datatype, source, tag int) (src, tg int32, err error) {
	if err := c.ok(); err != nil {
		return 0, 0, err
	}
	if err := c.checkType(d); err != nil {
		return 0, 0, err
	}
	return c.recvEnvelope(source, tag)
}

// recvEnvelope validates a receive-side source and tag, wildcards
// included, and translates them into the engine's. A ProcNull source
// passes; each caller answers it itself.
func (c *Comm) recvEnvelope(source, tag int) (src, tg int32, err error) {
	if source != ProcNull && source != AnySource && (source < 0 || source >= len(c.remote)) {
		return 0, 0, errf(ErrRank, "source rank %d out of range [0,%d)", source, len(c.remote))
	}
	if err := c.checkTag(tag, true); err != nil {
		return 0, 0, err
	}
	src, tg = int32(source), int32(tag)
	if source == AnySource {
		src = core.AnySource
	}
	if tag == AnyTag {
		tg = core.AnyTag
	}
	return src, tg, nil
}

// section is the binding's buffer argument, mpiJava's (Object buf, int
// offset, int count, Datatype datatype) of paper §2, carried as one
// value from each public entry point to wherever it is packed, lent,
// landed or unpacked. The entry point resolves buf once (dtype.BufOf)
// and keeps only what that read: the interface is never stored or
// passed on, so the caller's conversion to any stays on its stack.
type section struct {
	buf           dtype.Buf
	offset, count int
	d             *Datatype
}

// check rejects a section Pack or Unpack would reject, so a call fails
// before any message moves. It returns the buffer's length in elements.
func (s section) check() (int, error) {
	n, err := s.buf.CheckSection(s.offset, s.count, s.d.t)
	return n, mapErr(err)
}

// pack appends the section's wire image to dst.
func (s section) pack(dst []byte) ([]byte, error) {
	if _, err := s.check(); err != nil {
		return dst, err
	}
	return s.packChecked(dst)
}

// unpack deposits a wire image in the section and returns the basic
// elements deposited; a longer image fills the section and fails with
// ErrTruncate.
func (s section) unpack(wire []byte) (int, error) {
	if _, err := s.check(); err != nil {
		return 0, err
	}
	return s.unpackChecked(wire)
}

// packChecked and unpackChecked are pack and unpack for a section that
// check has passed — a collective's, validated once by its planX —
// which they do not validate again.
func (s section) packChecked(dst []byte) ([]byte, error) {
	wire, err := s.buf.Pack(dst, s.offset, s.count, s.d.t)
	return wire, mapErr(err)
}

func (s section) unpackChecked(wire []byte) (int, error) {
	n, err := s.buf.Unpack(wire, s.offset, s.count, s.d.t)
	return n, mapErr(err)
}

// view returns the section's raw-byte window when it can travel as it
// lies in memory: a contiguous fixed-size datatype over a native (or
// named-primitive) slice on a little-endian host. n is the buffer length
// already validated by Check. The returned bytes alias buf: a
// receive has the engine deposit the payload directly in the caller's
// memory, a large send lends them out (lendView).
func (s section) view(n int) ([]byte, bool) {
	t := s.d.t
	if !t.IsContiguous() || t.Class() == dtype.Obj {
		return nil, false
	}
	elems := s.count * t.Size()
	if s.offset < 0 || s.count < 0 || s.offset+elems > n {
		return nil, false // out of bounds: let the classic path report it
	}
	return s.buf.ByteView(s.offset, elems)
}

// pack encodes a send section into a wire payload. The payload is drawn
// from the frame pool whenever the wire size is statically known (every
// fixed-size class); pooled reports that, which downstream layers
// translate into the exclusive-ownership recycle promise, letting the
// consuming rank return the buffer to the pool. Object payloads have no
// size bound and fall back to the allocator.
func (c *Comm) pack(s section) (payload []byte, pooled bool, err error) {
	var dst []byte
	if n := s.d.t.WireBytes(s.count); n >= 0 {
		dst = transport.GetBuf(n)[:0]
		pooled = true
	}
	if payload, err = s.pack(dst); err != nil {
		if pooled {
			transport.PutBuf(dst)
		}
		return nil, false, err
	}
	return payload, pooled, nil
}

// wire is how a send section goes onto the wire, the one rule for a
// message and for a collective's block: its own bytes, to go out on
// loan (lent), where lendView applies; else packed once into a frame
// drawn from the pool (pooled; see pack).
func (c *Comm) wire(s section) (b []byte, lent, pooled bool, err error) {
	if view, ok := c.lendView(s); ok {
		return view, true, false, nil
	}
	b, pooled, err = c.pack(s)
	return b, false, pooled, err
}

// lendView returns the raw-byte window of a send section that can go
// out on loan instead of being packed: larger than the eager limit (an
// eager message is buffered at the receiver, so it must own its bytes)
// and of the shape the receive side deposits in place (section.view).
// Everything else, argument errors included, is left to pack.
func (c *Comm) lendView(s section) ([]byte, bool) {
	if !s.d.t.IsContiguous() || s.d.t.WireBytes(s.count) <= c.env.proc.EagerLimit() {
		return nil, false
	}
	n, err := s.buf.Check(s.d.t)
	if err != nil {
		return nil, false
	}
	return s.view(n)
}

// startSend runs validation and the core send; the shared engine under
// every send-mode entry point but the buffered ones. A large contiguous
// section goes out on loan — the engine reads the caller's buffer in
// place and the request completes when the loan is returned — and
// anything else is packed into a pooled frame first, then sent by the
// engine's blocking Send when block is set, which returns no request.
// It returns a nil request for ProcNull destinations.
func (c *Comm) startSend(s section, dest, tag int, mode core.Mode, block bool) (*core.Request, error) {
	if err := c.sendChecks(s.d, dest, tag); err != nil {
		return nil, err
	}
	if dest == ProcNull {
		return nil, nil
	}
	payload, lent, pooled, err := c.wire(s)
	if err != nil {
		return nil, err
	}
	var creq *core.Request
	switch {
	case lent:
		creq, err = c.env.proc.IsendLent(c.ptpCtx, c.rank, c.remote[dest], tag, payload, mode)
	case block:
		err = c.env.proc.Send(c.ptpCtx, c.rank, c.remote[dest], tag, payload, mode, pooled)
	default:
		creq, err = c.env.proc.Isend(c.ptpCtx, c.rank, c.remote[dest], tag, payload, mode, pooled)
	}
	if err != nil {
		if creq != nil {
			creq.Recycle() // a refused send's request is complete
		}
		return nil, mapErr(err)
	}
	return creq, nil
}

// isendMode starts a send in the given mode; the shared engine of
// Isend/Issend/Irsend and of persistent sends.
func (c *Comm) isendMode(s section, dest, tag int, mode core.Mode) (*Request, error) {
	creq, err := c.startSend(s, dest, tag, mode, false)
	if err != nil {
		return nil, c.raise(err)
	}
	if creq == nil {
		return preCompleted(nullStatus()), nil
	}
	return &Request{comm: c, creq: creq}, nil
}

// sendBlocking is the shared engine of the blocking send modes. A packed
// send is the engine's blocking Send; a lent one's request never
// escapes, so it is recycled straight back to the engine's request pool
// — a blocking send allocates nothing on the steady-state hot path.
// Either way a send that failed on its way says so.
func (c *Comm) sendBlocking(s section, dest, tag int, mode core.Mode) error {
	creq, err := c.startSend(s, dest, tag, mode, true)
	if err != nil || creq == nil {
		return c.raise(err)
	}
	err = creq.Wait().Err
	creq.Recycle()
	return c.raise(mapErr(err))
}

// Send is the blocking standard-mode send (MPI_Send; paper §2):
//
//	public void Send(Object buf, int offset, int count,
//	                 Datatype datatype, int dest, int tag)
func (c *Comm) Send(buf any, offset, count int, d *Datatype, dest, tag int) error {
	return c.sendBlocking(section{dtype.BufOf(buf), offset, count, d}, dest, tag, core.ModeStandard)
}

// Ssend is the blocking synchronous-mode send: it returns only after the
// receiver has matched the message (MPI_Ssend).
func (c *Comm) Ssend(buf any, offset, count int, d *Datatype, dest, tag int) error {
	return c.sendBlocking(section{dtype.BufOf(buf), offset, count, d}, dest, tag, core.ModeSync)
}

// Rsend is the blocking ready-mode send; a matching receive must already
// be posted (MPI_Rsend).
func (c *Comm) Rsend(buf any, offset, count int, d *Datatype, dest, tag int) error {
	return c.sendBlocking(section{dtype.BufOf(buf), offset, count, d}, dest, tag, core.ModeReady)
}

// Bsend is the blocking buffered-mode send: the message is copied into
// the attached buffer and the call returns immediately (MPI_Bsend).
func (c *Comm) Bsend(buf any, offset, count int, d *Datatype, dest, tag int) error {
	req, err := c.Ibsend(buf, offset, count, d, dest, tag)
	if err != nil {
		return err
	}
	_, err = req.Wait()
	return c.raise(err)
}

// Isend starts a non-blocking standard-mode send (MPI_Isend). The
// buffer section must stay unmodified until the request completes: a
// large contiguous section is sent from where it lies, not copied at
// the call.
func (c *Comm) Isend(buf any, offset, count int, d *Datatype, dest, tag int) (*Request, error) {
	return c.isendMode(section{dtype.BufOf(buf), offset, count, d}, dest, tag, core.ModeStandard)
}

// Issend starts a non-blocking synchronous-mode send (MPI_Issend).
func (c *Comm) Issend(buf any, offset, count int, d *Datatype, dest, tag int) (*Request, error) {
	return c.isendMode(section{dtype.BufOf(buf), offset, count, d}, dest, tag, core.ModeSync)
}

// Irsend starts a non-blocking ready-mode send (MPI_Irsend).
func (c *Comm) Irsend(buf any, offset, count int, d *Datatype, dest, tag int) (*Request, error) {
	return c.isendMode(section{dtype.BufOf(buf), offset, count, d}, dest, tag, core.ModeReady)
}

// Ibsend starts a non-blocking buffered-mode send (MPI_Ibsend). The
// packed message is charged against the attached buffer; the user-visible
// request completes immediately, and the space is released when the
// underlying transfer finishes.
func (c *Comm) Ibsend(buf any, offset, count int, d *Datatype, dest, tag int) (*Request, error) {
	return c.ibsend(section{dtype.BufOf(buf), offset, count, d}, dest, tag)
}

func (c *Comm) ibsend(s section, dest, tag int) (*Request, error) {
	if err := c.sendChecks(s.d, dest, tag); err != nil {
		return nil, c.raise(err)
	}
	if dest == ProcNull {
		return preCompleted(nullStatus()), nil
	}
	payload, pooled, err := c.pack(s)
	if err != nil {
		return nil, c.raise(err)
	}
	if err := c.env.reserveBuffer(len(payload)); err != nil {
		if pooled {
			transport.PutBuf(payload)
		}
		return nil, c.raise(err)
	}
	creq, err := c.env.proc.Isend(c.ptpCtx, c.rank, c.remote[dest], tag, payload, core.ModeStandard, pooled)
	if err != nil {
		c.env.releaseBuffer(len(payload))
		return nil, c.raise(mapErr(err))
	}
	n := len(payload)
	env := c.env
	creq.OnDone(func() { env.releaseBuffer(n) })
	st := nullStatus()
	st.bytes = n
	return preCompleted(st), nil
}

// startRecv runs the shared receive-side validation; n is the validated
// buffer length in elements. A ProcNull source passes.
func (c *Comm) startRecv(s section, source, tag int) (src, tg int32, n int, err error) {
	if src, tg, err = c.recvChecks(s.d, source, tag); err != nil {
		return 0, 0, 0, err
	}
	// Validate the buffer eagerly so errors surface at the call, not at
	// completion.
	n, err = s.buf.Check(s.d.t)
	return src, tg, n, mapErr(err)
}

// postRecv posts the core receive for a validated section: straight
// into the caller's memory where section.view applies — whichever
// goroutine drives the engine's progress then copies sender memory to
// receiver memory once, with no staging frame and no unpack pass — and
// by reference, to be unpacked at completion, for every other shape.
func (c *Comm) postRecv(s section, n int, src, tg int32) (creq *core.Request, into bool) {
	if view, ok := s.view(n); ok {
		return c.env.proc.IrecvInto(c.ptpCtx, src, tg, view, s.d.t.Class().WireSize()), true
	}
	return c.env.proc.Irecv(c.ptpCtx, src, tg), false
}

// Irecv starts a non-blocking receive (MPI_Irecv). The buffer section
// is filled by the time the request completes — for a contiguous
// fixed-size datatype on a little-endian host the engine lands the
// payload in it directly; other shapes are staged and unpacked at
// completion — and must not be touched before. If the message is longer
// than the section, the section is filled and the request completes
// with an ErrTruncate-class error (MPI_ERR_TRUNCATE semantics).
func (c *Comm) Irecv(buf any, offset, count int, d *Datatype, source, tag int) (*Request, error) {
	return c.irecv(section{dtype.BufOf(buf), offset, count, d}, source, tag)
}

func (c *Comm) irecv(s section, source, tag int) (*Request, error) {
	src, tg, n, err := c.startRecv(s, source, tag)
	if err != nil {
		return nil, c.raise(err)
	}
	if source == ProcNull {
		return preCompleted(nullStatus()), nil
	}
	creq, into := c.postRecv(s, n, src, tg)
	return &Request{comm: c, creq: creq, isRecv: true, into: into, sec: s}, nil
}

// Recv is the blocking receive (MPI_Recv; paper §2):
//
//	public Status Recv(Object buf, int offset, int count,
//	                   Datatype datatype, int source, int tag)
//
// No mpi.Request handle is built and the core request is recycled. The
// returned Status is allocated in the caller's frame: Recv must stay
// inlinable (`go build -gcflags=-m` reports "can inline
// (*Comm).Recv"), so a caller that drops the status allocates nothing
// and one that keeps it pays for it alone. See Irecv for where the
// payload lands.
func (c *Comm) Recv(buf any, offset, count int, d *Datatype, source, tag int) (*Status, error) {
	return c.recv(new(Status), buf, offset, count, d, source, tag)
}

// recv is Recv filling st, which it returns unless the call failed
// validation.
func (c *Comm) recv(st *Status, buf any, offset, count int, d *Datatype, source, tag int) (*Status, error) {
	s := section{dtype.BufOf(buf), offset, count, d}
	src, tg, n, err := c.startRecv(s, source, tag)
	if err != nil {
		return nil, c.raise(err)
	}
	if source == ProcNull {
		*st = *nullStatus()
		return st, nil
	}
	creq, into := c.postRecv(s, n, src, tg)
	opErr := recvStatus(st, creq.Wait(), into, creq.Payload, s)
	creq.Recycle() // releases the frame too
	return st, c.raise(opErr)
}

// Sendrecv executes a send and a receive concurrently, with distinct
// buffers (MPI_Sendrecv). The receive is posted first, so the engine
// serves the peer's message while the send goes out, and neither
// operation builds an mpi.Request: the returned Status is the call's
// one allocation. (Its twelve arguments put a Recv-style wrapper, which
// would leave the Status in the caller's frame, just over the
// compiler's inlining budget.)
func (c *Comm) Sendrecv(
	sendbuf any, soffset, scount int, sdt *Datatype, dest, stag int,
	recvbuf any, roffset, rcount int, rdt *Datatype, source, rtag int,
) (*Status, error) {
	r := section{dtype.BufOf(recvbuf), roffset, rcount, rdt}
	src, tg, n, err := c.startRecv(r, source, rtag)
	if err != nil {
		return nil, c.raise(err)
	}
	st := nullStatus()
	var rreq *core.Request
	into := false
	if source != ProcNull {
		rreq, into = c.postRecv(r, n, src, tg)
	}
	sreq, serr := c.startSend(section{dtype.BufOf(sendbuf), soffset, scount, sdt}, dest, stag, core.ModeStandard, false)
	if serr != nil && rreq != nil {
		// Withdraw the receive: one that already matched completes with
		// its message, and nothing lands in recvbuf after the return.
		c.env.proc.Cancel(rreq)
	}
	var rerr error
	if rreq != nil {
		rerr = recvStatus(st, rreq.Wait(), into, rreq.Payload, r)
		rreq.Recycle()
	}
	if serr != nil {
		return nil, c.raise(serr)
	}
	if sreq != nil {
		serr = mapErr(sreq.Wait().Err)
		sreq.Recycle()
	}
	return st, c.raise(cmp.Or(rerr, serr))
}

// SendrecvReplace sends and receives using a single buffer section
// (MPI_Sendrecv_replace): the outgoing message is packed before the
// receive is posted, so the reply may land in the section itself. Like
// Sendrecv it builds no mpi.Request: the returned Status is the call's
// one allocation.
func (c *Comm) SendrecvReplace(
	buf any, offset, count int, d *Datatype,
	dest, stag, source, rtag int,
) (*Status, error) {
	s := section{dtype.BufOf(buf), offset, count, d}
	if err := c.sendChecks(d, dest, stag); err != nil {
		return nil, c.raise(err)
	}
	src, tg, n, err := c.startRecv(s, source, rtag)
	if err != nil {
		return nil, c.raise(err)
	}
	var payload []byte
	pooled := false
	if dest != ProcNull {
		if payload, pooled, err = c.pack(s); err != nil {
			return nil, c.raise(err)
		}
	}
	st := nullStatus()
	var rreq *core.Request
	into := false
	if source != ProcNull {
		rreq, into = c.postRecv(s, n, src, tg)
	}
	var serr error
	if dest != ProcNull {
		// The receive is already posted, so the engine serves the peer's
		// message while this send blocks. No PutBuf on failure: Send took
		// ownership, and the device's own error path may already have
		// recycled the payload.
		if serr = c.env.proc.Send(c.ptpCtx, c.rank, c.remote[dest], stag, payload, core.ModeStandard, pooled); serr != nil && rreq != nil {
			// Withdraw the receive: one that already matched completes
			// with its message, and nothing lands in buf after the return.
			c.env.proc.Cancel(rreq)
		}
	}
	var rerr error
	if rreq != nil {
		rerr = recvStatus(st, rreq.Wait(), into, rreq.Payload, s)
		rreq.Recycle()
	}
	if serr != nil {
		return nil, c.raise(mapErr(serr))
	}
	return st, c.raise(rerr)
}

// Probe blocks until a matching message is pending and returns its
// status without receiving it (MPI_Probe).
func (c *Comm) Probe(source, tag int) (*Status, error) {
	return c.probe(source, tag, true)
}

// Iprobe checks for a matching pending message without blocking
// (MPI_Iprobe); it returns nil when none is pending. Like Probe it fails
// once none can ever arrive: the communicator is revoked, or the source
// is known lost.
func (c *Comm) Iprobe(source, tag int) (*Status, error) {
	return c.probe(source, tag, false)
}

// probe is Probe when block is set and Iprobe otherwise.
func (c *Comm) probe(source, tag int, block bool) (*Status, error) {
	if err := c.ok(); err != nil {
		return nil, c.raise(err)
	}
	src, tg, err := c.recvEnvelope(source, tag)
	if err != nil {
		return nil, c.raise(err)
	}
	if source == ProcNull {
		return nullStatus(), nil
	}
	var cst core.Status
	found := true
	if block {
		cst, err = c.env.proc.Probe(c.ptpCtx, src, tg)
	} else {
		cst, found, err = c.env.proc.Iprobe(c.ptpCtx, src, tg)
	}
	switch {
	case err != nil:
		return nil, c.raise(mapErr(err))
	case !found:
		return nil, nil
	}
	return probeStatus(cst.SourceGroup, cst.Tag, cst.Bytes), nil
}

// sendInit freezes a validated send envelope into a persistent request
// whose every activation posts it anew: the shared body of the four
// persistent send modes.
func (c *Comm) sendInit(mode core.Mode, buffed bool, s section, dest, tag int) (*PersistentRequest, error) {
	if err := c.sendChecks(s.d, dest, tag); err != nil {
		return nil, c.raise(err)
	}
	start := func() (*Request, error) { return c.isendMode(s, dest, tag, mode) }
	if buffed {
		start = func() (*Request, error) { return c.ibsend(s, dest, tag) }
	}
	return &PersistentRequest{comm: c, start: start}, nil
}

// SendInit creates a persistent standard-mode send request
// (MPI_Send_init).
func (c *Comm) SendInit(buf any, offset, count int, d *Datatype, dest, tag int) (*PersistentRequest, error) {
	return c.sendInit(core.ModeStandard, false, section{dtype.BufOf(buf), offset, count, d}, dest, tag)
}

// SsendInit creates a persistent synchronous-mode send request.
func (c *Comm) SsendInit(buf any, offset, count int, d *Datatype, dest, tag int) (*PersistentRequest, error) {
	return c.sendInit(core.ModeSync, false, section{dtype.BufOf(buf), offset, count, d}, dest, tag)
}

// RsendInit creates a persistent ready-mode send request.
func (c *Comm) RsendInit(buf any, offset, count int, d *Datatype, dest, tag int) (*PersistentRequest, error) {
	return c.sendInit(core.ModeReady, false, section{dtype.BufOf(buf), offset, count, d}, dest, tag)
}

// BsendInit creates a persistent buffered-mode send request.
func (c *Comm) BsendInit(buf any, offset, count int, d *Datatype, dest, tag int) (*PersistentRequest, error) {
	return c.sendInit(core.ModeStandard, true, section{dtype.BufOf(buf), offset, count, d}, dest, tag)
}

// RecvInit creates a persistent receive request (MPI_Recv_init).
func (c *Comm) RecvInit(buf any, offset, count int, d *Datatype, source, tag int) (*PersistentRequest, error) {
	if _, _, err := c.recvChecks(d, source, tag); err != nil {
		return nil, c.raise(err)
	}
	s := section{dtype.BufOf(buf), offset, count, d}
	return &PersistentRequest{comm: c, start: func() (*Request, error) { return c.irecv(s, source, tag) }}, nil
}

// RecvIntoInit is RecvInit: every activation of a persistent receive
// takes the receive-into path where the datatype allows, so with a
// preallocated landing buffer a steady-state activation allocates
// nothing. The name is kept for callers written when the two differed.
func (c *Comm) RecvIntoInit(buf any, offset, count int, d *Datatype, source, tag int) (*PersistentRequest, error) {
	return c.RecvInit(buf, offset, count, d, source, tag)
}

// Pack incrementally packs a buffer section into outbuf starting at
// position; it returns the new position (MPI_Pack). Packed bytes travel
// with the PACKED datatype.
func (c *Comm) Pack(inbuf any, offset, incount int, d *Datatype, outbuf []byte, position int) (int, error) {
	if err := c.ok(); err != nil {
		return position, c.raise(err)
	}
	if err := c.checkType(d); err != nil {
		return position, c.raise(err)
	}
	wire, err := section{dtype.BufOf(inbuf), offset, incount, d}.pack(nil)
	if err != nil {
		return position, c.raise(err)
	}
	if position < 0 || position+len(wire) > len(outbuf) {
		return position, c.raise(errf(ErrBuffer, "pack of %d bytes at position %d exceeds buffer of %d",
			len(wire), position, len(outbuf)))
	}
	copy(outbuf[position:], wire)
	return position + len(wire), nil
}

// Unpack extracts outcount items from inbuf starting at position into a
// buffer section, returning the new position (MPI_Unpack). An OBJECT
// section is consumed whole, so the next section can follow; objects
// beyond outcount are dropped.
func (c *Comm) Unpack(inbuf []byte, position int, outbuf any, offset, outcount int, d *Datatype) (int, error) {
	if err := c.ok(); err != nil {
		return position, c.raise(err)
	}
	if err := c.checkType(d); err != nil {
		return position, c.raise(err)
	}
	if position < 0 || position > len(inbuf) {
		return position, c.raise(errf(ErrBuffer, "unpack position %d outside buffer of %d", position, len(inbuf)))
	}
	need := d.t.WireBytes(outcount)
	if need < 0 { // OBJECT: the section carries its own length
		var err error
		if need, err = dtype.ObjectsLen(inbuf[position:]); err != nil {
			return position, c.raise(mapErr(err))
		}
	}
	if position+need > len(inbuf) {
		return position, c.raise(errf(ErrBuffer, "unpack of %d bytes at position %d exceeds buffer of %d",
			need, position, len(inbuf)))
	}
	out := section{dtype.BufOf(outbuf), offset, outcount, d}
	if _, err := out.unpack(inbuf[position : position+need]); err != nil && ClassOf(err) != ErrTruncate {
		return position, c.raise(err)
	}
	return position + need, nil
}

// PackSize bounds the space Pack needs for incount items of d
// (MPI_Pack_size). Object buffers have no static bound; PackSize returns
// Undefined for them.
func (c *Comm) PackSize(incount int, d *Datatype) (int, error) {
	if err := c.ok(); err != nil {
		return 0, c.raise(err)
	}
	if err := c.checkType(d); err != nil {
		return 0, c.raise(err)
	}
	n := d.t.WireBytes(incount)
	if n < 0 {
		return Undefined, nil
	}
	return n, nil
}
