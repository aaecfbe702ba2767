package mpi

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"gompi/internal/core"
	"gompi/internal/dtype"
)

// One-sided communication (MPI-2 §6) — the "access to memory in remote
// processes" the paper's introduction highlights and §5.3 plans to add.
// A Win exposes a slice of basic elements for remote Put, Get and
// Accumulate; Fence provides active-target synchronization. Each window
// runs a small target service per rank on a private context, so one-sided
// traffic can never cross-match two-sided communication.

// Win is a window of locally-exposed memory (MPI_Win).
type Win struct {
	comm *Intracomm // private duplicate owning the service contexts
	base any        // the exposed slice
	dt   *Datatype  // basic element type of the window
	size int        // window length, in elements

	winMu   sync.Mutex // serializes applies to the window
	pending sync.WaitGroup
	nextID  atomic.Uint32
	svcDone chan struct{}
	freed   bool

	errMu    sync.Mutex
	firstErr error // first error from asynchronous completions
}

// setErr records the first asynchronous failure; Fence surfaces it.
func (w *Win) setErr(err error) {
	if err == nil {
		return
	}
	w.errMu.Lock()
	if w.firstErr == nil {
		w.firstErr = err
	}
	w.errMu.Unlock()
}

func (w *Win) takeErr() error {
	w.errMu.Lock()
	defer w.errMu.Unlock()
	err := w.firstErr
	w.firstErr = nil
	return err
}

// RMA operation kinds on the wire.
const (
	rmaPut byte = iota
	rmaGet
	rmaAcc
	rmaStop
)

// Tags on the window's private point-to-point context.
const (
	tagRMAReq     = 1
	tagRMAAckBase = 16 // reply tag = base + origin-chosen op id
)

// REPLACE is the MPI_REPLACE accumulate operation: the incoming value
// overwrites the target element.
var REPLACE = &Op{op: nil}

// accCodes maps the predefined operations usable with Accumulate to wire
// codes. User-defined operations cannot travel to the target process.
var accCodes = map[*Op]byte{
	SUM: 1, PROD: 2, MAX: 3, MIN: 4,
	LAND: 5, LOR: 6, LXOR: 7, BAND: 8, BOR: 9, BXOR: 10,
	REPLACE: 11,
}

func accOpOf(code byte) (*Op, bool) {
	for op, c := range accCodes {
		if c == code {
			return op, true
		}
	}
	return nil, false
}

// CreateWin exposes base (a slice of d's element type) for one-sided
// access by all members of the communicator (MPI_Win_create). Collective.
func (c *Intracomm) CreateWin(base any, d *Datatype) (*Win, error) {
	if err := c.ok(); err != nil {
		return nil, c.raise(err)
	}
	if err := c.checkType(d); err != nil {
		return nil, c.raise(err)
	}
	if d.Size() != 1 || d.Extent() != 1 {
		return nil, c.raise(errf(ErrType, "window element type must be basic, got %s", d.Name()))
	}
	n, err := dtype.CheckBuf(base, d.t)
	if err != nil {
		return nil, c.raise(mapDataErr(err))
	}
	priv, err := c.Dup()
	if err != nil {
		return nil, err
	}
	priv.SetName(c.Name() + ".win")
	w := &Win{comm: priv, base: base, dt: d, size: n, svcDone: make(chan struct{})}
	go w.serve()
	// All members must have their service running before any origin
	// issues an operation.
	if err := priv.Barrier(); err != nil {
		return nil, c.raise(err)
	}
	return w, nil
}

// request wire layout: kind(1) id(4) disp(4) count(4) accOp(1) payload.
func buildRMAReq(kind byte, id uint32, disp, count int, accOp byte, payload []byte) []byte {
	f := make([]byte, 14+len(payload))
	f[0] = kind
	binary.LittleEndian.PutUint32(f[1:], id)
	binary.LittleEndian.PutUint32(f[5:], uint32(int32(disp)))
	binary.LittleEndian.PutUint32(f[9:], uint32(int32(count)))
	f[13] = accOp
	copy(f[14:], payload)
	return f
}

// serve is the per-rank target service: it applies incoming one-sided
// operations to the local window and acknowledges them.
func (w *Win) serve() {
	defer close(w.svcDone)
	p := w.comm.env.proc
	ctx := w.comm.ptpCtx
	for {
		req := p.Irecv(ctx, core.AnySource, tagRMAReq)
		st := req.Wait()
		if st.Cancelled {
			req.Recycle()
			return
		}
		f := req.Payload
		if len(f) < 14 {
			req.Recycle()
			continue
		}
		kind := f[0]
		id := binary.LittleEndian.Uint32(f[1:])
		disp := int(int32(binary.LittleEndian.Uint32(f[5:])))
		count := int(int32(binary.LittleEndian.Uint32(f[9:])))
		accOp := f[13]
		payload := f[14:]
		var reply []byte
		var opErr error
		if kind == rmaStop {
			w.ack(st.SourceGroup, id, nil)
			req.Recycle()
			return
		}
		// Target-side validation: MPI delegates range and datatype
		// checking of one-sided operations to the target, where the
		// window's true shape is known. Invalid operations are dropped
		// (the ack still flows so fences cannot hang) and surface on
		// the target's next Fence.
		opErr = w.checkTarget(kind, disp, count, len(payload))
		if opErr == nil {
			sec := section{w.base, disp, count, w.dt}
			switch kind {
			case rmaPut:
				w.winMu.Lock()
				_, opErr = sec.unpack(payload)
				w.winMu.Unlock()
			case rmaGet:
				w.winMu.Lock()
				reply, opErr = sec.pack(nil)
				w.winMu.Unlock()
			case rmaAcc:
				opErr = w.applyAcc(accOp, payload, sec)
			}
		}
		if opErr != nil {
			// Surface target-side failures on the target rank; the
			// origin still gets its ack so fences cannot hang.
			w.setErr(opErr)
		}
		// Every arm has copied what it needs out of the payload; the
		// frame (and request) can recirculate.
		w.ack(st.SourceGroup, id, reply)
		req.Recycle()
	}
}

// checkTarget validates an incoming operation's window section and,
// for data-carrying kinds, that the payload length matches the claimed
// element count — the datatype-mismatch check only the target can
// perform.
func (w *Win) checkTarget(kind byte, disp, count, payloadLen int) error {
	if disp < 0 || count < 0 || disp+count > w.size {
		return errf(ErrBuffer, "one-sided access [%d,%d) outside window of %d elements", disp, disp+count, w.size)
	}
	// OBJECT payloads are gob-encoded with no fixed element size; the
	// length check only applies to the fixed-size classes.
	if kind != rmaGet {
		if es := w.dt.t.Class().WireSize(); es > 0 {
			if want := count * es; payloadLen != want {
				return errf(ErrType, "one-sided payload of %d bytes does not match %d elements of %s",
					payloadLen, count, w.dt.Name())
			}
		}
	}
	return nil
}

func (w *Win) applyAcc(code byte, payload []byte, sec section) error {
	w.winMu.Lock()
	defer w.winMu.Unlock()
	if code == accCodes[REPLACE] {
		_, err := sec.unpack(payload)
		return err
	}
	op, ok := accOpOf(code)
	if !ok {
		return errf(ErrOp, "unknown accumulate op code %d", code)
	}
	k, err := op.op.Kernel(w.dt.t.Class())
	if err != nil {
		return errf(ErrOp, "%v", err)
	}
	// The window section is both operand and destination: an
	// accumulator over it (the section's own memory wherever that is
	// its wire image), folded with the origin's contribution.
	a, err := newAccum(true, sec, sec)
	if err == nil {
		err = a.load(&sec)
	}
	if err != nil {
		return err
	}
	res, err := k(payload, a.b, a.b)
	if err != nil {
		a.release()
		return mapDataErr(err)
	}
	return a.fin(res, &sec)
}

func (w *Win) ack(targetGroupRank int, id uint32, payload []byte) {
	p := w.comm.env.proc
	req, err := p.Isend(w.comm.ptpCtx, w.comm.rank, w.comm.group[targetGroupRank],
		tagRMAAckBase+int(id), payload, core.ModeStandard, false)
	if err == nil {
		req.Wait()
		req.Recycle()
	}
}

// issue sends one RMA request and registers its asynchronous completion.
// complete runs with the ack payload when the target acknowledges.
func (w *Win) issue(kind byte, target, disp, count int, accOp byte, payload []byte, complete func([]byte) error) error {
	if w.freed {
		return errf(ErrComm, "window has been freed")
	}
	if target < 0 || target >= w.comm.Size() {
		return errf(ErrRank, "target rank %d out of range [0,%d)", target, w.comm.Size())
	}
	id := w.nextID.Add(1) & 0xffff
	p := w.comm.env.proc
	req, err := p.Isend(w.comm.ptpCtx, w.comm.rank, w.comm.group[target],
		tagRMAReq, buildRMAReq(kind, id, disp, count, accOp, payload), core.ModeStandard, false)
	if err != nil {
		return errf(ErrIntern, "%v", err)
	}
	ackReq := p.Irecv(w.comm.ptpCtx, int32(target), int32(tagRMAAckBase+int(id)))
	w.pending.Add(1)
	go func() {
		defer w.pending.Done()
		req.Wait()
		ackReq.Wait()
		if complete != nil {
			if err := complete(ackReq.Payload); err != nil {
				w.setErr(err)
			}
		}
		ackReq.Recycle()
		req.Recycle()
	}()
	return nil
}

// Put transfers count items from the origin buffer section into the
// target rank's window at element displacement targetDisp (MPI_Put).
// Completion is deferred to the next Fence.
func (w *Win) Put(origin any, offset, count int, d *Datatype, target, targetDisp int) error {
	payload, err := section{origin, offset, count, d}.pack(nil)
	if err != nil {
		return w.comm.raise(err)
	}
	elems := count * d.Size()
	return w.comm.raise(w.issue(rmaPut, target, targetDisp, elems, 0, payload, nil))
}

// Get transfers count items from the target rank's window at element
// displacement targetDisp into the origin buffer section (MPI_Get).
// The origin buffer is valid after the next Fence.
func (w *Win) Get(origin any, offset, count int, d *Datatype, target, targetDisp int) error {
	if _, err := dtype.CheckBuf(origin, d.t); err != nil {
		return w.comm.raise(mapDataErr(err))
	}
	elems := count * d.Size()
	return w.comm.raise(w.issue(rmaGet, target, targetDisp, elems, 0, nil, func(reply []byte) error {
		_, err := section{origin, offset, count, d}.unpack(reply)
		return err
	}))
}

// Accumulate folds count items from the origin buffer into the target
// window with op — one of the predefined operations or REPLACE
// (MPI_Accumulate).
func (w *Win) Accumulate(origin any, offset, count int, d *Datatype, target, targetDisp int, op *Op) error {
	code, ok := accCodes[op]
	if !ok {
		return w.comm.raise(errf(ErrOp, "Accumulate requires a predefined operation or REPLACE"))
	}
	if op != REPLACE {
		if err := checkOp(op, d); err != nil {
			return w.comm.raise(err)
		}
	}
	payload, err := section{origin, offset, count, d}.pack(nil)
	if err != nil {
		return w.comm.raise(err)
	}
	elems := count * d.Size()
	return w.comm.raise(w.issue(rmaAcc, target, targetDisp, elems, code, payload, nil))
}

// Fence completes all outstanding one-sided operations this rank issued
// and synchronizes the group (MPI_Win_fence): after it returns, local
// Get buffers are filled and remote Put/Accumulate effects are visible
// everywhere.
func (w *Win) Fence() error {
	w.pending.Wait()
	if err := w.comm.Barrier(); err != nil {
		return err
	}
	if err := w.takeErr(); err != nil {
		return w.comm.raise(err)
	}
	return nil
}

// Free tears the window down (MPI_Win_free). Collective; all outstanding
// operations must be fenced first.
func (w *Win) Free() error {
	if w.freed {
		return errf(ErrComm, "window already freed")
	}
	if err := w.Fence(); err != nil {
		return err
	}
	// Stop the local service with a self-addressed request, then mark
	// the window dead.
	if err := w.issue(rmaStop, w.comm.Rank(), 0, 0, 0, nil, nil); err != nil {
		return err
	}
	w.pending.Wait()
	<-w.svcDone
	w.freed = true
	if err := w.comm.Barrier(); err != nil {
		return err
	}
	return w.comm.Free()
}
