package mpi

import (
	"cmp"
	"encoding/binary"
	"slices"
	"sync"

	"gompi/internal/dtype"
)

// One-sided communication (MPI-2 §6) — the "access to memory in remote
// processes" the paper's introduction highlights and §5.3 plans to add.
// A Win exposes a slice of basic elements for remote Put, Get and
// Accumulate; Fence provides active-target synchronization. Fence is the
// only synchronization, so every operation of an epoch may complete at
// the Fence that closes it (MPI-2 §6.4): an origin call queues a request
// for its target, and Fence runs the epoch as one collective plan on the
// window's private duplicate — requests to their targets, each target
// applying what it received, Get replies back to their origins. One-sided
// traffic therefore never cross-matches two-sided communication, and a
// window holds no goroutine.

// Win is a window of locally-exposed memory (MPI_Win).
type Win struct {
	comm *Intracomm // private duplicate the epochs run on
	base dtype.Buf  // the exposed slice
	dt   *Datatype  // basic element type of the window
	size int        // window length, in elements

	mu   sync.Mutex  // origin calls may race; guards reqs and gets
	reqs [][]byte    // per target: this epoch's requests, in issue order
	gets [][]section // per target: this epoch's Get destinations, in issue order
}

// RMA operation kinds on the wire. A Put travels as an Accumulate with
// REPLACE, which MPI defines to have the same effect.
const (
	rmaGet byte = iota
	rmaAcc
)

// REPLACE is the MPI_REPLACE accumulate operation: the incoming value
// overwrites the target element.
var REPLACE = &Op{op: nil}

// accOps lists the operations Accumulate can carry, indexed by their
// wire code (REPLACE, a Put, is 0). User-defined operations cannot
// travel to the target process.
var accOps = []*Op{REPLACE, SUM, PROD, MAX, MIN, LAND, LOR, LXOR, BAND, BOR, BXOR}

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
	b := dtype.BufOf(base)
	n, err := b.Check(d.t)
	if err != nil {
		return nil, c.raise(mapErr(err))
	}
	priv, err := c.privateDup(".win")
	if err != nil {
		return nil, err
	}
	return &Win{comm: priv, base: b, dt: d, size: n,
		reqs: make([][]byte, c.Size()), gets: make([][]section, c.Size())}, nil
}

// rmaReq is one queued operation. Its wire form is kind(1) op(1)
// disp(4) count(4), then the payload as a block; disp and count are in
// window elements.
type rmaReq struct {
	kind, op    byte
	disp, count int
	payload     []byte
}

const rmaHdr = 14 // a request without payload bytes

func appendRMA(b []byte, r rmaReq) []byte {
	b = binary.LittleEndian.AppendUint32(append(b, r.kind, r.op), uint32(int32(r.disp)))
	return appendBlock(binary.LittleEndian.AppendUint32(b, uint32(int32(r.count))), r.payload)
}

// nextRMA decodes the request at the head of b and returns the rest;
// ok is false if b does not start with a whole request of a known kind.
func nextRMA(b []byte) (r rmaReq, rest []byte, ok bool) {
	if len(b) < rmaHdr || b[0] > rmaAcc {
		return r, nil, false
	}
	u32 := func(at int) int { return int(int32(binary.LittleEndian.Uint32(b[at:]))) }
	payload, rest, ok := cutBlock(b[10:])
	return rmaReq{b[0], b[1], u32(2), u32(6), payload}, rest, ok
}

// appendBlock appends data to b behind its 4-byte length.
func appendBlock(b, data []byte) []byte {
	return append(binary.LittleEndian.AppendUint32(b, uint32(len(data))), data...)
}

// cutBlock splits the block appendBlock wrote off the head of b; ok is
// false if b does not start with a whole one.
func cutBlock(b []byte) (data, rest []byte, ok bool) {
	if len(b) < 4 || uint64(binary.LittleEndian.Uint32(b)) > uint64(len(b)-4) {
		return nil, nil, false
	}
	n := 4 + int(binary.LittleEndian.Uint32(b))
	return b[4:n], b[n:], true
}

// queue checks an origin call and adds its request to this epoch's
// queue for target. A Put or Accumulate packs the origin section now, so
// its buffer may be reused at once; a Get's section is kept for the
// reply to land in at the Fence.
func (w *Win) queue(kind, op byte, s section, target, disp int) (err error) {
	r := rmaReq{kind: kind, op: op, disp: disp, count: s.count * s.d.Size()}
	if kind == rmaGet {
		_, err = s.buf.Check(s.d.t)
		err = mapErr(err)
	} else {
		r.payload, err = s.pack(nil)
	}
	if err = cmp.Or(err, w.comm.ok()); err != nil { // a freed window's communicator is freed
		return err
	}
	if target < 0 || target >= w.comm.Size() {
		return errf(ErrRank, "target rank %d out of range [0,%d)", target, w.comm.Size())
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.reqs[target] = appendRMA(w.reqs[target], r)
	if kind == rmaGet {
		w.gets[target] = append(w.gets[target], s)
	}
	return nil
}

// Put transfers count items from the origin buffer section into the
// target rank's window at element displacement targetDisp (MPI_Put).
// Completion is deferred to the next Fence.
func (w *Win) Put(origin any, offset, count int, d *Datatype, target, targetDisp int) error {
	return w.comm.raise(w.queue(rmaAcc, 0, section{dtype.BufOf(origin), offset, count, d}, target, targetDisp))
}

// Get transfers count items from the target rank's window at element
// displacement targetDisp into the origin buffer section (MPI_Get).
// The origin buffer is valid after the next Fence.
func (w *Win) Get(origin any, offset, count int, d *Datatype, target, targetDisp int) error {
	return w.comm.raise(w.queue(rmaGet, 0, section{dtype.BufOf(origin), offset, count, d}, target, targetDisp))
}

// Accumulate folds count items from the origin buffer into the target
// window with op — one of the predefined operations or REPLACE
// (MPI_Accumulate).
func (w *Win) Accumulate(origin any, offset, count int, d *Datatype, target, targetDisp int, op *Op) error {
	code := slices.Index(accOps, op)
	if code < 0 {
		return w.comm.raise(errf(ErrOp, "Accumulate requires a predefined operation or REPLACE"))
	}
	if op != REPLACE {
		if err := checkOp(op, d); err != nil {
			return w.comm.raise(err)
		}
	}
	return w.comm.raise(w.queue(rmaAcc, byte(code), section{dtype.BufOf(origin), offset, count, d}, target, targetDisp))
}

// Fence completes all outstanding one-sided operations and synchronizes
// the group (MPI_Win_fence): after it returns, local Get buffers are
// filled and remote Put/Accumulate effects are visible everywhere.
// Operations that fail at their target are reported by the target's
// Fence; the origin's stays clean. A Fence that fails to exchange
// revokes the window's private communicator (collErr): the epoch is
// lost on every member, and the revocation is how members still waiting
// on a dead peer learn of it.
func (w *Win) Fence() error {
	if err := w.comm.ok(); err != nil {
		return w.comm.raise(err)
	}
	n := w.comm.Size()
	w.mu.Lock()
	reqs, gets := w.reqs, w.gets
	w.reqs, w.gets = make([][]byte, n), make([][]section, n)
	w.mu.Unlock()
	var got, back [][]byte
	replies := make([][]byte, n)
	var targetErr error
	p := w.comm.cl.NewPlan()
	err := p.Alltoall(reqs, &got)
	p.Step(func() error { targetErr = w.apply(got, replies); return nil })
	if err = cmp.Or(err, p.Alltoall(replies, &back)); err == nil {
		_, err = p.Run()
	}
	if err != nil {
		return w.comm.raise(w.comm.collErr(err))
	}
	return w.comm.raise(cmp.Or(targetErr, w.deposit(back, gets)))
}

// apply is the target's half of an epoch: it applies the requests got
// from every origin, in rank order and then issue order, and appends a
// length-prefixed reply for each Get to that origin's replies. A failed
// operation is dropped — a failed Get replies with nothing — and the
// first failure is returned; the exchange goes on regardless, so that
// the members stay in step.
func (w *Win) apply(got, replies [][]byte) error {
	var first error
	for origin, b := range got {
		for len(b) > 0 {
			r, rest, ok := nextRMA(b)
			if !ok {
				first = cmp.Or[error](first, errf(ErrIntern, "malformed one-sided request from rank %d", origin))
				break
			}
			b = rest
			// Target-side validation: MPI delegates range and datatype
			// checking of one-sided operations to the target, where the
			// window's true shape is known.
			err := w.checkTarget(r.kind, r.disp, r.count, len(r.payload))
			sec := section{w.base, r.disp, r.count, w.dt}
			switch {
			case r.kind == rmaGet:
				data, perr := sec.pack(nil)
				if err = cmp.Or(err, perr); err != nil {
					data = nil
				}
				replies[origin] = appendBlock(replies[origin], data)
			case err == nil:
				err = w.applyAcc(r.op, r.payload, sec)
			}
			first = cmp.Or(first, err)
		}
	}
	return first
}

// deposit is the origin's half: it unpacks each target's replies into
// this epoch's Get sections for it, in issue order.
func (w *Win) deposit(back [][]byte, gets [][]section) error {
	for target, secs := range gets {
		b := back[target]
		for _, s := range secs {
			data, rest, ok := cutBlock(b)
			if !ok {
				return errf(ErrIntern, "malformed one-sided reply from rank %d", target)
			}
			if _, err := s.unpack(data); err != nil {
				return err
			}
			b = rest
		}
	}
	return nil
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
	if int(code) >= len(accOps) {
		return errf(ErrOp, "unknown accumulate op code %d", code)
	}
	op := accOps[code]
	if op == REPLACE {
		_, err := sec.unpack(payload)
		return err
	}
	k, err := op.op.Kernel(w.dt.t.Class())
	if err != nil {
		return mapErr(err)
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
		return mapErr(err)
	}
	return a.fin(res, &sec)
}

// Free tears the window down (MPI_Win_free): a Fence, which completes
// any outstanding operations, then the private communicator is freed.
// Collective.
func (w *Win) Free() error {
	if err := w.Fence(); err != nil {
		return err
	}
	return w.comm.Free()
}
