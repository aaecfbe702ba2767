package mpi

import (
	"gompi/internal/coll"
	"gompi/internal/dtype"
	"gompi/internal/transport"
)

// accum is one reduction's accumulator: the single wire-format buffer
// the collective layer folds into, loaded with this rank's contribution
// before each activation and holding the result afterwards. Where the
// receive section is a contiguous fixed-size section of a native slice
// on a little-endian host, the accumulator IS that section's memory and
// the result needs no deposit; otherwise it is a pooled frame (an
// ordinary slice for OBJECT data, whose wire size is unknown), drawn by
// load and returned by fin once the result is unpacked into the section.
type accum struct {
	b      []byte
	direct bool // b aliases the receive section
	pooled bool // b came from the frame pool and goes back after the deposit

	d *Datatype

	// The send section: this rank's contribution, elems items. src is
	// its memory where that is its wire image and the schedule reads it
	// in place (sendView); load then packs nothing.
	sbuf        any
	soff, elems int
	src         []byte

	// The receive section; recv is false on ranks the collective
	// delivers nothing to (non-roots of Reduce, rank 0 of Exscan).
	recv        bool
	rbuf        any
	roff, count int
}

// newAccum validates both sections — before any message moves — and
// binds the accumulator to them. elems differs from the receive
// section's count only for ReduceScatter, which folds every rank's
// segment and receives one.
func (c *Comm) newAccum(recv bool, sendbuf any, soffset int, recvbuf any, roffset, count, elems int, d *Datatype) (*accum, error) {
	a := &accum{d: d, sbuf: sendbuf, soff: soffset, elems: elems, recv: recv, rbuf: recvbuf, roff: roffset, count: count}
	if err := checkSection(sendbuf, soffset, elems, d); err != nil {
		return nil, err
	}
	if recv {
		n, err := dtype.CheckSection(recvbuf, roffset, count, d.t)
		if err != nil {
			return nil, mapDataErr(err)
		}
		if elems == count {
			a.b, a.direct = c.intoView(recvbuf, roffset, count, n, d)
		}
	}
	return a, nil
}

// plan wraps the reduction schedule built over &a.b as a collPlan: load
// and fin are its two hooks.
func (a *accum) plan(p *coll.Plan, err error) collPlan {
	return collPlan{plan: p, err: mapEngineErr(err), refresh: a.load, fin: a.fin}
}

// sendView offers the schedule this rank's contribution where it lies —
// the send section's own memory, never written — on the terms a send
// would go out on loan (lendView: above the eager limit, and its wire
// image as it stands); nil when it is to be packed into the
// accumulator.
func (a *accum) sendView(c *Comm) *[]byte {
	view, ok := c.lendView(a.sbuf, a.soff, a.elems, a.d)
	if !ok {
		return nil
	}
	a.src = view
	return &a.src
}

// load packs this rank's contribution into the accumulator, drawing its
// frame first where it is not the receive section itself.
func (a *accum) load() error {
	if n := a.d.t.WireBytes(a.elems); !a.direct && n >= 0 {
		a.b, a.pooled = transport.GetBuf(n), true
	}
	if a.src != nil {
		return nil
	}
	b, err := dtype.Pack(a.b[:0], a.sbuf, a.soff, a.elems, a.d.t)
	if err != nil {
		a.release()
		return mapDataErr(err)
	}
	a.b = b
	return nil
}

// release returns a pooled accumulator to the frame pool.
func (a *accum) release() {
	if a.pooled {
		transport.PutBuf(a.b)
		a.b, a.pooled = nil, false
	}
}

// fin is the completion deposit: res is the collective's result in wire
// format, nil where this rank has none.
func (a *accum) fin(res any) error {
	defer a.release()
	wire, _ := res.([]byte)
	inPlace := a.direct && len(wire) == len(a.b) && (len(wire) == 0 || &wire[0] == &a.b[0])
	if !a.recv || wire == nil || inPlace {
		return nil
	}
	if _, err := dtype.Unpack(wire, a.rbuf, a.roff, a.count, a.d.t); err != nil {
		return mapDataErr(err)
	}
	return nil
}
