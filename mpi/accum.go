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
// ordinary slice for OBJECT data, whose wire size is unknown) unpacked
// into the section at completion.
type accum struct {
	b      []byte
	direct bool // b aliases the receive section
	pooled bool // b came from the frame pool and goes back after the deposit

	// The receive section; recv is false on ranks the collective
	// delivers nothing to (non-roots of Reduce, rank 0 of Exscan).
	recv       bool
	buf        any
	off, count int
	d          *Datatype
}

// newAccum validates the receive section — before any message moves,
// like the send-side checks — and sizes the accumulator for elems items
// of d. elems differs from the section's count only for ReduceScatter,
// which folds every rank's segment and receives one. persistent
// accumulators are reused by every activation, so they stay out of the
// pool's circulation.
func (c *Comm) newAccum(recv bool, recvbuf any, roffset, count, elems int, d *Datatype, persistent bool) (*accum, error) {
	a := &accum{recv: recv, buf: recvbuf, off: roffset, count: count, d: d}
	if recv {
		n, err := dtype.CheckSection(recvbuf, roffset, count, d.t)
		if err != nil {
			return nil, mapDataErr(err)
		}
		if elems == count {
			a.b, a.direct = c.intoView(recvbuf, roffset, count, n, d)
		}
	}
	switch n := d.t.WireBytes(elems); {
	case a.direct || n < 0:
	case persistent:
		a.b = make([]byte, n)
	default:
		a.b, a.pooled = transport.GetBuf(n), true
	}
	return a, nil
}

// load packs this rank's contribution into the accumulator.
func (a *accum) load(sendbuf any, soffset, elems int) error {
	b, err := dtype.Pack(a.b[:0], sendbuf, soffset, elems, a.d.t)
	if err != nil {
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
	if _, err := dtype.Unpack(wire, a.buf, a.off, a.count, a.d.t); err != nil {
		return mapDataErr(err)
	}
	return nil
}

// reduceAccum builds a one-shot reduction's accumulator and loads it
// with this rank's contribution: the part of plan construction every
// member of the reduction family shares.
func (c *Comm) reduceAccum(recv bool, sendbuf any, soffset int, recvbuf any, roffset, count, elems int, d *Datatype) (*accum, error) {
	a, err := c.newAccum(recv, recvbuf, roffset, count, elems, d, false)
	if err != nil {
		return nil, err
	}
	if err := a.load(sendbuf, soffset, elems); err != nil {
		a.release()
		return nil, err
	}
	return a, nil
}

// planOf wraps a collective-layer plan constructor as a collPlan. The
// constructor runs (and mints the collective's instance number) only
// once the call is past local validation.
func planOf(build func() (*coll.Plan, error), fin func(res any) error) collPlan {
	return collPlan{
		run: func() (any, error) {
			p, err := build()
			if err != nil {
				return nil, err
			}
			return p.Run()
		},
		irun: func() (*coll.Request, error) {
			p, err := build()
			if err != nil {
				return nil, err
			}
			return p.Start(), nil
		},
		fin: fin,
	}
}
