package pio

import (
	"encoding/binary"
	"fmt"
	"io"

	"gompi/internal/coll"
	"gompi/internal/obs"
)

// Two-phase collective I/O (the ROMIO technique): instead of every
// rank issuing its own small strided filesystem accesses, the file is
// partitioned into cyclic stripes, each owned by one aggregator rank.
// Phase one exchanges data (writes) or requests (reads) so each
// aggregator holds everything destined for its stripes; phase two is
// the filesystem access, now large and contiguous per aggregator. Both
// phases are steps of one coll.Plan schedule, so every collective I/O
// call inherits the engine's nonblocking Start form and cancellation
// points — the binding's I*/Ctx variants fall out for free.
//
// Aggregator ownership is static: stripe b of the file belongs to rank
// b mod size. No extent agreement round is needed — every rank can
// route its chunks from local information — at the cost of not
// rebalancing when the touched range is narrow. The stripe width only
// routes: every chunk carries its own file offset (appendChunkHdr), so
// an aggregator writes or reads whatever it is sent, and ranks need not
// agree on the width for the result to be right.

// chunk wire format: u64 file byte offset, u32 length, then (for data
// bundles) length payload bytes. Request bundles carry headers only.
const chunkHdr = 12

// spanStep brackets the steps appended between the call and the
// returned closure with a trace span: the schedule executes the begin
// step, the wrapped phase's steps, then the end step, so the span's
// width is the phase's wall time on this rank. bytes is evaluated when
// the begin step runs (bundles filled by earlier steps are complete by
// then).
func spanStep(p *coll.Plan, c *coll.Comm, kind obs.EventKind, bytes func() int64) (end func()) {
	var endSpan func(int64)
	p.Step(func() error {
		endSpan = c.P.Recorder().Span(kind, bytes())
		return nil
	})
	return func() {
		p.Step(func() error {
			endSpan(0)
			return nil
		})
	}
}

func bundleBytes(parts [][]byte) int64 {
	var n int64
	for _, b := range parts {
		n += int64(len(b))
	}
	return n
}

func appendChunkHdr(dst []byte, off int64, n int) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(off))
	return binary.LittleEndian.AppendUint32(dst, uint32(n))
}

func readChunkHdr(b []byte) (off int64, n int, rest []byte, err error) {
	if len(b) < chunkHdr {
		return 0, 0, nil, fmt.Errorf("pio: truncated chunk header (%d bytes)", len(b))
	}
	off = int64(binary.LittleEndian.Uint64(b))
	n = int(binary.LittleEndian.Uint32(b[8:]))
	return off, n, b[chunkHdr:], nil
}

// forEachStripe splits the byte range [off, off+n) at stripe
// boundaries and yields each piece with its owning aggregator.
func forEachStripe(off int64, n int, stripe int64, size int, fn func(agg int, off int64, n int)) {
	for n > 0 {
		in := int(stripe - off%stripe)
		if in > n {
			in = n
		}
		fn(int((off/stripe)%int64(size)), off, in)
		off += int64(in)
		n -= in
	}
}

// WriteAllPlan builds the two-phase collective write of wire (whole
// view elements) at view element offset off: chunk routing at build
// time, the data alltoall, then each aggregator's pwrite pass. The
// caller's own contribution is fully written when the schedule
// completes without error.
func (f *File) WriteAllPlan(c *coll.Comm, off int, wire []byte) (*coll.Plan, error) {
	p := c.NewPlan() // mint the collective instance before validation
	if f.closed {
		return nil, ErrClosed
	}
	if len(wire)%f.view.es != 0 {
		return nil, fmt.Errorf("%w: %d payload bytes not a multiple of element size %d", ErrView, len(wire), f.view.es)
	}

	// Phase 0 (build time): route my spans' bytes to their aggregators.
	parts := make([][]byte, c.Size)
	pos := 0
	for _, s := range f.view.spans(off, len(wire)/f.view.es) {
		base := pos
		forEachStripe(s.off, s.n, f.stripe, c.Size, func(agg int, o int64, n int) {
			at := base + int(o-s.off)
			parts[agg] = appendChunkHdr(parts[agg], o, n)
			parts[agg] = append(parts[agg], wire[at:at+n]...)
		})
		pos += s.n
	}

	// Phase 1: the data exchange.
	endEx := spanStep(p, c, obs.EvPioExchange, func() int64 { return bundleBytes(parts) })
	var got [][]byte
	if err := p.Alltoall(parts, &got); err != nil {
		return nil, err
	}
	endEx()

	// Phase 2: this rank's aggregator pass over its received chunks.
	p.Step(func() error {
		end := c.P.Recorder().Span(obs.EvPioWrite, 0)
		var written int64
		for _, b := range got {
			for len(b) > 0 {
				o, n, rest, err := readChunkHdr(b)
				if err != nil {
					return err
				}
				if n > len(rest) {
					return fmt.Errorf("pio: truncated chunk payload (%d of %d bytes)", len(rest), n)
				}
				if _, err := f.f.WriteAt(rest[:n], o); err != nil {
					return &Error{Op: "write", Path: f.path, Err: err}
				}
				written += int64(n)
				b = rest[n:]
			}
		}
		end(written)
		return nil
	})
	return p, nil
}

// ReadResult is what a ReadAllPlan schedule fills on completion: the
// gathered wire bytes (zero-filled past end-of-file) and how many of
// them the file actually held.
type ReadResult struct {
	Wire []byte
	Got  int
}

// ReadAllPlan builds the two-phase collective read of n view elements
// at view element offset off: the request alltoall, each aggregator's
// pread pass, the data alltoall back, then reassembly into res, which
// the caller reads once the schedule completes without error.
func (f *File) ReadAllPlan(c *coll.Comm, off, n int, res *ReadResult) (*coll.Plan, error) {
	p := c.NewPlan() // mint the collective instance before validation
	if f.closed {
		return nil, ErrClosed
	}
	if n < 0 {
		return nil, fmt.Errorf("%w: negative element count %d", ErrView, n)
	}

	// Phase 0 (build time): split my spans into per-aggregator request
	// chunks, remembering where each chunk's bytes land in my wire
	// buffer — replies return in request order.
	spans := f.view.spans(off, n)
	reqs := make([][]byte, c.Size)
	wirePos := make([][]int, c.Size)
	pos := 0
	for _, s := range spans {
		base := pos
		forEachStripe(s.off, s.n, f.stripe, c.Size, func(agg int, o int64, cn int) {
			reqs[agg] = appendChunkHdr(reqs[agg], o, cn)
			wirePos[agg] = append(wirePos[agg], base+int(o-s.off))
		})
		pos += s.n
	}

	// Phase 1: requests out to the aggregators.
	endReq := spanStep(p, c, obs.EvPioExchange, func() int64 { return bundleBytes(reqs) })
	var gotReqs [][]byte
	if err := p.Alltoall(reqs, &gotReqs); err != nil {
		return nil, err
	}
	endReq()

	// Phase 2: this rank's aggregator pass — pread every requested
	// range, short at end-of-file, and bundle the data per requester.
	replies := make([][]byte, c.Size)
	p.Step(func() error {
		end := c.P.Recorder().Span(obs.EvPioRead, 0)
		var read int64
		for r, b := range gotReqs {
			for len(b) > 0 {
				o, cn, rest, err := readChunkHdr(b)
				if err != nil {
					return err
				}
				buf := make([]byte, cn)
				m, rerr := f.f.ReadAt(buf, o)
				if rerr != nil && rerr != io.EOF {
					return &Error{Op: "read", Path: f.path, Err: rerr}
				}
				replies[r] = appendChunkHdr(replies[r], o, m)
				replies[r] = append(replies[r], buf[:m]...)
				read += int64(m)
				b = rest
			}
		}
		end(read)
		return nil
	})

	// Phase 3: data back to the requesters.
	endData := spanStep(p, c, obs.EvPioExchange, func() int64 { return bundleBytes(replies) })
	var gotData [][]byte
	if err := p.Alltoall(replies, &gotData); err != nil {
		return nil, err
	}
	endData()

	// Phase 4: reassemble my wire buffer. A chunk shorter than
	// requested marks the end of the file; the delivered count is the
	// view-order prefix of my spans clipped there. Reassembly runs as
	// a step so a malformed reply fails the schedule rather than
	// passing as an empty read.
	p.Step(func() error {
		*res = ReadResult{Wire: make([]byte, n*f.view.es)}
		fileEnd := int64(-1) // -1: no shortfall seen
		for agg, b := range gotData {
			for i := 0; len(b) > 0; i++ {
				o, m, rest, err := readChunkHdr(b)
				if err != nil {
					return err
				}
				if m > len(rest) {
					return fmt.Errorf("pio: truncated reply payload (%d of %d bytes)", len(rest), m)
				}
				if i >= len(wirePos[agg]) {
					return fmt.Errorf("pio: aggregator %d replied with more chunks than requested", agg)
				}
				copy(res.Wire[wirePos[agg][i]:], rest[:m])
				if wanted := chunkWant(reqs[agg], i); m < wanted {
					if end := o + int64(m); fileEnd < 0 || end < fileEnd {
						fileEnd = end
					}
				}
				b = rest[m:]
			}
		}
		if fileEnd < 0 {
			res.Got = n * f.view.es
			return nil
		}
		for _, s := range spans {
			if s.off >= fileEnd {
				break
			}
			in := fileEnd - s.off
			if in > int64(s.n) {
				in = int64(s.n)
			}
			res.Got += int(in)
		}
		return nil
	})
	return p, nil
}

// chunkWant returns the requested length of the i-th chunk of a
// request bundle (headers only, fixed stride).
func chunkWant(reqBundle []byte, i int) int {
	at := i * chunkHdr
	if at+chunkHdr > len(reqBundle) {
		return 0
	}
	return int(binary.LittleEndian.Uint32(reqBundle[at+8:]))
}
