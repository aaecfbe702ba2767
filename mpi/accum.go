package mpi

import "gompi/internal/transport"

// accum is one reduction's accumulator: the single wire-format buffer
// the collective layer folds into, loaded with this rank's contribution
// (the send section) before each activation and holding the result
// afterwards. Where the receive section is a contiguous fixed-size
// section of a native slice on a little-endian host, the accumulator IS
// that section's memory and the result needs no deposit; otherwise it is
// a pooled frame (an ordinary slice for OBJECT data, whose wire size is
// unknown), drawn by load and returned by fin once the result is
// unpacked into the section. The two sections are the caller's to keep
// and to pass to load and fin.
type accum struct {
	b      []byte
	direct bool // b aliases the receive section
	pooled bool // b came from the frame pool and goes back after the deposit

	// recv is false on ranks the collective delivers nothing to
	// (non-roots of Reduce, rank 0 of Exscan).
	recv bool

	// src is the contribution's memory where that is its wire image and
	// the schedule reads it in place (sendView); load then packs nothing.
	src []byte
}

// newAccum validates both sections — before any message moves — and
// makes an accumulator for them: every call of a reduction makes one,
// whether its plan is built or taken from the cache, which re-binds it.
// The two counts differ only for ReduceScatter, which folds every rank's
// segment and receives one.
func newAccum(recv bool, send, into section) (accum, error) {
	a := accum{recv: recv}
	if _, err := send.check(); err != nil {
		return a, err
	}
	if recv {
		n, err := into.check()
		if err != nil {
			return a, err
		}
		if send.count == into.count {
			a.b, a.direct = into.view(n)
		}
	}
	return a, nil
}

// sendView offers the schedule this rank's contribution where it lies,
// src — the send section's own memory, never written, which the caller
// sets where a send would go out on loan (lendView: above the eager
// limit, and its wire image as it stands); nil when it is to be packed
// into the accumulator.
func (a *accum) sendView() *[]byte {
	if a.src == nil {
		return nil
	}
	return &a.src
}

// load packs the contribution in send into the accumulator, drawing its
// frame first where it is not the receive section itself.
func (a *accum) load(send *section) error {
	if n := send.d.t.WireBytes(send.count); !a.direct && n >= 0 {
		a.b, a.pooled = transport.GetBuf(n), true
	}
	if a.src != nil {
		return nil
	}
	b, err := send.packChecked(a.b[:0])
	if err != nil {
		a.release()
		return err
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

// fin is the completion deposit of the result the reduction left in
// the accumulator into the receive section: none where the rank
// receives nothing or the accumulator is the section itself.
func (a *accum) fin(into *section) (err error) {
	if a.recv && !a.direct {
		_, err = into.unpackChecked(a.b)
	}
	a.release()
	return err
}
