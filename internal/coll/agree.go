package coll

import (
	"encoding/binary"
	"errors"

	"gompi/internal/core"
	"gompi/internal/transport"
)

// Agree is the fault-tolerant agreement under ULFM-style recovery
// (MPIX_Comm_agree): the one collective that must complete even while
// members are dying, because Shrink is built on it. Each member
// contributes a flags word (folded with bitwise AND), a candidate value
// (folded with MAX — Shrink feeds context-id candidates through it),
// and its view of which group ranks have failed (folded with OR); Agree
// returns the folds plus the merged failure view.
//
// The schedule is two rounds of all-to-all state exchange over the
// live members, with every message recovery-tagged so it flows even on
// a revoked communicator. A peer whose receive fails with a process
// loss is marked failed and routed around rather than aborting the
// round — the routing-around that makes the operation fault-tolerant.
// After round one every survivor knows the union of the inputs it could
// reach; round two spreads views that were updated mid-round. The
// result is uniform across survivors provided no additional member dies
// during the second round; a death that late is folded into the
// returned failure view, and callers following the ULFM usage loop
// (ack the newly observed failures, Agree again) reconverge on the next
// call.
//
// failed is the caller's current failure view, indexed by group rank
// (nil means no known failures); Agree does not mutate it. Like every
// collective, Agree must be called by all live members in the same
// program order.
func (c *Comm) Agree(flags uint32, cand int32, failed []bool) (uint32, int32, []bool, error) {
	view := make([]bool, c.Size)
	copy(view, failed)
	if c.Rank < len(view) {
		view[c.Rank] = false // self is alive by construction
	}

	for round := 0; round < 2; round++ {
		// Minted from the recovery sequence, not seq: survivors reach
		// Agree with seq misaligned (each abandoned its last data
		// collective at a different point), but execute the same
		// recovery calls in the same order.
		inst := c.rseq.Add(1) - 1
		tag := int(core.RecoveryTag) | int(inst%seqPeriod)<<core.TagFamBits | tagAgree

		state := encodeAgree(flags, cand, view)
		type pendRecv struct {
			r   int
			req *core.Request
		}
		var recvs []pendRecv
		var sends []*core.Request
		for r := 0; r < c.Size; r++ {
			if r == c.Rank || view[r] {
				continue
			}
			recvs = append(recvs, pendRecv{r, c.P.Irecv(c.Ctx, int32(r), int32(tag))})
		}
		for r := 0; r < c.Size; r++ {
			if r == c.Rank || view[r] {
				continue
			}
			req, err := c.P.Isend(c.Ctx, c.Rank, c.World(r), tag, state, core.ModeStandard, false)
			if err != nil {
				// The peer died between posting our receive and this
				// send; fold the loss, the receive fails on its own.
				var pl *transport.PeerLostError
				if !errors.As(err, &pl) {
					return 0, 0, nil, err
				}
			}
			sends = append(sends, req)
		}

		for _, pr := range recvs {
			// Copy the status error out before Recycle zeroes the
			// request that Wait's pointer aliases.
			rerr := pr.req.Wait().Err
			if rerr != nil {
				pr.req.Recycle()
				var pl *transport.PeerLostError
				if !errors.As(rerr, &pl) {
					// Not a peer death: the local endpoint itself is
					// gone (engine closed / fault-injected kill).
					return 0, 0, nil, rerr
				}
				view[pr.r] = true
				continue
			}
			pf, pc, pview, ok := decodeAgree(pr.req.Payload, c.Size)
			pr.req.Recycle()
			if !ok {
				continue // malformed: treat as absent, round 2 recovers
			}
			flags &= pf
			if pc > cand {
				cand = pc
			}
			for i, f := range pview {
				if f {
					view[i] = true
				}
			}
		}
		// Drain sends; a send that failed because its target died is
		// already reflected (or about to be) in the failure view.
		for _, sr := range sends {
			sr.Wait()
			sr.Recycle()
		}
	}
	return flags, cand, view, nil
}

// agreeWire is the fixed prefix of the agreement state: flags(4)
// cand(4), followed by the failure bitmap, one bit per group rank.
const agreeWire = 8

func encodeAgree(flags uint32, cand int32, view []bool) []byte {
	b := make([]byte, agreeWire+(len(view)+7)/8)
	binary.LittleEndian.PutUint32(b, flags)
	binary.LittleEndian.PutUint32(b[4:], uint32(cand))
	for i, f := range view {
		if f {
			b[agreeWire+i/8] |= 1 << (i % 8)
		}
	}
	return b
}

func decodeAgree(b []byte, size int) (flags uint32, cand int32, view []bool, ok bool) {
	if len(b) < agreeWire+(size+7)/8 {
		return 0, 0, nil, false
	}
	flags = binary.LittleEndian.Uint32(b)
	cand = int32(binary.LittleEndian.Uint32(b[4:]))
	view = make([]bool, size)
	for i := range view {
		view[i] = b[agreeWire+i/8]&(1<<(i%8)) != 0
	}
	return flags, cand, view, true
}
