package coll

import (
	"fmt"
	"runtime"
	"sync"

	"gompi/internal/core"
	"gompi/internal/transport"
)

// The island fold: a small commutative allreduce among ranks of one
// address space, run without a message. Each member publishes where its
// contribution and its accumulator lie in the communicator's island,
// which the members share through their in-process job
// (transport.Job.Attach), and waits on a hold — a receive posted from
// core.NoSource under the instance's tag. The last member to arrive
// folds every contribution, writes the result into every accumulator and
// settles every hold (core.Proc.Settle), each under its owner's engine
// lock: one fold, one wake per member. A hold is the only request the
// island completes, and it is completed outside the mailbox; being a
// posted receive, it is reached by everything else that completes one —
// revocation, the engine's death or close, and Cancel.
//
// A member whose hold completes any other way — it was cancelled, its
// communicator revoked, its engine closed — leaves before the fold
// (island.leave). It leaves a private copy of its contribution behind,
// as the message schedules' first send has already shipped one, so the
// instance still folds when its last member arrives, for the members
// still waiting, and nobody is stranded: not those that arrived, not
// those yet to come. The fold, every settle and every leave run under
// the island's lock, and a leaving member takes it before its request
// completes: once a member's wait returns, nobody reads or writes its
// buffers, or touches its hold, for that instance again.

// islandMax bounds the operand of the island fold, in wire bytes; the
// eager limit bounds it too. Measured, not tuned:
// BenchmarkAllreduceSwitch (chan/island against chan/doubling), DOUBLE
// SUM on the 2-vCPU box, µs/op of the island fold over µs/op of
// recursive doubling, medians of 3 alternating rounds of 1000 ops per
// cell:
//
//	operand    8B   512B    8K    64K
//	np3      0.62   0.47  0.53   0.70
//	np4      0.30   0.38  0.50   0.59
//	np8      0.32   0.41  0.44   0.63
//
// The island wins every cell up to the eager limit, so the bound is the
// default eager limit: above it the halving schedule takes over.
const islandMax = core.DefaultEagerLimit

// islandYields is how many times a blocking call's member yields,
// looking for its hold settled, before it parks: its peers are runnable
// goroutines of this process, likely a yield from arriving, and a member
// that finds its hold settled never parks, so nobody has to wake it.
// A nonblocking start never yields. Measured, not tuned: a blocking
// DOUBLE SUM Allreduce of 8 bytes over chan on the 2-vCPU box, µs/op,
// two runs of 50,000 ops per cell:
//
//	yields      0      1      2      4      8
//	np4      11.6    8.7    8.1    7.6    8.4
//	np8      22.4   17.1   17.7   18.0   18.8
const islandYields = 4

// islandKey names a communicator's island within its job: a context id
// is unique among a communicator's members only, and the world rank of
// group rank 0 tells two disjoint communicators on one context apart.
type islandKey struct {
	ctx  int32
	root int
}

// island is the state a communicator's members share. Its instances are
// keyed by their holds' tag, which names one call, or one persistent
// activation, among those in flight as it does for the message
// schedules (see tagFamBits).
type island struct {
	mu    sync.Mutex
	insts map[int32]*instance
	spare *instance // a folded instance, kept for the next one
}

// instance is one call from its first arrival to its fold.
type instance struct {
	ms []member // by group rank
	n  int      // members arrived
}

// member is an arrived member's part: while it waits, hold is its hold
// and acc its accumulator; once it has left, hold and acc are nil and
// mine is a pooled copy of its contribution.
type member struct {
	c         *Comm
	hold      *core.Request
	mine, acc []byte // the contribution, read in place, and where the result goes
}

// island returns the communicator's island, attaching to it on first
// use, or nil when the communicator has none: it needs two members or
// more, every one a rank of this rank's in-process job, read
// undecorated — a predicate every member answers alike.
func (c *Comm) island() *island {
	if c.isl == nil && c.Size > 1 && c.local() {
		j := c.P.Job()
		c.isl = j.Attach(islandKey{c.Ctx, c.World(0)}, func() any {
			return &island{insts: make(map[int32]*instance)}
		}).(*island)
	}
	return c.isl
}

// local reports whether every member is a rank of one in-process job
// whose every endpoint an engine reads undecorated (core.Proc.Job): in
// such a job every rank's route table reaches its job's ranks, and only
// those, by reference.
func (c *Comm) local() bool {
	if c.P.Job() == nil {
		return false
	}
	for r := 0; r < c.Size; r++ {
		if !c.P.ByReference(c.World(r)) {
			return false
		}
	}
	return true
}

// addIslandSteps schedules member c.Rank's part of the island fold of
// the contribution *mine into *f.acc, wire bytes each: arrive, then wait
// on the hold.
func (c *Comm) addIslandSteps(s *sched, isl *island, f *folder, mine *[]byte, wire int) {
	h := &fut{leave: func(hold *core.Request) { isl.leave(s, hold) }}
	s.step(func() error {
		if err := isl.arrive(s, f, *mine, wire, h); err != nil {
			return err
		}
		// A blocking call's request has one waiter from the outset
		// (Plan.Run); Start's has escaped to nobody yet.
		for i := 0; i < islandYields && s.req.waiters > 0; i++ {
			if _, done := h.req.Test(); done {
				break
			}
			runtime.Gosched()
		}
		return nil
	})
	s.steps = append(s.steps, step{gate: h, run: func() error {
		req := h.req
		h.req = nil
		err := req.Stat.Err
		if req.Stat.Cancelled {
			err = ErrCancelled
		}
		if err != nil {
			isl.leave(s, req)
		}
		req.Recycle()
		return err
	}})
}

// arrive publishes this member's part of instance s and posts its hold
// into h; the last member folds.
func (isl *island) arrive(s *sched, f *folder, mine []byte, wire int, h *fut) error {
	if len(mine) != wire || len(*f.acc) != wire {
		return fmt.Errorf("coll: allreduce operand of %d bytes into %d, planned for %d", len(mine), len(*f.acc), wire)
	}
	c, k := s.c, int32(s.tag(tagReduce))
	isl.mu.Lock()
	defer isl.mu.Unlock()
	in := isl.insts[k]
	if in == nil {
		in, isl.spare = isl.spare, nil
		if in == nil {
			in = &instance{ms: make([]member, c.Size)}
		}
		isl.insts[k] = in
	}
	if in.ms[c.Rank].c != nil {
		// This member's next persistent activation, while the one it
		// left still gathers.
		return fmt.Errorf("coll: allreduce activation started before the one it left was folded")
	}
	h.req = c.P.Irecv(c.Ctx, core.NoSource, k)
	m := &in.ms[c.Rank]
	*m = member{c: c, hold: h.req, mine: mine, acc: *f.acc}
	if _, barred := h.req.Test(); barred { // a revoked context, a dead engine
		m.leave()
	}
	if in.n++; in.n < c.Size {
		return nil
	}
	delete(isl.insts, k)
	err := in.fold(f, wire)
	for i := range in.ms {
		if m := &in.ms[i]; m.hold != nil {
			m.c.P.Settle(m.hold, err)
		} else {
			transport.PutBuf(m.mine)
		}
	}
	c.vars().folds.Inc()
	clear(in.ms)
	in.n = 0
	isl.spare = in
	return nil
}

// leave is a member's exit from instance s other than by its fold: its
// hold completed with an error, or its schedule is torn down. If the
// instance still gathers, the member leaves a copy of its contribution;
// taking the lock also waits out a fold in progress.
func (isl *island) leave(s *sched, hold *core.Request) {
	isl.mu.Lock()
	defer isl.mu.Unlock()
	if in := isl.insts[int32(s.tag(tagReduce))]; in != nil && in.ms[s.c.Rank].hold == hold {
		in.ms[s.c.Rank].leave()
	}
}

// leave swaps a waiting member's contribution for a private copy and
// forgets its hold and accumulator.
func (m *member) leave() {
	m.mine = append(transport.GetBuf(len(m.mine))[:0], m.mine...)
	m.hold, m.acc = nil, nil
	m.c.vars().abandoned.Inc()
}

// fold reduces the contributions of a full instance into pooled scratch
// in exactly recursive doubling's association (addAllreduceSteps) — the
// pre-fold pairs, then partners at distance 1, 2, 4 …, the lower rank's
// operand on the left — so its result bits are that schedule's, and
// writes the result into every member's accumulator. Doubling computes
// each of these folds on every member its result reaches; the island
// computes each once, and charges every member's coll.bytes_reduced
// with the bytes its doubling schedule would have folded, so the
// counter reads the same whichever schedule ran.
func (in *instance) fold(f *folder, wire int) error {
	n := len(in.ms)
	p2, rounds := 1, 0
	for p2*2 <= n {
		p2, rounds = p2*2, rounds+1
	}
	rem := n - p2
	scratch := transport.GetBuf(max(rem, p2/2) * wire)
	defer transport.PutBuf(scratch)
	slot := func(j int) []byte { return scratch[j*wire : (j+1)*wire : (j+1)*wire] }
	// Level 0 reads value j from slot j, a pre-folded pair, for j < rem,
	// and straight from member j+rem's contribution above; every level
	// then writes its value t into slot t, which no later fold reads.
	for j := 0; j < rem; j++ {
		if _, err := f.k(in.ms[2*j].mine, in.ms[2*j+1].mine, slot(j)); err != nil {
			return err
		}
	}
	val := func(j int) []byte {
		if j < rem {
			return slot(j)
		}
		return in.ms[j+rem].mine
	}
	for w := p2; w > 1; w /= 2 {
		for t := 0; t < w/2; t++ {
			if _, err := f.k(val(2*t), val(2*t+1), slot(t)); err != nil {
				return err
			}
		}
		val = slot
	}
	for r := range in.ms {
		m := &in.ms[r]
		switch copy(m.acc, slot(0)); {
		case m.hold == nil: // it left
		case r >= 2*rem:
			m.c.vars().reduced.Add(uint64(rounds * wire))
		case r%2 == 1:
			m.c.vars().reduced.Add(uint64((rounds + 1) * wire))
		}
	}
	return nil
}
