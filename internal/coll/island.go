package coll

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"gompi/internal/core"
	"gompi/internal/transport"
)

// The island fold: a commutative allreduce among ranks of one address
// space, run without a message. Each member publishes where its
// contribution and its accumulator lie in the communicator's island,
// which the members share through their in-process job
// (transport.Job.Attach), and waits on a hold — a receive posted from
// core.NoSource under the instance's tag. The last member to arrive
// opens the fold, which is cut into chunks (islandChunk): it and every
// member still in the call claim chunks through one counter, and each
// chunk is folded in recursive doubling's association (tree) and
// written into every accumulator by whoever claimed it, through one
// walker — its whole 64-byte blocks by the operation's tree steps, the
// top one of which stores straight into every accumulator, the rest by
// the plan's kernel (foldChunk, walk). The member that folds the last
// chunk settles every hold (core.Proc.Settle), each under its owner's
// engine lock: one wake per member. A hold is the only request the island completes, and it is
// completed outside the mailbox; being a posted receive, it is reached by
// everything else that completes one — revocation, the engine's death or
// close, and Cancel.
//
// A member whose hold completes any other way — its wait was cancelled,
// its communicator revoked, its engine closed — leaves (island.leave).
// Before the fold opens it leaves a private copy of its contribution
// behind, as the message schedules' first send has already shipped one,
// so the instance still folds when its last member arrives, for the
// members still waiting, and nobody is stranded: not those that arrived,
// not those yet to come. Once the fold is open it reads the member's
// contribution and writes its accumulator, so the leaving member helps
// fold and waits until the fold is over. Arrivals, leaves and the settle
// take the island's lock, and a leaving member takes it before its
// request completes: once a member's wait returns, nobody reads or
// writes its buffers, or touches its hold, for that instance again. A
// cancelled wait revokes the instance on its member's engine alone
// (Request.WaitCtx): no other member is told, as a member that leaves
// strands nobody.

// islandChunk is the span of one chunk of the fold in wire bytes, cut
// down to a whole number of the operand's units. Measured, not tuned:
// BenchmarkAllreduceSwitch chan/island, DOUBLE SUM through the tree
// steps on the 2-vCPU box, µs/op, medians of 3 alternating rounds of 300
// ops per cell:
//
//	chunk        4K     8K    16K    32K    64K
//	np3 256K   63.2   60.8   48.7   44.3   44.8
//	np3 1M      248    212    198    226    202
//	np4 256K   56.8   52.3   48.4   53.8   50.3
//	np4 1M      254    244    235    237    223
//	np8 256K    157    146    150    160    141
//	np8 1M      582    576    556    580    543
//
// Smaller chunks pay more claims per byte. No size beat 16K here by
// more than the quartile spread of the pairwise fold's 16K build run
// beside it, nor in a second sitting of 11 rounds; a third, of 5 rounds,
// had 32K or 64K ahead beyond that spread in three cells (np3 1M, np4
// 256K, np8 1M), which the other two sittings did not repeat. So 16K
// stays: the smallest of the sizes that agree splits the work the most
// evenly between the CPUs.
const islandChunk = 16 << 10

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

// islandChunkYields is islandYields for an instance of more than one
// chunk, whose early members help fold once it opens: a member that
// parks folds nothing. Measured, not tuned: BenchmarkAllreduceSwitch
// chan/island, DOUBLE SUM on the 2-vCPU box, µs/op, medians of 3
// alternating rounds of 300 ops per cell:
//
//	yields        4     16     64    256   1024
//	np3 256K   62.8   39.0   37.7   37.5   40.8
//	np3 1M      270    182    174    161    166
//	np4 256K   78.4   53.5   46.2   44.3   46.8
//	np4 1M      345    259    226    237    231
//	np8 256K    190    130    122    134    119
//	np8 1M      604    511    475    467    466
//
// From 64 up the cells agree within the noise; the bound is the least
// of those, as every yield is a member that could have parked.
const islandChunkYields = 64

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
// schedules (see core.TagFamBits).
type island struct {
	mu    sync.Mutex
	insts map[int32]*instance
	spare *instance // a folded instance, kept for the next one
}

// instance is one call from its first arrival to the end of its fold.
type instance struct {
	ms []member // by group rank
	n  int      // members arrived; all of them once the fold is open
	// The open fold: op and key are written by the member that opens it
	// before it publishes todo, and read by whoever claims a chunk.
	op  *islandOp
	key int32
	err error // a chunk's fold error, under the island's lock
	// todo counts the chunks not yet claimed, and is at most 0 while no
	// fold is open; left counts the chunks not yet folded.
	todo, left atomic.Int32
}

// member is an arrived member's part: while it waits, hold is its hold
// and acc its accumulator; once it has left, hold and acc are nil and
// mine is a pooled copy of its contribution.
type member struct {
	c         *Comm
	hold      *core.Request
	mine, acc []byte // the contribution, read in place, and where the result goes
}

// islandOp is a plan's part in the fold: its kernel and accumulator,
// the association it folds in, its operand's shape and how it is
// chunked, and whether the message schedules would have halved it (what
// coll.bytes_reduced charges).
type islandOp struct {
	f                 *folder
	t                 tree
	wire, unit, chunk int
	halving           bool
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
// the contribution *mine, units groups of unit wire bytes, into *f.acc
// in t's association: arrive, then wait on the hold.
func (c *Comm) addIslandSteps(s *sched, isl *island, f *folder, mine *[]byte, t tree, units, unit int, halving bool) {
	op := &islandOp{f: f, t: t, wire: units * unit, unit: unit, chunk: max(islandChunk/unit, 1) * unit, halving: halving}
	yields := islandYields
	if op.wire > op.chunk {
		yields = islandChunkYields
	}
	s.local = true
	h := &fut{leave: func(hold *core.Request) { isl.leave(s, hold) }}
	s.step(func() error {
		in, err := isl.arrive(s, op, *mine, h)
		if err != nil {
			return err
		}
		// A blocking call's request has one waiter from the outset
		// (Plan.Run); Start's has escaped to nobody yet.
		for i := 0; i < yields && s.req.waiters > 0; i++ {
			isl.help(in, c, false)
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
		if err != nil {
			isl.leave(s, req)
		} else {
			// Charged by the member itself, before its call returns: a
			// hold only the settle completes without an error.
			f.reduced.Add(uint64(op.charge(c.Rank)))
		}
		req.Recycle()
		return err
	}})
}

// arrive publishes this member's part of instance s and posts its hold
// into h; the last member opens the fold. Every member then helps fold
// what it can claim.
func (isl *island) arrive(s *sched, op *islandOp, mine []byte, h *fut) (*instance, error) {
	if len(mine) != op.wire || len(*op.f.acc) != op.wire {
		return nil, fmt.Errorf("coll: allreduce operand of %d bytes into %d, planned for %d", len(mine), len(*op.f.acc), op.wire)
	}
	c, k := s.c, int32(s.tag(tagReduce))
	isl.mu.Lock()
	in := isl.insts[k]
	if in == nil {
		in, isl.spare = isl.spare, nil
		if in == nil {
			in = &instance{ms: make([]member, c.Size)}
		}
		isl.insts[k] = in
	}
	if in.ms[c.Rank].c != nil {
		isl.mu.Unlock()
		// This member's next persistent activation, while the one it
		// left still gathers.
		return nil, fmt.Errorf("coll: allreduce activation started before the one it left was folded")
	}
	h.req = c.P.Irecv(c.Ctx, core.NoSource, k)
	m := &in.ms[c.Rank]
	*m = member{c: c, hold: h.req, mine: mine, acc: *op.f.acc}
	if _, barred := h.req.Test(); barred { // a revoked context, a dead engine
		m.leave()
	}
	in.n++
	opens := in.n == c.Size
	if opens {
		chunks := int32((op.wire + op.chunk - 1) / op.chunk)
		in.op, in.key = op, k
		in.left.Store(chunks)
		in.todo.Store(chunks)
	}
	isl.mu.Unlock()
	isl.help(in, c, opens)
	return in, nil
}

// help folds chunks of in's fold, while it is open and has chunks left
// to claim, for member c, which opened it or not; whoever folds the last
// chunk settles the instance. The member calls it while in is its
// instance, so an in folded since and re-used for another call is one
// whose fold this member has not arrived at yet: it has nothing to claim.
func (isl *island) help(in *instance, c *Comm, opener bool) {
	for in.todo.Load() > 0 {
		i := int(in.todo.Add(-1))
		if i < 0 {
			return
		}
		if err := in.foldChunk(i); err != nil {
			isl.mu.Lock()
			in.err = err
			isl.mu.Unlock()
		}
		if !opener {
			c.vars().helped.Inc()
		}
		if in.left.Add(-1) == 0 {
			isl.settle(in, c)
		}
	}
}

// settle ends in's fold, which member c finished: every hold still
// posted completes, and in is kept for the next instance. Each member
// whose hold completes without an error charges coll.bytes_reduced
// itself (addIslandSteps), so the charge is in before its call returns.
func (isl *island) settle(in *instance, c *Comm) {
	isl.mu.Lock()
	defer isl.mu.Unlock()
	delete(isl.insts, in.key)
	for r := range in.ms {
		if m := &in.ms[r]; m.hold == nil { // it left a copy
			transport.PutBuf(m.mine)
		} else {
			m.c.P.Settle(m.hold, in.err)
		}
	}
	c.vars().folds.Inc()
	clear(in.ms)
	in.n, in.op, in.err = 0, nil, nil
	isl.spare = in
}

// leave is a member's exit from instance s other than by its fold: its
// hold completed with an error, or its schedule is torn down. If the
// instance still gathers, the member leaves a copy of its contribution;
// if its fold is open, the member helps fold until the fold is over.
func (isl *island) leave(s *sched, hold *core.Request) {
	k := int32(s.tag(tagReduce))
	isl.mu.Lock()
	in := isl.insts[k]
	if in == nil || in.ms[s.c.Rank].hold != hold {
		isl.mu.Unlock()
		return
	}
	if in.n < len(in.ms) {
		in.ms[s.c.Rank].leave()
		isl.mu.Unlock()
		return
	}
	isl.mu.Unlock()
	for {
		isl.help(in, s.c, false)
		isl.mu.Lock()
		open := isl.insts[k] == in
		isl.mu.Unlock()
		if !open {
			return
		}
		runtime.Gosched()
	}
}

// leave swaps a waiting member's contribution for a private copy and
// forgets its hold and accumulator.
func (m *member) leave() {
	m.mine = append(transport.GetBuf(len(m.mine))[:0], m.mine...)
	m.hold, m.acc = nil, nil
	m.c.vars().abandoned.Inc()
}

// foldChunk reduces chunk i of every contribution of an open instance
// in its association and writes the result into that chunk of every
// member's accumulator (walk), choosing the steps: the chunk's whole
// 64-byte blocks go through the operation's tree steps where it has them
// and every view is aligned for its class, as fixed requires; the rest —
// a tail under one block, misaligned views, an operation with no block
// form — through the plan's kernel, in a second walk after the blocks.
func (in *instance) foldChunk(i int) error {
	op, bf := in.op, &in.op.f.form
	lo := i * op.chunk
	for hi := min(lo+op.chunk, op.wire); lo < hi; {
		w := hi - lo
		fused := bf.four != nil && w >= blockBytes
		var sb, db [16]unsafe.Pointer // past 16 members they move to the heap
		srcs, dsts := sb[:0], db[:0]
		for r := range in.ms {
			m := &in.ms[r]
			srcs = append(srcs, unsafe.Pointer(&m.mine[lo]))
			fused = fused && uintptr(srcs[r])%bf.align == 0
			if m.acc != nil {
				dsts = append(dsts, unsafe.Pointer(&m.acc[lo]))
				fused = fused && uintptr(dsts[len(dsts)-1])%bf.align == 0
			}
		}
		if fused {
			w -= w % blockBytes
		}
		var scratch []byte
		if n := op.t.slots(fused) * w; n > 0 {
			scratch = transport.GetBuf(n)
		}
		err := op.walk(srcs, dsts, scratch, w, fused)
		transport.PutBuf(scratch)
		if err != nil {
			return err
		}
		lo += w
	}
	return nil
}

// slots is how many values of one walk's width walk keeps in scratch:
// the pre-fold pairs' values, and those of the lowest level below the
// top, whichever are more. The tree steps fold four operands a step
// above the first odd level, so none at np 2 and 4, and the kernel's
// steps none at np 2.
func (t tree) slots(fused bool) int {
	lowest := t.p2 / 2 // a 2-operand level's
	switch {
	case t.levels <= 1 || fused && t.levels == 2:
		lowest = 0
	case fused && t.levels%2 == 0:
		lowest = t.p2 / 4 // a tree step's
	}
	return max(t.rem, lowest)
}

// walk folds w bytes of n = len(srcs) ≥ 2 operands, srcs[j] member j's,
// in exactly recursive doubling's association (op.t, addAllreduceSteps)
// — the pre-fold pairs, then partners at distance 1, 2, 4 …, the lower
// rank's operand on the left — and stores the result at every one of
// dsts. Its steps are the operation's block loops when fused (w whole
// blocks, every view aligned for the class), and the plan's kernel
// otherwise. The kernel's steps, and the tree steps' first level where
// the count of levels is odd, fold two operands a step into scratch,
// which holds slots(fused) values; the tree steps fold the rest four a
// step, so their top step stores straight into dsts. Where two operands
// are left at the top (np 2 and 3, and every kernel walk), one step
// writes dsts[0], which the others copy. Any destination may be a
// source: with more than maxDsts of them the top reads scratch, and a
// lower step writes scratch only.
func (op *islandOp) walk(srcs, dsts []unsafe.Pointer, scratch []byte, w int, fused bool) error {
	if len(dsts) == 0 {
		return nil
	}
	t, f, nb := op.t, op.f, w/blockBytes
	two := func(a, b, d unsafe.Pointer) (err error) {
		if fused {
			f.form.two.run(a, b, d, nb)
		} else {
			_, err = f.k(unsafe.Slice((*byte)(a), w), unsafe.Slice((*byte)(b), w), unsafe.Slice((*byte)(d), w))
		}
		return err
	}
	// Level 0 reads value j from slot j, a pre-folded pair, for j < rem,
	// and straight from the operand of the member that stands for it
	// above; every level then writes its value j into slot j, which no
	// later fold reads.
	slot := func(j int) unsafe.Pointer { return unsafe.Pointer(&scratch[j*w]) }
	for j := 0; j < t.rem; j++ {
		if err := two(srcs[2*j], srcs[2*j+1], slot(j)); err != nil {
			return err
		}
	}
	val := func(j int) unsafe.Pointer {
		if j < t.rem {
			return slot(j)
		}
		return srcs[t.realOf(j)]
	}
	lv := t.levels
	for ; lv > 1 && (!fused || lv%2 == 1); lv-- {
		for j := 0; j < 1<<(lv-1); j++ {
			if err := two(val(2*j), val(2*j+1), slot(j)); err != nil {
				return err
			}
		}
		val = slot
	}
	if lv == 1 {
		if err := two(val(0), val(1), dsts[0]); err != nil {
			return err
		}
		res := unsafe.Slice((*byte)(dsts[0]), w)
		for _, d := range dsts[1:] {
			copy(unsafe.Slice((*byte)(d), w), res)
		}
		return nil
	}
	four := func(j int) [4]unsafe.Pointer {
		return [4]unsafe.Pointer{val(4 * j), val(4*j + 1), val(4*j + 2), val(4*j + 3)}
	}
	for ; lv > 2; lv -= 2 {
		for j := 0; j < 1<<(lv-2); j++ {
			f.form.quad(four(j), []unsafe.Pointer{slot(j)}, nb)
		}
		val = slot
	}
	f.form.quad(four(0), dsts, nb)
	return nil
}

// charge is what member r folds by the message schedule this fold
// stands in for — the pre-fold's whole operand for the odd member of a
// front pair, then doubling's whole operand every round, or halving's
// kept window — so coll.bytes_reduced reads the same whichever ran.
func (op *islandOp) charge(r int) int {
	t, got := op.t, 0
	nr := t.newRank(r)
	switch {
	case nr < 0:
		return 0
	case r < 2*t.rem:
		got = op.wire
	}
	if !op.halving {
		return got + t.levels*op.wire
	}
	t.halving(nr, op.wire/op.unit, op.unit, func(_ int, keep, _ span) { got += keep.hi - keep.lo })
	return got
}
