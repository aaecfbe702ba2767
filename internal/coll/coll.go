package coll

import (
	"fmt"
	"sync/atomic"

	"gompi/internal/core"
	"gompi/internal/transport"
)

// Comm is the collective layer's view of a communicator: the rank's
// progress engine, the communicator's reserved collective context, the
// caller's group rank and size, and the group-rank→world-rank map. It
// holds the communicator's one plan cache (Cached), from which the
// binding's collectives and the runtime's own Allreduce re-arm plans.
// Collectives on one communicator must be started by all members in the
// same order (the MPI rule); the per-instance tags minted from seq rely
// on it, and in return let any number of collectives overlap in flight
// without cross-matching.
type Comm struct {
	P     *core.Proc
	Ctx   int32
	Rank  int
	Size  int
	World func(groupRank int) int

	// seq numbers the collective instances started on this
	// communicator: exactly one per collective call, minted at
	// schedule-creation time, synchronously inside the call and before
	// any validation. Every member starts collectives in the same
	// order, so the sequence-derived tags agree across ranks.
	seq atomic.Uint32

	// pseq numbers the persistent plans made on this communicator (see
	// Plan.Persist), whose tags live in a space of their own: a one-shot
	// instance however far seq has wrapped never meets them.
	pseq atomic.Uint32

	// rseq numbers the fault-tolerant agreement rounds (see agree.go)
	// separately from seq: after a failure, survivors may have
	// abandoned data collectives at different points — seq is no
	// longer aligned across ranks — but they enter recovery with the
	// same Agree/Shrink call sequence, so a dedicated counter keeps
	// the repair traffic's tags aligned.
	rseq atomic.Uint32

	// obs caches this communicator's performance-variable handles
	// (see obs.go); the zero value resolves lazily on first use.
	obs commObs

	// plans is the communicator's one plan cache (see Cached): the
	// binding's collectives and Allreduce (reduce.go) re-arm from it.
	plans Cache

	// isl is the island this member shares with the others (island.go),
	// attached by the first plan that folds through it.
	isl *island
}

// DropPlans empties the communicator's plan cache and detaches it from
// its island (the last member to go takes the island with it): a freed
// communicator holds no schedules and no island.
func (c *Comm) DropPlans() {
	c.plans.Clear()
	if c.isl != nil {
		c.P.Job().Detach(islandKey{c.Ctx, c.World(0)})
		c.isl = nil
	}
}

// Internal tag families, one per collective family, in the low
// core.TagFamBits bits of the matching tag; the instance sequence number
// occupies the bits above. Distinct families keep unrelated collectives
// apart even across the (enormous) sequence wrap-around.
const (
	tagBarrier = iota + 1
	tagBcast
	tagGather
	tagScatter
	tagAllgather
	tagAlltoall
	tagReduce
	tagScan
	// tagExscan is Exscan's own family: Scan and Exscan traffic must
	// never cross-match, even back to back on one communicator.
	tagExscan
	// tagAgree is the fault-tolerant agreement's family (see agree.go).
	// Its instances additionally carry core.RecoveryTag so they survive
	// communicator revocation.
	tagAgree
	// tagPlan0 is the first of the families reserved for Plan-composed
	// schedules (see plan.go): each communication primitive added to a
	// Plan draws the next family, so a composed schedule may use the
	// same primitive (e.g. two alltoalls in a two-phase read) without
	// its rounds cross-matching.
	tagPlan0
)

// A collective tag is space | (instance mod seqPeriod) << core.TagFamBits
// | family, below core.RecoveryTag (bit 30), which agreement rounds add.
// Two live instances of one family collide only when their numbers
// agree modulo seqPeriod in the same space. One-shot collectives (seq)
// and agreement rounds (rseq) complete in program order on every member,
// so that takes 2^25 of them in flight on one communicator at once. A
// persistent plan stays live until freed, so it gets its own space
// (tagPersistent, numbered by pseq): its tags meet another's only after
// 2^25 further *Init calls on the communicator while it is still live.
const (
	seqPeriod     = 1 << 25
	tagPersistent = 1 << 29
)

// SkipInstance advances the collective sequence without running a
// collective. Callers that abort a collective before building its
// schedule (local argument errors in the binding layer) use it to stay
// tag-aligned with members whose matching call proceeded.
func (c *Comm) SkipInstance() { c.mint(&c.seq, 0) }

// mint takes the next instance number of seq, in the tag space space.
// A cancelled instance's record (core.Proc.RevokeInstance) bars its tags
// until then: minting the number half a period past it drops the record,
// before the tags come round again, and long after any member's call of
// that instance — members stay within a period of each other.
func (c *Comm) mint(seq *atomic.Uint32, space int) uint32 {
	n := seq.Add(1) - 1
	c.P.ForgetInstance(c.Ctx, int32(space|int((n+seqPeriod/2)%seqPeriod)<<core.TagFamBits))
	return n
}

// rel maps a group rank to its rank relative to root; unrel inverts it.
func rel(rank, root, size int) int { return (rank - root + size) % size }

func unrel(vr, root, size int) int { return (vr + root) % size }

func (c *Comm) check(root int) error {
	if root < 0 || root >= c.Size {
		return fmt.Errorf("coll: root rank %d out of range [0,%d)", root, c.Size)
	}
	return nil
}

// topMask returns the power of two at or above size (the binomial
// trees' starting mask before the first halving).
func topMask(size int) int {
	top := 1
	for top < size {
		top <<= 1
	}
	return top
}

// ---------------------------------------------------------------------
// Schedule builders. Each appends one algorithm's steps to a schedule,
// allocating its instance tags as it goes; composed collectives
// (allreduce over reduce+bcast, reduce-scatter over reduce+scatter)
// chain builders, threading mid-schedule values through pointers.
//
// Two conventions make the schedules parkable and re-runnable: waits
// for messages go through postRecv (post step + gated consume step —
// the executor parks rather than blocks), and every piece of
// mutable per-activation state is initialized in an onReset hook rather
// than at build time, so a persistent schedule re-arms cleanly on each
// Start, and a cached one on each call.
// ---------------------------------------------------------------------

// addBarrierSteps schedules the dissemination barrier: ⌈log2 p⌉ rounds
// of shifted token exchanges.
func (c *Comm) addBarrierSteps(s *sched) {
	for k := 1; k < c.Size; k <<= 1 {
		dst := (c.Rank + k) % c.Size
		src := (c.Rank - k + c.Size) % c.Size
		s.postRecv(&fut{}, src, tagBarrier,
			func() error { return s.post(dst, tagBarrier, nil, false) },
			func([]byte) error { return nil })
	}
}

// Blocks is a caller's buffer as a data-movement schedule moves it,
// block r being group rank r's (a buffer of one block has block 0
// only). The schedule asks for a block each time it sends or receives
// it, so nothing is staged between activations:
//   - Wire returns block r's wire image for one message: lent, the
//     owner's memory itself, which goes out on loan (isendLent) and is
//     read until the send completes; else a frame the message takes
//     over, pooled when it came from the frame pool.
//   - Into returns the window block r lands in (a receive-into), nil
//     where it goes to Put instead.
//   - Put deposits a received block r, reading wire only during the
//     call; the frame is released when it returns. A deposit that fails
//     is the owner's to report: the schedule runs on, as every other
//     member's does.
type Blocks interface {
	Wire(r int) (wire []byte, lent, pooled bool, err error)
	Into(r int) []byte
	Put(r int, wire []byte)
}

// slots is Blocks over byte slices, the buffer of the byte-level
// collectives: block r is the slice at(r) points at, read when the
// schedule gets to it. A block leaves as a private copy in a pooled
// frame, as its owner keeps the slice, and a received block is copied
// into a slice of its own.
type slots func(r int) *[]byte

// one is the slots of one block, *b; each of the blocks (*b)[r].
func one(b *[]byte) slots { return func(int) *[]byte { return b } }

func each(b *[][]byte) slots { return func(r int) *[]byte { return &(*b)[r] } }

func (b slots) Wire(r int) ([]byte, bool, bool, error) {
	src := *b(r)
	out := transport.GetBuf(len(src))
	copy(out, src)
	return out, false, true, nil
}

func (slots) Into(int) []byte { return nil }

func (b slots) Put(r int, wire []byte) { *b(r) = append([]byte(nil), wire...) }

// sendBlock sends block r of b to dst: on loan, or in the frame b's
// Wire gives the message.
func (s *sched) sendBlock(dst, fam int, b Blocks, r int) error {
	wire, lent, pooled, err := b.Wire(r)
	switch {
	case err != nil:
		return err
	case lent:
		return s.isendLent(dst, fam, wire)
	}
	return s.post(dst, fam, wire, pooled)
}

// blockFut is the receive of block r of b: into the window b names for
// it, else borrowed, for the consumer to hand to b.Put.
func blockFut(b Blocks, r int) fut { return fut{into: func() []byte { return b.Into(r) }} }

// recvBlock appends the receive of block r of b from src, posted before
// send, if any, runs.
func (s *sched) recvBlock(src, fam int, b Blocks, r int, send func() error) {
	f := blockFut(b, r)
	s.postRecv(&f, src, fam, send, func(wire []byte) error { b.Put(r, wire); return nil })
}

// copyBlock writes block r of from into block q of to, as a message
// from this member to itself would.
func copyBlock(from Blocks, r int, to Blocks, q int) error {
	wire, _, pooled, err := from.Wire(r)
	if err != nil {
		return err
	}
	to.Put(q, wire)
	if pooled {
		transport.PutBuf(wire)
	}
	return nil
}

// addBcastSteps schedules a binomial-tree broadcast of root's block 0
// of data into every member's: a member other than root receives it
// from its parent, and every member then sends its own block on to its
// children, taking it afresh (Blocks.Wire) for each — no member
// forwards a message by reference.
func (c *Comm) addBcastSteps(s *sched, root int, data Blocks) {
	vr := rel(c.Rank, root, c.Size)
	start := topMask(c.Size) >> 1
	if vr != 0 {
		low := vr & -vr // subtree parent sits at the lowest set bit
		s.recvBlock(unrel(vr-low, root, c.Size), tagBcast, data, 0, nil)
		start = low >> 1
	}
	for mask := start; mask > 0; mask >>= 1 {
		if vr+mask < c.Size {
			dst := unrel(vr+mask, root, c.Size)
			s.step(func() error { return s.sendBlock(dst, tagBcast, data, 0) })
		}
	}
}

// addGatherSteps schedules the gather of every member's block 0 of mine
// into root's block r of out for member r: each other member sends its
// block straight to root in one message, and root posts one receive per
// member before it consumes any, so no sender waits on root's progress
// through the others.
func (c *Comm) addGatherSteps(s *sched, root int, mine, out Blocks) {
	if c.Rank != root {
		s.step(func() error { return s.sendBlock(root, tagGather, mine, 0) })
		return
	}
	s.step(func() error { return copyBlock(mine, 0, out, root) })
	futs := make([]fut, c.Size)
	for r := range futs {
		if r != root {
			futs[r] = blockFut(out, r)
			s.irecvStep(&futs[r], r, tagGather, nil)
		}
	}
	for r := range futs {
		if r != root {
			s.consumeStep(&futs[r], func(wire []byte) error { out.Put(r, wire); return nil })
		}
	}
}

// addScatterSteps schedules the scatter of root's block r of parts into
// member r's block 0 of out, each block in one message from root.
// Blocks may have different sizes, so the same schedule serves
// Scatterv.
func (c *Comm) addScatterSteps(s *sched, root int, parts, out Blocks) {
	if c.Rank != root {
		s.recvBlock(root, tagScatter, out, 0, nil)
		return
	}
	s.step(func() error {
		for r := 0; r < c.Size; r++ {
			if r == root {
				continue
			}
			if err := s.sendBlock(r, tagScatter, parts, r); err != nil {
				return err
			}
		}
		return copyBlock(parts, root, out, 0)
	})
}

// addAllgatherSteps schedules the ring allgather of every member's
// block 0 of mine into every member's block r of out for member r: p-1
// steps, each sending right the block that came from the left the step
// before (this member's own, first), taken afresh from out. Blocks may
// differ in size, so this also serves Allgatherv.
func (c *Comm) addAllgatherSteps(s *sched, mine, out Blocks) {
	right := (c.Rank + 1) % c.Size
	left := (c.Rank - 1 + c.Size) % c.Size
	s.step(func() error { return copyBlock(mine, 0, out, c.Rank) })
	for st := 0; st < c.Size-1; st++ {
		give := (c.Rank - st + c.Size) % c.Size
		s.recvBlock(left, tagAllgather, out, (give-1+c.Size)%c.Size, func() error {
			return s.sendBlock(right, tagAllgather, out, give)
		})
	}
}

// addAlltoallSteps schedules the pairwise-exchange alltoall under the
// tag family family: block j of parts reaches member j, into its block
// r of out for this member r. Variable block sizes make it also serve
// Alltoallv.
func (c *Comm) addAlltoallSteps(s *sched, family int, parts, out Blocks) {
	for st := 1; st < c.Size; st++ {
		dst := (c.Rank + st) % c.Size
		src := (c.Rank - st + c.Size) % c.Size
		s.recvBlock(src, family, out, src, func() error { return s.sendBlock(dst, family, parts, dst) })
	}
	s.step(func() error { return copyBlock(parts, c.Rank, out, c.Rank) })
}

// ---------------------------------------------------------------------
// Entry points: one plan constructor per collective (the reduction
// family's are in reduce.go). The returned Plan runs blocking (Run) or
// nonblocking (Start), and again after Rearm. Inputs are bound by
// reference and re-read by every activation; each constructor mints the
// collective's instance before validating, like every collective call.
// ---------------------------------------------------------------------

// BarrierPlan builds the barrier: it completes once every member has
// entered its matching barrier.
func (c *Comm) BarrierPlan() *Plan {
	p := c.NewPlan()
	c.addBarrierSteps(p.s)
	return p
}

// BcastPlan builds the broadcast of root's block 0 of data into every
// member's along a binomial tree. The data-movement plans deliver into
// their Blocks.
func (c *Comm) BcastPlan(root int, data Blocks) (*Plan, error) {
	p := c.NewPlan() // mint the instance before validation
	if err := c.check(root); err != nil {
		return nil, err
	}
	c.addBcastSteps(p.s, root, data)
	return p, nil
}

// GatherPlan builds the gather of every member's block 0 of mine into
// root's block r of out for member r, each block in one message from
// its owner; out is root's only.
func (c *Comm) GatherPlan(root int, mine, out Blocks) (*Plan, error) {
	p := c.NewPlan() // mint the instance before validation
	if err := c.check(root); err != nil {
		return nil, err
	}
	c.addGatherSteps(p.s, root, mine, out)
	return p, nil
}

// ScatterPlan builds the scatter of root's block r of parts (root's
// only) into member r's block 0 of out, each block in one message from
// root. Blocks may have different sizes, so the plan doubles as
// Scatterv.
func (c *Comm) ScatterPlan(root int, parts, out Blocks) (*Plan, error) {
	p := c.NewPlan() // mint the instance before validation
	if err := c.check(root); err != nil {
		return nil, err
	}
	c.addScatterSteps(p.s, root, parts, out)
	return p, nil
}

// AllgatherPlan builds the ring allgather of every member's block 0 of
// mine into every member's block r of out for member r. Blocks may
// differ in size (Allgatherv).
func (c *Comm) AllgatherPlan(mine, out Blocks) *Plan {
	p := c.NewPlan()
	c.addAllgatherSteps(p.s, mine, out)
	return p
}

// AlltoallPlan builds the pairwise exchange: block j of parts reaches
// member j, into its block r of out for this member r. Block sizes may
// vary (Alltoallv).
func (c *Comm) AlltoallPlan(parts, out Blocks) *Plan {
	p := c.NewPlan()
	c.addAlltoallSteps(p.s, tagAlltoall, parts, out)
	return p
}

// runPlan runs a freshly built plan on the calling goroutine: the body of
// the byte-level blocking conveniences below, which the runtime uses
// for its own agreements (communicator construction, file open/close,
// dynamic-process joins, Finalize).
func runPlan(p *Plan, err error) error {
	if err == nil {
		err = p.Run()
	}
	return err
}

// Barrier blocks until every member has entered it.
func (c *Comm) Barrier() error { return runPlan(c.BarrierPlan(), nil) }

// Bcast distributes root's payload to every member and returns it.
func (c *Comm) Bcast(root int, data []byte) ([]byte, error) {
	err := runPlan(c.BcastPlan(root, one(&data)))
	return data, err
}

// Gather collects every member's block at root, indexed by group rank;
// other ranks get nil.
func (c *Comm) Gather(root int, mine []byte) ([][]byte, error) {
	var out [][]byte
	if c.Rank == root {
		out = make([][]byte, c.Size)
	}
	err := runPlan(c.GatherPlan(root, one(&mine), each(&out)))
	return out, err
}

// Allgather collects every member's block at every member.
func (c *Comm) Allgather(mine []byte) ([][]byte, error) {
	out := make([][]byte, c.Size)
	err := runPlan(c.AllgatherPlan(one(&mine), each(&out)), nil)
	return out, err
}

// AgreeContextBase agrees on a context-id base for a new communicator:
// the max of all members' local candidates, via Allreduce over this
// (parent) communicator's collective context.
func (c *Comm) AgreeContextBase() (int32, error) {
	res, err := c.Allreduce([]int32{c.P.AllocContexts()}, Max)
	if err != nil {
		return 0, err
	}
	base := res.([]int32)[0]
	return base, c.P.CommitContexts(base)
}
