package coll

import (
	"fmt"
	"sync/atomic"

	"gompi/internal/core"
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
// for messages go through recvStep/exchStep (post step + gated consume
// step — the executor parks rather than blocks), and every piece of
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
		// The empty message is only read, so its frame goes back to the
		// pool when the step ends.
		s.postRecv(&fut{lend: true}, src, tagBarrier,
			func() error { return s.isend(dst, tagBarrier, nil) },
			func([]byte) error { return nil })
	}
}

// addBcastSteps schedules a binomial-tree broadcast: at completion
// *data holds root's payload on every member.
func (c *Comm) addBcastSteps(s *sched, root int, data *[]byte) {
	vr := rel(c.Rank, root, c.Size)
	start := topMask(c.Size) >> 1
	if vr != 0 {
		low := vr & -vr // subtree parent sits at the lowest set bit
		s.recvStep(unrel(vr-low, root, c.Size), tagBcast, func(got []byte) error {
			*data = got
			return nil
		})
		start = low >> 1
	}
	for mask := start; mask > 0; mask >>= 1 {
		if vr+mask >= c.Size {
			continue
		}
		mask := mask
		s.step(func() error {
			return s.isend(unrel(vr+mask, root, c.Size), tagBcast, *data)
		})
	}
}

// addGatherSteps schedules the gather of every member's block (*mine)
// at root: each other member ships its block straight to root in one
// message, and root posts one receive per member before it consumes
// any, so no sender waits on root's progress through the others. At
// completion *out (root only) holds the blocks indexed by group rank.
// Every received block is root's own to write: a member ships a private
// copy, because *mine is its caller's again once the member returns,
// and the in-process devices hand frames over by reference.
func (c *Comm) addGatherSteps(s *sched, root int, mine *[]byte, out *[][]byte) {
	if c.Rank != root {
		s.step(func() error { return s.isendCopy(root, tagGather, *mine) })
		return
	}
	s.step(func() error {
		*out = make([][]byte, c.Size)
		(*out)[root] = *mine
		return nil
	})
	futs := make([]fut, c.Size)
	for r := range futs {
		if r != root {
			s.irecvStep(&futs[r], r, tagGather, nil)
		}
	}
	for r := range futs {
		if r != root {
			s.consumeStep(&futs[r], func(got []byte) error { (*out)[r] = got; return nil })
		}
	}
}

// addScatterSteps schedules the scatter of *parts (indexed by group
// rank, significant at root): root ships every other member a private
// copy of its block in one message, and each member receives its block
// in one; at completion *out holds this member's block. Blocks may have
// different sizes, so the same schedule serves Scatterv. *parts is read
// when the schedule runs (composed schedules construct it mid-run), so
// that is when root checks its length.
func (c *Comm) addScatterSteps(s *sched, root int, parts *[][]byte, out *[]byte) {
	if c.Rank != root {
		s.recvStep(root, tagScatter, func(got []byte) error { *out = got; return nil })
		return
	}
	s.step(func() error {
		if len(*parts) != c.Size {
			return fmt.Errorf("coll: scatter with %d parts for %d ranks", len(*parts), c.Size)
		}
		for r, b := range *parts {
			if r == root {
				*out = b
			} else if err := s.isendCopy(r, tagScatter, b); err != nil {
				return err
			}
		}
		return nil
	})
}

// addAllgatherSteps schedules the ring allgather (p-1 shifted steps);
// at completion *out holds every member's block (*mine is re-read each
// activation). Blocks may differ in size, so this also serves
// Allgatherv.
func (c *Comm) addAllgatherSteps(s *sched, mine *[]byte, out *[][]byte) {
	right := (c.Rank + 1) % c.Size
	left := (c.Rank - 1 + c.Size) % c.Size
	var blocks [][]byte
	var cur []byte
	s.onReset(func() {
		blocks = make([][]byte, c.Size)
		blocks[c.Rank] = *mine
		cur = *mine
	})
	for st := 0; st < c.Size-1; st++ {
		st := st
		s.exchStep(right, left, tagAllgather,
			func() ([]byte, error) { return cur, nil },
			func(in []byte) error {
				origin := (c.Rank - st - 1 + c.Size) % c.Size
				blocks[origin] = in
				cur = in
				return nil
			})
	}
	s.step(func() error { *out = blocks; return nil })
}

// addAlltoallSteps schedules the pairwise-exchange alltoall: parts[j]
// reaches member j; at completion *out holds the blocks received from
// every member. Variable block sizes make it also serve Alltoallv.
func (c *Comm) addAlltoallSteps(s *sched, parts [][]byte, out *[][]byte) {
	c.addAlltoallStepsFam(s, tagAlltoall, parts, out)
}

// addAlltoallStepsFam is addAlltoallSteps under an explicit tag family.
// parts contents are read lazily inside the steps, so a Plan may fill
// the (pre-sized) slice from an earlier step of the same schedule.
func (c *Comm) addAlltoallStepsFam(s *sched, family int, parts [][]byte, out *[][]byte) {
	var res [][]byte
	s.onReset(func() { res = make([][]byte, c.Size) })
	for st := 1; st < c.Size; st++ {
		dst := (c.Rank + st) % c.Size
		src := (c.Rank - st + c.Size) % c.Size
		s.exchStep(dst, src, family,
			func() ([]byte, error) { return parts[dst], nil },
			func(in []byte) error { res[src] = in; return nil })
	}
	s.step(func() error { res[c.Rank] = parts[c.Rank]; *out = res; return nil })
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

// BcastPlan builds the broadcast of root's *data along a binomial tree;
// the plan's result is data (*[]byte, see Wire), holding the payload on
// every member (the root its own slice).
func (c *Comm) BcastPlan(root int, data *[]byte) (*Plan, error) {
	p := c.NewPlan() // mint the instance before validation
	if err := c.check(root); err != nil {
		return nil, err
	}
	c.addBcastSteps(p.s, root, data)
	p.Publish(func() any { return data })
	return p, nil
}

// GatherPlan builds the gather of every member's *mine at root, each
// block in one message from its owner; the plan's result is the blocks
// indexed by group rank ([][]byte) at root, nil elsewhere.
func (c *Comm) GatherPlan(root int, mine *[]byte) (*Plan, error) {
	p := c.NewPlan() // mint the instance before validation
	if err := c.check(root); err != nil {
		return nil, err
	}
	var blocks [][]byte
	c.addGatherSteps(p.s, root, mine, &blocks)
	p.Publish(func() any { return blocks })
	return p, nil
}

// ScatterPlan builds the scatter of *parts (indexed by group rank,
// significant at root only), each block in one message from root; the
// plan's result is this member's block (*[]byte, see Wire); a root
// whose *parts does not hold one block per member fails the
// activation. Blocks may have different sizes, so the plan doubles as
// Scatterv.
func (c *Comm) ScatterPlan(root int, parts *[][]byte) (*Plan, error) {
	p := c.NewPlan() // mint the instance before validation
	if err := c.check(root); err != nil {
		return nil, err
	}
	var out []byte
	c.addScatterSteps(p.s, root, parts, &out)
	p.Publish(func() any { return &out })
	return p, nil
}

// AllgatherPlan builds the ring allgather of every member's *mine; the
// plan's result is every member's block ([][]byte). Blocks may differ
// in size (Allgatherv).
func (c *Comm) AllgatherPlan(mine *[]byte) *Plan {
	p := c.NewPlan()
	var blocks [][]byte
	c.addAllgatherSteps(p.s, mine, &blocks)
	p.Publish(func() any { return blocks })
	return p
}

// AlltoallPlan builds the pairwise exchange: parts[j] reaches member j,
// and the plan's result is the blocks received from every member
// ([][]byte). parts must be sized to the communicator; its elements are
// read when the schedule runs. Block sizes may vary (Alltoallv).
func (c *Comm) AlltoallPlan(parts [][]byte) (*Plan, error) {
	p := c.NewPlan() // mint the instance before validation
	if len(parts) != c.Size {
		return nil, fmt.Errorf("coll: alltoall with %d parts for %d ranks", len(parts), c.Size)
	}
	var out [][]byte
	c.addAlltoallSteps(p.s, parts, &out)
	p.Publish(func() any { return out })
	return p, nil
}

// runAs runs a freshly built plan on the calling goroutine and returns
// its result as a T: the body of the byte-level blocking conveniences
// below, which the runtime uses for its own agreements (communicator
// construction, file open/close, dynamic-process joins, Finalize).
func runAs[T any](p *Plan, err error) (res T, _ error) {
	if err != nil {
		return res, err
	}
	v, err := p.Run()
	if err == nil {
		res, _ = v.(T)
	}
	return res, err
}

// Barrier blocks until every member has entered it.
func (c *Comm) Barrier() error {
	_, err := runAs[any](c.BarrierPlan(), nil)
	return err
}

// Bcast distributes root's payload to every member and returns it.
func (c *Comm) Bcast(root int, data []byte) ([]byte, error) {
	res, err := runAs[any](c.BcastPlan(root, &data))
	return Wire(res), err
}

// Gather collects every member's block at root, indexed by group rank;
// other ranks get nil.
func (c *Comm) Gather(root int, mine []byte) ([][]byte, error) {
	return runAs[[][]byte](c.GatherPlan(root, &mine))
}

// Allgather collects every member's block at every member.
func (c *Comm) Allgather(mine []byte) ([][]byte, error) {
	return runAs[[][]byte](c.AllgatherPlan(&mine), nil)
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
