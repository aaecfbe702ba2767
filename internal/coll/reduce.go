package coll

import (
	"fmt"

	"gompi/internal/dtype"
	"gompi/internal/obs"
)

// The reduction family. Operands are wire-format bytes end to end. A
// schedule owns exactly one accumulator, *acc: the caller fills it with
// this member's contribution before every activation (the pointer is
// re-read, so a persistent operation may re-pack or re-point it) and
// finds the result there where the collective defines one. A partner's
// operand is folded into it straight out of the frame it arrived in
// (foldRecvStep), so a round produces no garbage.
//
// What a round sends follows one ownership rule: memory this member
// goes on writing while the message is in flight travels as a private
// copy in a pooled frame (isendCopy — the whole accumulator of a tree
// reduction, a scan, the odd-size pre/post fold, a recursive-doubling
// round); a window of the accumulator this member is done with travels
// on loan, uncopied (isendLent — the halves a large allreduce gives
// away, and gathers back). A lent window is exclusively the borrower's
// until it is released: its owner neither reads nor writes it, the
// borrower folds out of it in place, and it is written again only by
// the deposit that refills it from that same borrower. The windows a
// round lends and the windows it writes are disjoint by construction.
//
// For the fixed-size classes *acc keeps pointing at the caller's buffer
// throughout; OBJECT operands change size as they fold, and the kernel
// re-points *acc at each fresh encoding.

// folder binds the kernel resolved for a plan to its accumulator.
type folder struct {
	acc *[]byte
	// src, when set, is where the caller left this member's contribution
	// instead of loading it into *acc: read-only memory (a send buffer),
	// possibly *acc's own. A schedule either reads it where it lies or
	// starts by copying it (preload).
	src     *[]byte
	k       Kernel
	form    blockForm // k's block loops, if it has them: the island's fold
	reduced *obs.Counter
}

func (c *Comm) newFolder(acc *[]byte, op *Op, cls dtype.Class) (*folder, error) {
	k, err := op.Kernel(cls)
	if err != nil {
		return nil, err
	}
	return &folder{acc: acc, k: k, form: op.forms[cls], reduced: c.vars().reduced}, nil
}

// preload has every activation start by copying the contribution into
// the accumulator, for schedules that fold in place from the first step.
func (f *folder) preload(s *sched) {
	s.onReset(func() {
		if !aliases(*f.acc, *f.src) {
			copy(*f.acc, *f.src)
		}
	})
}

// fold runs the kernel once and accounts for the bytes it folded.
func (f *folder) fold(lo, hi, dst []byte) ([]byte, error) {
	res, err := f.k(lo, hi, dst)
	if err == nil {
		f.reduced.Add(uint64(len(res)))
	}
	return res, err
}

// below folds in an operand that covers lower ranks than the
// accumulator: acc = op(theirs, acc).
func (f *folder) below(theirs []byte) (err error) {
	*f.acc, err = f.fold(theirs, *f.acc, *f.acc)
	return err
}

// above folds in an operand that covers higher ranks: acc = op(acc,
// theirs).
func (f *folder) above(theirs []byte) (err error) {
	*f.acc, err = f.fold(*f.acc, theirs, *f.acc)
	return err
}

// window folds a partner's operand for the window w into that window of
// the accumulator — fixed-size classes only, whose kernels write where
// they are told. This member's own operand for w is read from *mine
// (the accumulator itself, or a contribution not loaded into it); lower
// says the partner's covers the lower ranks.
func (f *folder) window(mine *[]byte, w span, theirs []byte, lower bool) (err error) {
	if lower {
		_, err = f.fold(theirs, w.of(mine), w.of(f.acc))
	} else {
		_, err = f.fold(w.of(mine), theirs, w.of(f.acc))
	}
	return err
}

// set overwrites the accumulator's value with v: in place when the
// sizes agree (always, for the fixed-size classes), by adopting a copy
// otherwise.
func (f *folder) set(v []byte) error {
	if len(v) == len(*f.acc) {
		copy(*f.acc, v)
	} else {
		*f.acc = append([]byte(nil), v...)
	}
	return nil
}

// addReduceSteps schedules the reduction toward root; at completion
// root's accumulator holds the result. Commutative ops fold up a
// binomial tree; non-commutative ops gather at root and fold in strict
// rank order.
func (c *Comm) addReduceSteps(s *sched, root int, f *folder, commutative bool) {
	if !commutative {
		c.addOrderedReduceSteps(s, root, f)
		return
	}
	vr := rel(c.Rank, root, c.Size)
	for mask := 1; mask < c.Size; mask <<= 1 {
		if vr&mask != 0 {
			parent := unrel(vr-mask, root, c.Size)
			s.step(func() error { return s.isendCopy(parent, tagReduce, *f.acc) })
			return // contribution forwarded; this member is done
		}
		if vr+mask < c.Size {
			// The accumulator holds the lower-rank contributions.
			s.foldRecvStep(unrel(vr+mask, root, c.Size), tagReduce, f.above)
		}
	}
}

// addOrderedReduceSteps gathers all contributions at root, each in one
// message, and folds them in strict rank order, as required for
// non-commutative operations.
func (c *Comm) addOrderedReduceSteps(s *sched, root int, f *folder) {
	var blocks [][]byte
	c.addGatherSteps(s, root, f.acc, &blocks)
	if c.Rank != root {
		return
	}
	s.step(func() error {
		// Every block is this member's to overwrite — its own
		// accumulator, or the private copy a member shipped it — so the
		// running result moves from block to block.
		cur := blocks[0]
		for _, next := range blocks[1:] {
			var err error
			if cur, err = f.fold(cur, next, next); err != nil {
				return err
			}
		}
		return f.set(cur)
	})
}

// addAllreduceSteps schedules the all-reduction; at completion every
// member's accumulator holds the result. Non-commutative ops reduce to
// rank 0 and broadcast. Commutative ops fold among the largest power of
// two of members, p2, with the standard pre/post fold bringing the rest
// in and out, by one of two schedules that associate every element
// identically (tree) — partners at distance 1 first, then 2, 4, …, the
// lower rank's operand on the left — so the result bits depend on
// neither, and by a third that folds in that same association:
//
//   - the island fold (island.go), when every member is a rank of one
//     in-process job read undecorated, for an operation of the
//     library's own (pure), at any operand size: no message; once the
//     last member has arrived, the members still in the call fold every
//     contribution where it lies, chunk by chunk, and write every
//     accumulator.
//   - recursive doubling: log2(p2) exchanges of the whole vector, each
//     folded whole. Latency-optimal; every byte is sent and folded
//     log2(p2) times.
//   - recursive halving + doubling (reduce-scatter, then allgather),
//     when the operand is units indivisible groups of unit wire bytes,
//     at least p2 groups long and large in all (halves: over the
//     engine's eager limit, among members of one address space), and
//     the island does not take it — a decorated or multi-process job,
//     tcp, a user-defined operation: each exchange of the first phase
//     gives half of what is left away and folds only the half it keeps,
//     the second phase mirrors it back. Twice the messages, but each
//     byte is sent 2(1-1/p2) times and folded 1-1/p2 times, on loan and
//     into place (see the ownership rule above). Members agree on the
//     eager limit because it is one value per job: every engine is
//     built with it and none can change it, spawned worlds inherit it,
//     and Connect/Accept refuses to join worlds whose limits differ.
//
// unit is 0 for operands whose wire size is not fixed (OBJECT). pure
// says the kernel writes its destination and nothing else, so an
// operand may be memory this member must not modify.
func (c *Comm) addAllreduceSteps(s *sched, f *folder, commutative, pure bool, units, unit int) {
	if !commutative {
		if f.src != nil {
			f.preload(s)
		}
		c.addReduceSteps(s, 0, f, false)
		var wire []byte
		s.step(func() error {
			if c.Rank == 0 {
				// Broadcast fans one buffer out by reference, and the
				// accumulator is the caller's again once this schedule
				// completes: ship a snapshot.
				wire = append([]byte(nil), *f.acc...)
			}
			return nil
		})
		c.addBcastSteps(s, 0, &wire)
		s.step(func() error { return f.set(wire) })
		return
	}

	t := newTree(c.Size)
	wire := units * unit
	var isl *island
	if unit > 0 && units > 0 && pure {
		isl = c.island()
	}
	halving := t.p2 > 1 && unit > 0 && units >= t.p2 && c.halves(wire)

	// mine is where this member's running value stands until a fold has
	// written the accumulator: the island fold and the halving schedule
	// read a contribution left in place (f.src) where it lies — the
	// island's fold writes the accumulator whole, halving's first fold one
	// half of it and the allgather the other, so no load pass is ever
	// made — provided the kernel leaves its operands alone.
	mine := f.acc
	if f.src != nil {
		if isl != nil || halving && pure {
			mine = f.src
		} else {
			f.preload(s)
		}
	}
	if isl != nil {
		c.addIslandSteps(s, isl, f, mine, t, units, unit, halving)
		return
	}

	nr := t.newRank(c.Rank)
	switch {
	case nr < 0:
		// Fold into the odd neighbour, then idle until the post-fold.
		if mine == f.src {
			// Memory nobody writes: nothing to protect it from.
			s.step(func() error { return s.isendLent(c.Rank+1, tagReduce, *f.src) })
		} else {
			s.step(func() error { return s.isendCopy(c.Rank+1, tagReduce, *f.acc) })
		}
	case c.Rank < 2*t.rem:
		from := mine
		s.foldRecvStep(c.Rank-1, tagReduce, func(theirs []byte) (err error) {
			*f.acc, err = f.fold(theirs, *from, *f.acc)
			return err
		})
		mine = f.acc
	}

	switch {
	case nr < 0:
	case halving:
		c.addHalvingSteps(s, f, mine, t, nr, units, unit)
	default:
		for mask := 1; mask < t.p2; mask <<= 1 {
			partner := nr ^ mask
			fold := f.above
			if partner < nr {
				fold = f.below
			}
			s.foldExchStep(t.realOf(partner), tagReduce, f.acc, fold)
		}
	}

	// Post-fold: odd members of the front block return results to the
	// idled even members.
	if c.Rank < 2*t.rem {
		if nr < 0 {
			s.foldRecvStep(c.Rank+1, tagReduce, f.set)
		} else {
			s.step(func() error { return s.isendCopy(c.Rank-1, tagReduce, *f.acc) })
		}
	}
}

// tree is recursive doubling's association of n members' operands,
// which every commutative allreduce path follows, so all give the same
// bits: the largest power of two p2 ≤ n of them fold among themselves
// in levels rounds, partners at distance 1, 2, 4 …, the lower rank's
// operand on the left; the rem = n - p2 others are pre-folded in first,
// member 2j into its odd neighbour 2j+1 for j < rem, which stands for
// the pair.
type tree struct{ p2, rem, levels int }

func newTree(n int) tree {
	t := tree{p2: 1}
	for t.p2*2 <= n {
		t.p2, t.levels = t.p2*2, t.levels+1
	}
	t.rem = n - t.p2
	return t
}

// newRank is member r's rank among the p2, or -1 for the even member of
// a front pair, which idles from the pre-fold to the post-fold.
func (t tree) newRank(r int) int {
	switch {
	case r >= 2*t.rem:
		return r - t.rem
	case r%2 == 1:
		return r / 2
	}
	return -1
}

// realOf is the member that stands for rank nr among the p2.
func (t tree) realOf(nr int) int {
	if nr < t.rem {
		return 2*nr + 1
	}
	return nr + t.rem
}

// halving walks rank nr's part of the halving schedule's reduce-scatter
// over an operand of units groups of unit wire bytes: in the round of
// mask, nr and its partner nr^mask hold the same window, and the one
// with that bit clear keeps the lower half of its groups, the other the
// upper. round gets the byte windows nr keeps and gives away.
func (t tree) halving(nr, units, unit int, round func(mask int, keep, give span)) {
	lo, hi := 0, units
	for mask := 1; mask < t.p2; mask <<= 1 {
		mid := lo + (hi-lo)/2
		low, high := span{lo * unit, mid * unit}, span{mid * unit, hi * unit}
		if nr&mask != 0 {
			round(mask, high, low)
			lo = mid
		} else {
			round(mask, low, high)
			hi = mid
		}
	}
}

// farHalvingFactor places the switch to halving + doubling, in eager
// limits, for a communicator with members out of this address space
// (halves). Measured, not tuned: BenchmarkAllreduceSwitch, DOUBLE SUM on
// the 2-vCPU box, this schedule's µs/op over recursive doubling's at an
// eager limit of 64 KiB, each side built with halves pinned to one
// schedule, medians of 4 alternating rounds of 200 ops per cell
// (loopback tcp is noisy there: single cells move ±10 %):
//
//	operand       64K+8  128K  256K  512K   1M
//	chan     np4   0.63  0.55  0.59  0.60  0.47
//	chan     np3   0.62  0.56  0.50  0.61  0.79
//	tcp      np4   1.48  1.29  0.93  0.75  0.61
//	tcp      np3   1.24  1.05  0.88  0.85  0.86
//
// By reference the extra rounds are paid for as soon as the operand is
// a rendezvous message at all; over a socket every one of twice as many
// messages is three more trips through the kernel, and at four members
// the bytes saved only clearly outweigh them from eight eager limits up
// (at four, the ratio is within a cell's noise of 1).
const farHalvingFactor = 8

// halves reports whether a commutative allreduce of wire bytes is large
// enough for the halving + doubling schedule: anything above the
// engine's eager limit when every member is a rank of one in-process job
// read undecorated (local: the island's predicate, which every member
// answers alike, where a member's own view of who it reaches by
// reference is not), eight eager limits and up otherwise.
func (c *Comm) halves(wire int) bool {
	eager := c.P.EagerLimit()
	if wire <= eager || wire >= farHalvingFactor*eager {
		return wire > eager // a negative limit (all-rendezvous) makes every operand large
	}
	return c.local()
}

// addHalvingSteps schedules member nr's part of the halving + doubling
// allreduce among t.p2 members (see addAllreduceSteps). In round k of
// the reduce-scatter the two partners, whose ranks differ in bit k, hold
// partial results for the same window — the choices that narrowed it
// were made by the bits below k, which they share: each lends the half
// it gives up and folds the partner's copy of the half it keeps
// (tree.halving). After log2(p2) rounds every member holds one finished
// window (at least one group: units >= p2), and the allgather retraces
// the rounds from the last: lend what is finished, have the partner's
// sibling window deposited beside it — the very window this member lent
// that partner on the way down, which the partner released, at the
// latest, when its fold of it returned.
func (c *Comm) addHalvingSteps(s *sched, f *folder, mine *[]byte, t tree, nr, units, unit int) {
	wire := units * unit
	s.step(func() error {
		if len(*f.acc) != wire || len(*mine) != wire {
			return fmt.Errorf("coll: allreduce operand of %d bytes into %d, planned for %d", len(*mine), len(*f.acc), wire)
		}
		return nil
	})
	type round struct {
		peer       int
		keep, give span
	}
	var rounds []round
	t.halving(nr, units, unit, func(mask int, keep, give span) {
		peer := t.realOf(nr ^ mask)
		rounds = append(rounds, round{peer, keep, give})
		lower := nr&mask != 0 // the partner's rank is the lower one
		from := f.acc
		if mask == 1 {
			from = mine // only the first round can find the operand outside the accumulator
		}
		s.foldExchLentStep(peer, tagReduce, from, give, func(theirs []byte) error {
			return f.window(from, keep, theirs, lower)
		})
	})
	for k := len(rounds) - 1; k >= 0; k-- {
		r := rounds[k]
		s.fillExchLentStep(r.peer, tagReduce, f.acc, r.keep, r.give)
	}
}

// addScanSteps schedules the rank-order prefix chain shared by Scan and
// Exscan (family selects the tag family, exclusive the variant): at
// completion the accumulator holds the inclusive prefix (Scan) or the
// prefix of ranks 0..r-1 (Exscan; at rank 0, whose result is undefined
// per the standard, it still holds the contribution). The chain
// preserves non-commutative operation order by construction.
func (c *Comm) addScanSteps(s *sched, family int, exclusive bool, f *folder) {
	last := c.Rank == c.Size-1
	if c.Rank == 0 {
		if !last {
			s.step(func() error { return s.isendCopy(1, family, *f.acc) })
		}
		return
	}
	s.foldRecvStep(c.Rank-1, family, func(prefix []byte) error {
		// The last rank's inclusive prefix is neither forwarded nor, in
		// exclusive mode, published — skip the fold there.
		if !exclusive || !last {
			if err := f.below(prefix); err != nil {
				return err
			}
		}
		if !last {
			if err := s.isendCopy(c.Rank+1, family, *f.acc); err != nil {
				return err
			}
		}
		if exclusive {
			return f.set(prefix)
		}
		return nil
	})
}

// splitWire cuts a wire payload into consecutive segments of counts[r]
// elements. Fixed-size segments are windows of wire; OBJECT payloads
// are re-encoded, each segment under its own count header.
func splitWire(wire []byte, counts []int, cls dtype.Class) ([][]byte, error) {
	parts := make([][]byte, len(counts))
	if cls == dtype.Obj {
		objs, err := dtype.DecodeObjects(wire)
		if err != nil {
			return nil, err
		}
		for r, n := range counts {
			if n > len(objs) {
				return nil, fmt.Errorf("coll: reduce_scatter counts exceed the reduced payload")
			}
			if parts[r], err = dtype.EncodeObjects(objs[:n]); err != nil {
				return nil, err
			}
			objs = objs[n:]
		}
		return parts, nil
	}
	es := cls.WireSize()
	for r, n := range counts {
		if n*es > len(wire) {
			return nil, fmt.Errorf("coll: reduce_scatter counts exceed the reduced payload")
		}
		parts[r], wire = wire[:n*es:n*es], wire[n*es:]
	}
	return parts, nil
}

// ---------------------------------------------------------------------
// Entry points: one plan constructor per reduction collective, under
// the same conventions as the data-movement constructors in coll.go.
// ---------------------------------------------------------------------

// ReducePlan builds the reduction of every member's *acc toward root
// with op over operands of class cls. The plan's result is acc at root
// (*[]byte, see Wire), nil elsewhere.
func (c *Comm) ReducePlan(root int, acc *[]byte, op *Op, cls dtype.Class) (*Plan, error) {
	p := c.NewPlan()
	if err := c.check(root); err != nil {
		return nil, err
	}
	f, err := c.newFolder(acc, op, cls)
	if err != nil {
		return nil, err
	}
	c.addReduceSteps(p.s, root, f, op.Commutative)
	p.Publish(func() any {
		if c.Rank != root {
			return nil
		}
		return acc
	})
	return p, nil
}

// AllreducePlan builds the all-reduction of every member's *acc; the
// plan's result is acc (*[]byte, see Wire) on every member. The
// operand is units indivisible groups (items of the caller's datatype)
// of unit wire bytes each — what a large reduction may be cut between —
// and every activation's *acc must hold exactly that; pass unit 0 for
// OBJECT operands, whose wire size no one knows in advance. A non-nil
// src says the contribution is not in *acc but in *src, memory of the
// same size the schedule only reads (it may be *acc's own): a large
// reduction then folds out of it where it lies and never makes the load
// pass; any other starts by copying it.
func (c *Comm) AllreducePlan(acc, src *[]byte, units, unit int, op *Op, cls dtype.Class) (*Plan, error) {
	p := c.NewPlan()
	f, err := c.newFolder(acc, op, cls)
	if err != nil {
		return nil, err
	}
	f.src = src
	c.addAllreduceSteps(p.s, f, op.Commutative, op.user == nil, units, unit)
	p.Publish(func() any { return acc })
	return p, nil
}

// ScanPlan builds the inclusive (MPI_Scan) or exclusive (MPI_Exscan —
// the MPI-2 extension the paper's §5.3 targets) prefix reduction in
// rank order. The plan's result is acc (*[]byte, see Wire), holding
// member r's fold over ranks 0..r, or 0..r-1 when exclusive — nil at
// rank 0 then, whose result is undefined.
func (c *Comm) ScanPlan(exclusive bool, acc *[]byte, op *Op, cls dtype.Class) (*Plan, error) {
	p := c.NewPlan()
	f, err := c.newFolder(acc, op, cls)
	if err != nil {
		return nil, err
	}
	family := tagScan
	if exclusive {
		// Exscan's own family: Scan and Exscan traffic must never
		// cross-match, even back to back on one communicator.
		family = tagExscan
	}
	c.addScanSteps(p.s, family, exclusive, f)
	p.Publish(func() any {
		if exclusive && c.Rank == 0 {
			return nil
		}
		return acc
	})
	return p, nil
}

// ReduceScatterPlan builds the fold-then-scatter: *acc holds
// sum(counts) elements, and the plan's result is member r's
// counts[r]-element segment of the reduction (*[]byte, see Wire; at
// rank 0 a window of its accumulator).
func (c *Comm) ReduceScatterPlan(acc *[]byte, counts []int, op *Op, cls dtype.Class) (*Plan, error) {
	p := c.NewPlan()
	if len(counts) != c.Size {
		return nil, fmt.Errorf("coll: reduce_scatter with %d counts for %d ranks", len(counts), c.Size)
	}
	f, err := c.newFolder(acc, op, cls)
	if err != nil {
		return nil, err
	}
	c.addReduceSteps(p.s, 0, f, op.Commutative)
	var parts [][]byte
	p.Step(func() (err error) {
		if c.Rank == 0 {
			parts, err = splitWire(*acc, counts, cls)
		}
		return err
	})
	var mine []byte
	c.addScatterSteps(p.s, 0, &parts, &mine)
	p.Publish(func() any { return &mine })
	return p, nil
}

// denseUnits is AllreducePlan's view of a dense slice of n elements:
// elements fold independently, except MINLOC/MAXLOC's pairs.
func denseUnits(n int, cls dtype.Class, op *Op) (units, unit int) {
	unit = cls.WireSize()
	if op != MaxLoc && op != MinLoc {
		return n, unit
	}
	if n%2 != 0 {
		return n, 0 // a torn pair: the kernel's to refuse, not the planner's to cut
	}
	return n / 2, 2 * unit
}

// operands is what Allreduce binds to its cached plans: the call's
// accumulator and contribution.
type operands struct{ acc, src []byte }

// Allreduce folds every member's dense slice ([]int32, []float64, …)
// with op and returns the result, a fresh slice of the same type, at
// every member: the typed convenience over AllreducePlan for the
// runtime's own small agreements and for benchmarks. A user operation
// passed here must fold element by element. Like the binding's
// collectives it re-arms a plan from the communicator's cache (Cached)
// when it has one of this shape, keyed by the slice's dtype.Class.
func (c *Comm) Allreduce(mine any, op *Op) (any, error) {
	b := dtype.BufOf(mine)
	cls, _ := b.Class()
	t := dtype.BasicType(cls)
	n, err := b.Check(t)
	if err != nil {
		c.SkipInstance()
		return nil, err
	}
	// The result slice doubles as the accumulator wherever its memory
	// is its wire image — and the contribution is then read where it
	// lies.
	out := dtype.MakeDense(cls, n)
	acc, direct := dtype.BufOf(out).ByteView(0, n)
	src, inPlace := b.ByteView(0, n)
	if inPlace = inPlace && direct; !inPlace {
		if acc, err = b.Pack(acc[:0], 0, n, t); err != nil {
			c.SkipInstance()
			return nil, err
		}
	}
	key := Key{Kind: "allreduce", Op: op, SD: cls, SCount: n, Lent: inPlace}
	p, err := c.Cached(&key, func() (*Plan, error) {
		d := &operands{}
		var in *[]byte
		if inPlace {
			in = &d.src
		}
		units, unit := denseUnits(n, cls, op)
		p, err := c.AllreducePlan(&d.acc, in, units, unit, op, cls)
		if err == nil {
			p.Bound = d
		}
		return p, err
	})
	if err != nil {
		return nil, err
	}
	d := p.Bound.(*operands)
	d.acc, d.src = acc, src
	_, err = p.Run()
	acc, d.acc, d.src = d.acc, nil, nil
	p.Done(err == nil)
	if err != nil {
		return nil, err
	}
	if !direct {
		if _, err := dtype.Unpack(acc, out, 0, n, t); err != nil {
			return nil, err
		}
	}
	return out, nil
}
