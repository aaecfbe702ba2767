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
// finds the result there where the collective defines one. The
// accumulator itself is never sent — what goes out is a private copy in
// a pooled frame (isendCopy) — and a partner's operand is folded into
// it straight out of the frame it arrived in (foldRecvStep), so a round
// produces no garbage. For the fixed-size classes *acc keeps pointing at
// the caller's buffer throughout; OBJECT operands change size as they
// fold, and the kernel re-points *acc at each fresh encoding.

// folder binds the kernel resolved for a plan to its accumulator.
type folder struct {
	acc     *[]byte
	k       Kernel
	reduced *obs.Counter
}

func (c *Comm) newFolder(acc *[]byte, op *Op, cls dtype.Class) (*folder, error) {
	k, err := op.Kernel(cls)
	if err != nil {
		return nil, err
	}
	return &folder{acc: acc, k: k, reduced: c.vars().reduced}, nil
}

// fold runs the kernel once and accounts for the bytes it folded.
func (f *folder) fold(lo, hi []byte, intoLo bool) ([]byte, error) {
	res, err := f.k(lo, hi, intoLo)
	if err == nil {
		f.reduced.Add(uint64(len(res)))
	}
	return res, err
}

// below folds in an operand that covers lower ranks than the
// accumulator: acc = op(theirs, acc).
func (f *folder) below(theirs []byte) (err error) {
	*f.acc, err = f.fold(theirs, *f.acc, false)
	return err
}

// above folds in an operand that covers higher ranks: acc = op(acc,
// theirs).
func (f *folder) above(theirs []byte) (err error) {
	*f.acc, err = f.fold(*f.acc, theirs, true)
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
	tag := s.tag(tagReduce)
	vr := rel(c.Rank, root, c.Size)
	for mask := 1; mask < c.Size; mask <<= 1 {
		if vr&mask != 0 {
			parent := unrel(vr-mask, root, c.Size)
			s.step(func() error { return s.isendCopy(parent, tag, *f.acc) })
			return // contribution forwarded; this member is done
		}
		if vr+mask < c.Size {
			// The accumulator holds the lower-rank contributions.
			s.foldRecvStep(unrel(vr+mask, root, c.Size), tag, f.above)
		}
	}
}

// addOrderedReduceSteps gathers all contributions at root and folds
// them in strict rank order, as required for non-commutative
// operations.
func (c *Comm) addOrderedReduceSteps(s *sched, root int, f *folder) {
	var blocks [][]byte
	c.addGatherSteps(s, root, f.acc, &blocks)
	if c.Rank != root {
		return
	}
	s.step(func() error {
		// Every block is this member's to overwrite — its own
		// accumulator, or a window of a bundle it received — so the
		// running result moves from block to block.
		cur := blocks[0]
		for _, next := range blocks[1:] {
			var err error
			if cur, err = f.fold(cur, next, false); err != nil {
				return err
			}
		}
		return f.set(cur)
	})
}

// addAllreduceSteps schedules the all-reduction; at completion every
// member's accumulator holds the result. Commutative ops use recursive
// doubling with the standard non-power-of-two pre/post folding;
// non-commutative ops reduce to rank 0 and broadcast.
func (c *Comm) addAllreduceSteps(s *sched, f *folder, commutative bool) {
	if !commutative {
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

	tag := s.tag(tagReduce)
	p2 := 1
	for p2*2 <= c.Size {
		p2 *= 2
	}
	remainder := c.Size - p2

	newRank := -1
	switch {
	case c.Rank < 2*remainder && c.Rank%2 == 0:
		// Fold into the odd neighbour, then idle until the post-fold.
		s.step(func() error { return s.isendCopy(c.Rank+1, tag, *f.acc) })
	case c.Rank < 2*remainder:
		s.foldRecvStep(c.Rank-1, tag, f.below)
		newRank = c.Rank / 2
	default:
		newRank = c.Rank - remainder
	}

	realOf := func(nr int) int {
		if nr < remainder {
			return nr*2 + 1
		}
		return nr + remainder
	}

	if newRank >= 0 {
		for mask := 1; mask < p2; mask <<= 1 {
			partner := newRank ^ mask
			fold := f.above
			if partner < newRank {
				fold = f.below
			}
			s.foldExchStep(realOf(partner), tag, f.acc, fold)
		}
	}

	// Post-fold: odd members of the front block return results to the
	// idled even members.
	if c.Rank < 2*remainder {
		if c.Rank%2 == 0 {
			s.foldRecvStep(c.Rank+1, tag, f.set)
		} else {
			s.step(func() error { return s.isendCopy(c.Rank-1, tag, *f.acc) })
		}
	}
}

// addScanSteps schedules the rank-order prefix chain shared by Scan and
// Exscan (family selects the tag family, exclusive the variant): at
// completion the accumulator holds the inclusive prefix (Scan) or the
// prefix of ranks 0..r-1 (Exscan; at rank 0, whose result is undefined
// per the standard, it still holds the contribution). The chain
// preserves non-commutative operation order by construction.
func (c *Comm) addScanSteps(s *sched, family int, exclusive bool, f *folder) {
	tag := s.tag(family)
	last := c.Rank == c.Size-1
	if c.Rank == 0 {
		if !last {
			s.step(func() error { return s.isendCopy(1, tag, *f.acc) })
		}
		return
	}
	s.foldRecvStep(c.Rank-1, tag, func(prefix []byte) error {
		// The last rank's inclusive prefix is neither forwarded nor, in
		// exclusive mode, published — skip the fold there.
		if !exclusive || !last {
			if err := f.below(prefix); err != nil {
				return err
			}
		}
		if !last {
			if err := s.isendCopy(c.Rank+1, tag, *f.acc); err != nil {
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
// with op over operands of class cls. The plan's result is root's
// accumulator ([]byte), nil elsewhere.
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
		return *acc
	})
	return p, nil
}

// AllreducePlan builds the all-reduction of every member's *acc; the
// plan's result is the accumulator ([]byte) on every member.
func (c *Comm) AllreducePlan(acc *[]byte, op *Op, cls dtype.Class) (*Plan, error) {
	p := c.NewPlan()
	f, err := c.newFolder(acc, op, cls)
	if err != nil {
		return nil, err
	}
	c.addAllreduceSteps(p.s, f, op.Commutative)
	p.Publish(func() any { return *acc })
	return p, nil
}

// ScanPlan builds the inclusive (MPI_Scan) or exclusive (MPI_Exscan —
// the MPI-2 extension the paper's §5.3 targets) prefix reduction in
// rank order. The plan's result is the accumulator ([]byte): member r's
// fold over ranks 0..r, or 0..r-1 when exclusive — nil at rank 0 then,
// whose result is undefined.
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
		return *acc
	})
	return p, nil
}

// ReduceScatterPlan builds the fold-then-scatter: *acc holds
// sum(counts) elements, and the plan's result is member r's
// counts[r]-element segment of the reduction ([]byte; at rank 0 a
// window of its accumulator).
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
	p.Publish(func() any { return mine })
	return p, nil
}

// Allreduce folds every member's dense slice ([]int32, []float64, …)
// with op and returns the result, a fresh slice of the same type, at
// every member: the typed convenience over AllreducePlan for the
// runtime's own small agreements and for benchmarks.
func (c *Comm) Allreduce(mine any, op *Op) (any, error) {
	cls, _ := dtype.ClassOf(mine)
	t := dtype.BasicType(cls)
	n, err := dtype.CheckBuf(mine, t)
	if err != nil {
		c.SkipInstance()
		return nil, err
	}
	// The result slice doubles as the accumulator wherever its memory
	// is its wire image.
	out := dtype.MakeDense(cls, n)
	view, direct := dtype.ByteViewRange(out, 0, n)
	acc, err := dtype.Pack(view[:0], mine, 0, n, t)
	if err != nil {
		c.SkipInstance()
		return nil, err
	}
	if _, err := runAs[any](c.AllreducePlan(&acc, op, cls)); err != nil {
		return nil, err
	}
	if !direct {
		if _, err := dtype.Unpack(acc, out, 0, n, t); err != nil {
			return nil, err
		}
	}
	return out, nil
}
