package mpi

import (
	"cmp"
	"encoding/binary"
	"slices"

	"gompi/internal/coll"
	"gompi/internal/dtype"
)

// Intracomm is a communicator over a single group (paper Fig. 1): it
// adds the collective operations and the communicator/topology
// constructors to Comm.
//
// Every collective is declared once, as a planX method that validates
// the call and looks up or compiles its plan (see plan: a call reuses
// the communicator's cached plan of its shape), and has up to three
// entry points derived from it: the classic blocking form X (the
// calling goroutine runs the schedule), the nonblocking IX returning a
// *Request (MPI-3; whoever waits for the request runs the schedule, and
// Request.WaitCtx is how a collective is cancelled) and, for the
// collectives that have one, the persistent XInit (MPI-4), which takes
// the plan out of the cache (see persistent.go).
type Intracomm struct {
	Comm
}

func newIntracomm(e *Env, group []int, myRank int, ctxBase int32, name string) *Intracomm {
	ic := &Intracomm{}
	e.buildComm(&ic.Comm, group, myRank, ctxBase, name)
	return ic
}

func (c *Intracomm) checkRoot(root int) error {
	if root < 0 || root >= len(c.group) {
		return errf(ErrRoot, "root %d out of range [0,%d)", root, len(c.group))
	}
	return nil
}

// Intra returns the communicator as an intracommunicator, whatever kind
// embeds it (*Cartcomm, *Graphcomm): the accessor through which a layer
// over the binding (mpi/typed) reaches the collectives with a static
// call.
func (c *Intracomm) Intra() *Intracomm { return c }

// collChecks is the validation every collective starts with: a live
// communicator, a usable datatype and, for the rooted ones, a root in
// range (rootless callers pass 0).
func (c *Intracomm) collChecks(d *Datatype, root int) error {
	if err := c.ok(); err != nil {
		return err
	}
	if err := c.checkType(d); err != nil {
		return err
	}
	return c.checkRoot(root)
}

// collPlan is a built collective: its schedule in internal/coll plus
// the two hooks that tie the schedule's wire-format inputs and result to
// the buffers of the call it is bound to, args. refresh packs the send
// side before every activation (nil when this rank sends nothing), fin
// deposits the result into the receive side at completion (nil when
// this rank receives nothing). The hooks read the call's sections
// through args only, so one plan serves call after call: a one-shot
// call takes it from the communicator's cache (it is the coll.Plan's
// Bound) and hands it back when done; a persistent request takes it out
// of the cache and keeps it bound for its life. A file collective's
// plan is built for its one call and never cached: st is its transfer
// status, which its request completes with (fin sets a read's).
type collPlan struct {
	plan    *coll.Plan
	args    collArgs
	refresh func() error
	fin     func(res any) error
	st      *Status
}

// collArgs is the call a plan is bound to: its send and receive
// layouts (a single section is a blocks' own) and, for a reduction, the
// accumulator over them.
type collArgs struct {
	send, recv blocks
	acc        accum
}

// plan returns the plan of a validated call, bound to args: the
// communicator's cached plan of the call's shape, re-armed, else one
// that build compiles and the cache keeps (coll.Comm.Cached). key names
// the collective, its root and its op; plan completes it from args.
func (c *Intracomm) plan(key *coll.Key, args collArgs, build func(p *collPlan) error) (*collPlan, error) {
	key.SD, key.RD, key.SCount, key.RCount = args.send.d, args.recv.d, args.send.count, args.recv.count
	key.Send, key.Recv, key.Direct, key.Lent = args.send.Layout, args.recv.Layout, args.acc.direct, args.acc.src != nil
	pl, err := c.cl.Cached(key, func() (*coll.Plan, error) {
		p := &collPlan{args: args}
		if err := build(p); err != nil {
			return nil, err
		}
		p.plan.Bound = p
		return p.plan, nil
	})
	if err != nil {
		return nil, mapErr(err)
	}
	p := pl.Bound.(*collPlan)
	p.args = args
	return p, nil
}

// noColl is planX's exit for a call that fails local validation. The
// call never reaches the schedule layer, so the collective's instance
// number is skipped here to stay tag-aligned with members whose
// matching call proceeded.
func (c *Intracomm) noColl(err error) (*collPlan, error) {
	c.cl.SkipInstance()
	return nil, err
}

// done ends the call a cached plan serves (coll.Plan.Done). Completed
// (ok), the plan drops the call's buffers — the cache pins no user
// memory — and goes back to the cache, idle; after a failed or abandoned
// activation the cache drops it instead, so the next call of its shape
// rebuilds. Only the cache's reference goes: a schedule still running
// is untouched. A persistent request's plan is left alone, and so is a
// file collective's, which no cache holds.
func (p *collPlan) done(ok bool) {
	if p == nil || p.plan.Persisted() {
		return
	}
	if ok {
		p.args = collArgs{}
	}
	p.plan.Done(ok)
}

// load takes planX's results for a call or an activation: a failed
// planX's error, or else the refresh hook's, which leaves a cached plan
// done with the call it could not load.
func (p *collPlan) load(err error) error {
	if err == nil && p.refresh != nil {
		if err = p.refresh(); err != nil {
			p.done(false)
		}
	}
	return err
}

// runColl drives a plan to completion on the calling goroutine: the
// blocking entry points.
func (c *Intracomm) runColl(p *collPlan, err error) error {
	if err := p.load(err); err != nil {
		return c.raise(err)
	}
	res, err := p.plan.Run()
	if err != nil {
		p.done(false)
		return c.raise(c.collErr(err))
	}
	if p.fin != nil {
		err = p.fin(res)
	}
	p.done(true)
	return c.raise(err)
}

// startColl starts a plan and returns its request: the nonblocking entry
// points and every persistent activation. The steps run on the caller
// up to the schedule's first wait for a message, then on whoever waits
// for the request; fin runs, and a cached plan goes back to the cache,
// inside the Wait/Test that observes completion.
func (c *Comm) startColl(p *collPlan, err error) (*Request, error) {
	if err := p.load(err); err != nil {
		return nil, c.raise(err)
	}
	return &Request{comm: c, cr: p.plan.Start(), cp: p}, nil
}

// SkipColl consumes one collective instance number without
// communicating. Layers that reject a collective call before it reaches
// the runtime (the typed layer's argument validation, custom wrappers)
// call it on the failing member so its instance-derived matching tags
// stay aligned with peers whose matching call proceeded — the same
// bookkeeping the binding itself performs when a call fails local
// validation.
func (c *Intracomm) SkipColl() { c.cl.SkipInstance() }

// packInto returns the refresh hook of a collective that contributes
// one section: it packs the section into *wire, the schedule's bound
// input. The data-movement collectives (broadcast, gather, scatter,
// allgather, alltoall) fan one buffer out to several peers by reference
// and forward received payloads: such a slice cannot carry the
// exclusive-ownership recycle promise, so these payloads stay on the
// allocator. Reductions pack into an accumulator instead (accum.go).
func packInto(wire *[]byte, s *section) func() error {
	return func() (err error) {
		*wire, err = s.packChecked(nil)
		return err
	}
}

// unpackInto returns the fin hook of a collective that delivers one
// section: the schedule's result points at its wire image (coll.Wire).
func unpackInto(s *section) func(res any) error {
	return func(res any) error {
		_, err := s.unpackChecked(coll.Wire(res))
		return err
	}
}

// blocks is a buffer cut into one section per rank: uniformly (rank r's
// count items at offset + r*count*extent(d)) or, for the v-variants, by
// an explicit layout of per-rank counts and displacements (in units of
// the datatype's extent).
type blocks struct {
	section
	*coll.Layout // nil for a uniform cut
}

func varying(buf any, offset int, counts, displs []int, d *Datatype) blocks {
	return blocks{section{dtype.BufOf(buf), offset, 0, d}, &coll.Layout{Counts: counts, Displs: displs}}
}

// at returns rank r's section.
func (b *blocks) at(r int) section {
	s := b.section
	if b.Layout != nil {
		s.offset, s.count = b.offset+b.Displs[r]*b.d.Extent(), b.Counts[r]
	} else {
		s.offset += r * b.count * b.d.Extent()
	}
	return s
}

// checkBlocks validates a layout where it is significant: the datatype,
// a v-variant's counts and displacements (nil slices are caught as
// wrong-length) and every rank's section.
func (c *Intracomm) checkBlocks(name string, b *blocks) error {
	if err := c.checkType(b.d); err != nil {
		return err
	}
	if b.Layout != nil && (len(b.Counts) != c.Size() || len(b.Displs) != c.Size()) {
		return errf(ErrArg, "%s needs %d counts and displs", name, c.Size())
	}
	for r := 0; r < c.Size(); r++ {
		if _, err := b.at(r).check(); err != nil {
			return err
		}
	}
	return nil
}

// packBlocks returns the refresh hook of a collective that sends a
// block to every rank: it packs each rank's section into parts, the
// schedule's bound input.
func packBlocks(b *blocks, parts [][]byte) func() error {
	return func() (err error) {
		for r := range parts {
			if parts[r], err = b.at(r).packChecked(nil); err != nil {
				return err
			}
		}
		return nil
	}
}

// deposit is the fin hook of a collective that receives a block from
// every rank ([][]byte): each lands in its rank's section.
func (b *blocks) deposit(res any) error {
	for r, wire := range res.([][]byte) {
		if _, err := b.at(r).unpackChecked(wire); err != nil {
			return err
		}
	}
	return nil
}

// Barrier blocks until all members have entered it (MPI_Barrier).
func (c *Intracomm) Barrier() error {
	return c.runColl(c.planBarrier())
}

// Ibarrier starts a nonblocking barrier (MPI_Ibarrier): the request
// completes once every member has entered its matching barrier call.
func (c *Intracomm) Ibarrier() (*Request, error) {
	return c.startColl(c.planBarrier())
}

func (c *Intracomm) planBarrier() (*collPlan, error) {
	if err := c.ok(); err != nil {
		return c.noColl(err)
	}
	return c.plan(&coll.Key{Kind: "barrier"}, collArgs{}, func(p *collPlan) error {
		p.plan = c.cl.BarrierPlan()
		return nil
	})
}

// Bcast broadcasts the buffer section from root to all members
// (MPI_Bcast).
func (c *Intracomm) Bcast(buf any, offset, count int, d *Datatype, root int) error {
	return c.runColl(c.planBcast(section{dtype.BufOf(buf), offset, count, d}, root))
}

// Ibcast starts a nonblocking broadcast (MPI_Ibcast). Non-root buffers
// are filled when the request completes; no buffer may be touched
// before then.
func (c *Intracomm) Ibcast(buf any, offset, count int, d *Datatype, root int) (*Request, error) {
	return c.startColl(c.planBcast(section{dtype.BufOf(buf), offset, count, d}, root))
}

// planBcast is the plan of Bcast; its one section is the send side at
// root and the receive side everywhere else, validated alike.
func (c *Intracomm) planBcast(s section, root int) (*collPlan, error) {
	if err := c.collChecks(s.d, root); err != nil {
		return c.noColl(err)
	}
	if _, err := s.check(); err != nil {
		return c.noColl(err)
	}
	return c.plan(&coll.Key{Kind: "bcast", Root: root}, collArgs{send: blocks{section: s}}, func(p *collPlan) (err error) {
		var wire []byte
		p.plan, err = c.cl.BcastPlan(root, &wire)
		if c.rank == root {
			p.refresh = packInto(&wire, &p.args.send.section)
		} else {
			p.fin = unpackInto(&p.args.send.section)
		}
		return err
	})
}

// Gather collects equal-size contributions at root (MPI_Gather): member
// r's section lands at recvbuf offset roffset + r*rcount*extent(rdt).
func (c *Intracomm) Gather(
	sendbuf any, soffset, scount int, sdt *Datatype,
	recvbuf any, roffset, rcount int, rdt *Datatype, root int,
) error {
	return c.runColl(c.planGather(section{dtype.BufOf(sendbuf), soffset, scount, sdt}, blocks{section: section{dtype.BufOf(recvbuf), roffset, rcount, rdt}}, root))
}

// Igather starts a nonblocking gather (MPI_Igather); root's recvbuf is
// filled when the request completes.
func (c *Intracomm) Igather(
	sendbuf any, soffset, scount int, sdt *Datatype,
	recvbuf any, roffset, rcount int, rdt *Datatype, root int,
) (*Request, error) {
	return c.startColl(c.planGather(section{dtype.BufOf(sendbuf), soffset, scount, sdt}, blocks{section: section{dtype.BufOf(recvbuf), roffset, rcount, rdt}}, root))
}

// Gatherv collects varying-size contributions at root (MPI_Gatherv):
// member r contributes scount items and lands at displacement displs[r]
// (in units of rdt's extent) with recvcounts[r] items expected.
func (c *Intracomm) Gatherv(
	sendbuf any, soffset, scount int, sdt *Datatype,
	recvbuf any, roffset int, recvcounts, displs []int, rdt *Datatype, root int,
) error {
	return c.runColl(c.planGather(section{dtype.BufOf(sendbuf), soffset, scount, sdt}, varying(recvbuf, roffset, recvcounts, displs, rdt), root))
}

// Igatherv starts a nonblocking varying-size gather (MPI_Igatherv).
func (c *Intracomm) Igatherv(
	sendbuf any, soffset, scount int, sdt *Datatype,
	recvbuf any, roffset int, recvcounts, displs []int, rdt *Datatype, root int,
) (*Request, error) {
	return c.startColl(c.planGather(section{dtype.BufOf(sendbuf), soffset, scount, sdt}, varying(recvbuf, roffset, recvcounts, displs, rdt), root))
}

// planGather is the plan of Gather and Gatherv; the receive layout is
// significant (and validated) at root only.
func (c *Intracomm) planGather(send section, recv blocks, root int) (*collPlan, error) {
	if err := c.collChecks(send.d, root); err != nil {
		return c.noColl(err)
	}
	if _, err := send.check(); err != nil {
		return c.noColl(err)
	}
	if c.rank == root {
		if err := c.checkBlocks("Gatherv", &recv); err != nil {
			return c.noColl(err)
		}
	}
	args := collArgs{send: blocks{section: send}, recv: recv}
	return c.plan(&coll.Key{Kind: "gather", Root: root}, args, func(p *collPlan) (err error) {
		var mine []byte
		p.plan, err = c.cl.GatherPlan(root, &mine)
		p.refresh = packInto(&mine, &p.args.send.section)
		if c.rank == root {
			p.fin = p.args.recv.deposit
		}
		return err
	})
}

// Scatter distributes equal-size sections from root (MPI_Scatter):
// member r receives the section at sendbuf offset soffset +
// r*scount*extent(sdt).
func (c *Intracomm) Scatter(
	sendbuf any, soffset, scount int, sdt *Datatype,
	recvbuf any, roffset, rcount int, rdt *Datatype, root int,
) error {
	return c.runColl(c.planScatter(blocks{section: section{dtype.BufOf(sendbuf), soffset, scount, sdt}}, section{dtype.BufOf(recvbuf), roffset, rcount, rdt}, root))
}

// Iscatter starts a nonblocking scatter (MPI_Iscatter).
func (c *Intracomm) Iscatter(
	sendbuf any, soffset, scount int, sdt *Datatype,
	recvbuf any, roffset, rcount int, rdt *Datatype, root int,
) (*Request, error) {
	return c.startColl(c.planScatter(blocks{section: section{dtype.BufOf(sendbuf), soffset, scount, sdt}}, section{dtype.BufOf(recvbuf), roffset, rcount, rdt}, root))
}

// Scatterv distributes varying-size sections from root (MPI_Scatterv).
func (c *Intracomm) Scatterv(
	sendbuf any, soffset int, sendcounts, displs []int, sdt *Datatype,
	recvbuf any, roffset, rcount int, rdt *Datatype, root int,
) error {
	return c.runColl(c.planScatter(varying(sendbuf, soffset, sendcounts, displs, sdt), section{dtype.BufOf(recvbuf), roffset, rcount, rdt}, root))
}

// Iscatterv starts a nonblocking varying-size scatter (MPI_Iscatterv).
func (c *Intracomm) Iscatterv(
	sendbuf any, soffset int, sendcounts, displs []int, sdt *Datatype,
	recvbuf any, roffset, rcount int, rdt *Datatype, root int,
) (*Request, error) {
	return c.startColl(c.planScatter(varying(sendbuf, soffset, sendcounts, displs, sdt), section{dtype.BufOf(recvbuf), roffset, rcount, rdt}, root))
}

// planScatter is the plan of Scatter and Scatterv; the send layout is
// significant (and validated) at root only.
func (c *Intracomm) planScatter(send blocks, recv section, root int) (*collPlan, error) {
	if err := c.collChecks(recv.d, root); err != nil {
		return c.noColl(err)
	}
	if _, err := recv.check(); err != nil {
		return c.noColl(err)
	}
	if c.rank == root {
		if err := c.checkBlocks("Scatterv", &send); err != nil {
			return c.noColl(err)
		}
	}
	args := collArgs{send: send, recv: blocks{section: recv}}
	return c.plan(&coll.Key{Kind: "scatter", Root: root}, args, func(p *collPlan) (err error) {
		var parts [][]byte
		if c.rank == root {
			parts = make([][]byte, c.Size())
			p.refresh = packBlocks(&p.args.send, parts)
		}
		p.plan, err = c.cl.ScatterPlan(root, &parts)
		p.fin = unpackInto(&p.args.recv.section)
		return err
	})
}

// Allgather gathers equal-size contributions at every member
// (MPI_Allgather).
func (c *Intracomm) Allgather(
	sendbuf any, soffset, scount int, sdt *Datatype,
	recvbuf any, roffset, rcount int, rdt *Datatype,
) error {
	return c.runColl(c.planAllgather(section{dtype.BufOf(sendbuf), soffset, scount, sdt}, blocks{section: section{dtype.BufOf(recvbuf), roffset, rcount, rdt}}))
}

// Iallgather starts a nonblocking allgather (MPI_Iallgather).
func (c *Intracomm) Iallgather(
	sendbuf any, soffset, scount int, sdt *Datatype,
	recvbuf any, roffset, rcount int, rdt *Datatype,
) (*Request, error) {
	return c.startColl(c.planAllgather(section{dtype.BufOf(sendbuf), soffset, scount, sdt}, blocks{section: section{dtype.BufOf(recvbuf), roffset, rcount, rdt}}))
}

// Allgatherv gathers varying-size contributions at every member
// (MPI_Allgatherv).
func (c *Intracomm) Allgatherv(
	sendbuf any, soffset, scount int, sdt *Datatype,
	recvbuf any, roffset int, recvcounts, displs []int, rdt *Datatype,
) error {
	return c.runColl(c.planAllgather(section{dtype.BufOf(sendbuf), soffset, scount, sdt}, varying(recvbuf, roffset, recvcounts, displs, rdt)))
}

// Iallgatherv starts a nonblocking varying-size allgather
// (MPI_Iallgatherv).
func (c *Intracomm) Iallgatherv(
	sendbuf any, soffset, scount int, sdt *Datatype,
	recvbuf any, roffset int, recvcounts, displs []int, rdt *Datatype,
) (*Request, error) {
	return c.startColl(c.planAllgather(section{dtype.BufOf(sendbuf), soffset, scount, sdt}, varying(recvbuf, roffset, recvcounts, displs, rdt)))
}

// planAllgather is the plan of Allgather and Allgatherv; the receive
// layout is significant (and validated) on every member.
func (c *Intracomm) planAllgather(send section, recv blocks) (*collPlan, error) {
	if err := c.collChecks(send.d, 0); err != nil {
		return c.noColl(err)
	}
	if _, err := send.check(); err != nil {
		return c.noColl(err)
	}
	if err := c.checkBlocks("Allgatherv", &recv); err != nil {
		return c.noColl(err)
	}
	args := collArgs{send: blocks{section: send}, recv: recv}
	return c.plan(&coll.Key{Kind: "allgather"}, args, func(p *collPlan) error {
		var mine []byte
		p.plan = c.cl.AllgatherPlan(&mine)
		p.refresh, p.fin = packInto(&mine, &p.args.send.section), p.args.recv.deposit
		return nil
	})
}

// Alltoall exchanges equal-size sections between all pairs
// (MPI_Alltoall).
func (c *Intracomm) Alltoall(
	sendbuf any, soffset, scount int, sdt *Datatype,
	recvbuf any, roffset, rcount int, rdt *Datatype,
) error {
	return c.runColl(c.planAlltoall(blocks{section: section{dtype.BufOf(sendbuf), soffset, scount, sdt}}, blocks{section: section{dtype.BufOf(recvbuf), roffset, rcount, rdt}}))
}

// Ialltoall starts a nonblocking alltoall (MPI_Ialltoall).
func (c *Intracomm) Ialltoall(
	sendbuf any, soffset, scount int, sdt *Datatype,
	recvbuf any, roffset, rcount int, rdt *Datatype,
) (*Request, error) {
	return c.startColl(c.planAlltoall(blocks{section: section{dtype.BufOf(sendbuf), soffset, scount, sdt}}, blocks{section: section{dtype.BufOf(recvbuf), roffset, rcount, rdt}}))
}

// Alltoallv exchanges varying-size sections between all pairs
// (MPI_Alltoallv).
func (c *Intracomm) Alltoallv(
	sendbuf any, soffset int, sendcounts, sdispls []int, sdt *Datatype,
	recvbuf any, roffset int, recvcounts, rdispls []int, rdt *Datatype,
) error {
	return c.runColl(c.planAlltoall(varying(sendbuf, soffset, sendcounts, sdispls, sdt), varying(recvbuf, roffset, recvcounts, rdispls, rdt)))
}

// Ialltoallv starts a nonblocking varying-size alltoall
// (MPI_Ialltoallv).
func (c *Intracomm) Ialltoallv(
	sendbuf any, soffset int, sendcounts, sdispls []int, sdt *Datatype,
	recvbuf any, roffset int, recvcounts, rdispls []int, rdt *Datatype,
) (*Request, error) {
	return c.startColl(c.planAlltoall(varying(sendbuf, soffset, sendcounts, sdispls, sdt), varying(recvbuf, roffset, recvcounts, rdispls, rdt)))
}

// planAlltoall is the plan of Alltoall and Alltoallv; both layouts are
// significant (and validated) on every member.
func (c *Intracomm) planAlltoall(send, recv blocks) (*collPlan, error) {
	if err := c.ok(); err != nil {
		return c.noColl(err)
	}
	if err := c.checkBlocks("Alltoallv", &send); err != nil {
		return c.noColl(err)
	}
	if err := c.checkBlocks("Alltoallv", &recv); err != nil {
		return c.noColl(err)
	}
	return c.plan(&coll.Key{Kind: "alltoall"}, collArgs{send: send, recv: recv}, func(p *collPlan) (err error) {
		parts := make([][]byte, c.Size())
		p.plan, err = c.cl.AlltoallPlan(parts)
		p.refresh, p.fin = packBlocks(&p.args.send, parts), p.args.recv.deposit
		return err
	})
}

// Reduce folds count items with op, leaving the result at root
// (MPI_Reduce; mpiJava signature with distinct send and receive offsets).
func (c *Intracomm) Reduce(
	sendbuf any, soffset int, recvbuf any, roffset int,
	count int, d *Datatype, op *Op, root int,
) error {
	return c.runColl(c.planReduce(section{dtype.BufOf(sendbuf), soffset, count, d}, section{dtype.BufOf(recvbuf), roffset, count, d}, op, root))
}

// Ireduce starts a nonblocking reduction (MPI_Ireduce); root's recvbuf
// is filled when the request completes.
func (c *Intracomm) Ireduce(
	sendbuf any, soffset int, recvbuf any, roffset int,
	count int, d *Datatype, op *Op, root int,
) (*Request, error) {
	return c.startColl(c.planReduce(section{dtype.BufOf(sendbuf), soffset, count, d}, section{dtype.BufOf(recvbuf), roffset, count, d}, op, root))
}

// reduceChecks is collChecks for the reduction family: op must also be
// defined on d.
func (c *Intracomm) reduceChecks(d *Datatype, op *Op, root int) error {
	if err := c.collChecks(d, root); err != nil {
		return err
	}
	return checkOp(op, d)
}

func (c *Intracomm) planReduce(send, into section, op *Op, root int) (*collPlan, error) {
	if err := c.reduceChecks(send.d, op, root); err != nil {
		return c.noColl(err)
	}
	a, err := newAccum(c.rank == root, send, into)
	if err != nil {
		return c.noColl(err)
	}
	return c.reduction(&coll.Key{Kind: "reduce", Root: root, Op: op.op}, collArgs{blocks{section: send}, blocks{section: into}, a},
		func(acc *accum) (*coll.Plan, error) {
			return c.cl.ReducePlan(root, &acc.b, op.op, send.d.t.Class())
		})
}

// reduction is plan for the reduction family: build compiles the
// schedule over the plan's own accumulator, which the plan's hooks load
// from the send section and deposit into the receive section.
func (c *Intracomm) reduction(key *coll.Key, args collArgs, build func(acc *accum) (*coll.Plan, error)) (*collPlan, error) {
	return c.plan(key, args, func(p *collPlan) (err error) {
		p.plan, err = build(&p.args.acc)
		p.refresh = func() error { return p.args.acc.load(&p.args.send.section) }
		p.fin = func(res any) error { return p.args.acc.fin(res, &p.args.recv.section) }
		return err
	})
}

// Allreduce folds count items with op, leaving the result everywhere
// (MPI_Allreduce).
func (c *Intracomm) Allreduce(
	sendbuf any, soffset int, recvbuf any, roffset int,
	count int, d *Datatype, op *Op,
) error {
	return c.runColl(c.planAllreduce(section{dtype.BufOf(sendbuf), soffset, count, d}, section{dtype.BufOf(recvbuf), roffset, count, d}, op))
}

// Iallreduce starts a nonblocking all-reduction (MPI_Iallreduce); every
// member's recvbuf is filled when the request completes.
func (c *Intracomm) Iallreduce(
	sendbuf any, soffset int, recvbuf any, roffset int,
	count int, d *Datatype, op *Op,
) (*Request, error) {
	return c.startColl(c.planAllreduce(section{dtype.BufOf(sendbuf), soffset, count, d}, section{dtype.BufOf(recvbuf), roffset, count, d}, op))
}

func (c *Intracomm) planAllreduce(send, into section, op *Op) (*collPlan, error) {
	if err := c.reduceChecks(send.d, op, 0); err != nil {
		return c.noColl(err)
	}
	a, err := newAccum(true, send, into)
	if err != nil {
		return c.noColl(err)
	}
	a.src, _ = c.lendView(send)
	return c.reduction(&coll.Key{Kind: "allreduce", Op: op.op}, collArgs{blocks{section: send}, blocks{section: into}, a},
		func(acc *accum) (*coll.Plan, error) {
			t := send.d.t
			return c.cl.AllreducePlan(&acc.b, acc.sendView(), send.count, max(t.WireBytes(1), 0), op.op, t.Class())
		})
}

// ReduceScatter folds with op and scatters segments of the result:
// member r receives recvcounts[r] items (MPI_Reduce_scatter).
func (c *Intracomm) ReduceScatter(
	sendbuf any, soffset int, recvbuf any, roffset int,
	recvcounts []int, d *Datatype, op *Op,
) error {
	return c.runColl(c.planReduceScatter(section{dtype.BufOf(sendbuf), soffset, 0, d}, section{dtype.BufOf(recvbuf), roffset, 0, d}, recvcounts, op))
}

// IreduceScatter starts a nonblocking fold-and-scatter
// (MPI_Ireduce_scatter).
func (c *Intracomm) IreduceScatter(
	sendbuf any, soffset int, recvbuf any, roffset int,
	recvcounts []int, d *Datatype, op *Op,
) (*Request, error) {
	return c.startColl(c.planReduceScatter(section{dtype.BufOf(sendbuf), soffset, 0, d}, section{dtype.BufOf(recvbuf), roffset, 0, d}, recvcounts, op))
}

// planReduceScatter is the plan of ReduceScatter; the recvcounts set
// both sections' counts: the whole vector is folded, this rank's
// segment received.
func (c *Intracomm) planReduceScatter(send, into section, recvcounts []int, op *Op) (*collPlan, error) {
	if err := c.reduceChecks(send.d, op, 0); err != nil {
		return c.noColl(err)
	}
	if len(recvcounts) != c.Size() {
		return c.noColl(errf(ErrArg, "ReduceScatter needs %d recvcounts", c.Size()))
	}
	elemCounts := make([]int, len(recvcounts))
	for i, n := range recvcounts {
		if n < 0 {
			return c.noColl(errf(ErrCount, "negative recvcount %d", n))
		}
		send.count += n
		elemCounts[i] = n * send.d.Size()
	}
	into.count = recvcounts[c.rank]
	a, err := newAccum(true, send, into)
	if err != nil {
		return c.noColl(err)
	}
	// The recvcounts ride in the receive side's layout, for the key.
	args := collArgs{blocks{section: send}, blocks{into, &coll.Layout{Counts: recvcounts}}, a}
	return c.reduction(&coll.Key{Kind: "reduce_scatter", Op: op.op}, args, func(acc *accum) (*coll.Plan, error) {
		return c.cl.ReduceScatterPlan(&acc.b, elemCounts, op.op, send.d.t.Class())
	})
}

// Scan computes the inclusive prefix reduction in rank order (MPI_Scan).
func (c *Intracomm) Scan(
	sendbuf any, soffset int, recvbuf any, roffset int,
	count int, d *Datatype, op *Op,
) error {
	return c.runColl(c.planScan(false, section{dtype.BufOf(sendbuf), soffset, count, d}, section{dtype.BufOf(recvbuf), roffset, count, d}, op))
}

// Iscan starts a nonblocking inclusive prefix reduction (MPI_Iscan).
func (c *Intracomm) Iscan(
	sendbuf any, soffset int, recvbuf any, roffset int,
	count int, d *Datatype, op *Op,
) (*Request, error) {
	return c.startColl(c.planScan(false, section{dtype.BufOf(sendbuf), soffset, count, d}, section{dtype.BufOf(recvbuf), roffset, count, d}, op))
}

// Exscan computes the exclusive prefix reduction in rank order — one of
// the MPI-2 additions the paper plans to fold in (§5.3). Member r
// receives op(x_0, …, x_{r-1}); rank 0's receive buffer is untouched
// (its result is undefined, per the standard).
func (c *Intracomm) Exscan(
	sendbuf any, soffset int, recvbuf any, roffset int,
	count int, d *Datatype, op *Op,
) error {
	return c.runColl(c.planScan(true, section{dtype.BufOf(sendbuf), soffset, count, d}, section{dtype.BufOf(recvbuf), roffset, count, d}, op))
}

// Iexscan starts a nonblocking exclusive prefix reduction
// (MPI_Iexscan).
func (c *Intracomm) Iexscan(
	sendbuf any, soffset int, recvbuf any, roffset int,
	count int, d *Datatype, op *Op,
) (*Request, error) {
	return c.startColl(c.planScan(true, section{dtype.BufOf(sendbuf), soffset, count, d}, section{dtype.BufOf(recvbuf), roffset, count, d}, op))
}

// planScan is the plan of Scan and Exscan; exclusive selects the
// variant. Rank 0's Exscan result is undefined: its receive buffer is
// neither validated nor touched.
func (c *Intracomm) planScan(exclusive bool, send, into section, op *Op) (*collPlan, error) {
	if err := c.reduceChecks(send.d, op, 0); err != nil {
		return c.noColl(err)
	}
	a, err := newAccum(!exclusive || c.rank > 0, send, into)
	if err != nil {
		return c.noColl(err)
	}
	kind := "scan"
	if exclusive {
		kind = "exscan"
	}
	return c.reduction(&coll.Key{Kind: kind, Op: op.op}, collArgs{blocks{section: send}, blocks{section: into}, a},
		func(acc *accum) (*coll.Plan, error) {
			return c.cl.ScanPlan(exclusive, &acc.b, op.op, send.d.t.Class())
		})
}

// Dup duplicates the communicator with fresh contexts (MPI_Comm_dup).
// Collective over the communicator.
func (c *Intracomm) Dup() (*Intracomm, error) {
	if err := c.ok(); err != nil {
		return nil, c.raise(err)
	}
	base, err := c.cl.AgreeContextBase()
	if err != nil {
		return nil, c.raise(mapErr(err))
	}
	dup := newIntracomm(c.env, c.group, c.rank, base, c.name+".dup")
	c.copyAttrsTo(&dup.Comm)
	return dup, nil
}

// Split partitions the communicator by colour, ordering each new group
// by (key, old rank); colour Undefined yields a nil communicator
// (MPI_Comm_split). Collective over the communicator: one Allgather of
// every member's colour, key and context-id candidate, whose maximum is
// the new communicator's context base on every member.
func (c *Intracomm) Split(colour, key int) (*Intracomm, error) {
	if err := c.ok(); err != nil {
		return nil, c.raise(err)
	}
	if colour < 0 && colour != Undefined {
		return nil, c.raise(errf(ErrArg, "negative colour %d", colour))
	}
	var enc [12]byte
	binary.LittleEndian.PutUint32(enc[0:], uint32(int32(colour)))
	binary.LittleEndian.PutUint32(enc[4:], uint32(int32(key)))
	binary.LittleEndian.PutUint32(enc[8:], uint32(c.env.proc.AllocContexts()))
	all, err := c.cl.Allgather(enc[:])
	if err != nil {
		return nil, c.raise(mapErr(err))
	}
	// The members of this colour by old rank, then in (key, old rank)
	// order; the agreed base is the largest candidate.
	word := func(r, at int) int32 { return int32(binary.LittleEndian.Uint32(all[r][at:])) }
	var members []int
	base := int32(0)
	for r := range all {
		base = max(base, word(r, 8))
		if int(word(r, 0)) == colour {
			members = append(members, r)
		}
	}
	if err := c.env.proc.CommitContexts(base); err != nil {
		return nil, c.raise(mapErr(err))
	}
	if colour == Undefined {
		return nil, nil
	}
	slices.SortStableFunc(members, func(a, b int) int { return cmp.Compare(word(a, 4), word(b, 4)) })
	group := make([]int, len(members))
	for i, r := range members {
		group[i] = c.group[r]
	}
	myRank := slices.Index(members, c.rank)
	return newIntracomm(c.env, group, myRank, base, c.name+".split"), nil
}

// Create builds a communicator over a subgroup; members get the new
// communicator, non-members nil (MPI_Comm_create). Collective over the
// parent.
func (c *Intracomm) Create(g *Group) (*Intracomm, error) {
	if err := c.ok(); err != nil {
		return nil, c.raise(err)
	}
	if g == nil {
		return nil, c.raise(errf(ErrGroup, "nil group"))
	}
	base, err := c.cl.AgreeContextBase()
	if err != nil {
		return nil, c.raise(mapErr(err))
	}
	parent := make(map[int]bool, len(c.group))
	for _, w := range c.group {
		parent[w] = true
	}
	for _, w := range g.ranks {
		if !parent[w] {
			return nil, c.raise(errf(ErrGroup, "group is not a subset of the communicator"))
		}
	}
	myRank := slices.Index(g.ranks, c.env.proc.Rank())
	if myRank < 0 {
		return nil, nil
	}
	group := append([]int(nil), g.ranks...)
	return newIntracomm(c.env, group, myRank, base, c.name+".create"), nil
}
