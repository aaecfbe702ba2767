package mpi

import (
	"context"
	"encoding/binary"
	"sort"

	"gompi/internal/coll"
	"gompi/internal/dtype"
)

// Intracomm is a communicator over a single group (paper Fig. 1): it
// adds the collective operations and the communicator/topology
// constructors to Comm.
//
// Every collective comes in three forms backed by one schedule in
// internal/coll: the nonblocking I* variant returning a *CollRequest
// (MPI-3 nonblocking collectives), the *Ctx variant that waits under a
// context.Context with cancellation points inside the algorithm, and
// the classic blocking form — semantically the *Ctx form under
// context.Background(), executed inline on the caller's goroutine so a
// blocking collective pays no runner-goroutine or channel overhead.
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

func (c *Intracomm) collChecks(d *Datatype, root int) error {
	if err := c.ok(); err != nil {
		return err
	}
	if err := c.checkType(d); err != nil {
		return err
	}
	return c.checkRoot(root)
}

// collPlan is one collective call, prepared (validated and packed) but
// not yet run: the shared substance behind the blocking, *Ctx and I*
// entry points. run executes the schedule inline on the caller's
// goroutine; irun starts it on its own runner; fin deposits the result
// into the caller's receive buffers at completion (nil when this rank
// receives nothing).
type collPlan struct {
	run  func() (any, error)
	irun func() (*coll.Request, error)
	fin  func(res any) error
}

// runColl drives a prepared plan to completion inline: the blocking
// entry points. A plan that failed local validation never reaches the
// schedule layer, so the collective's instance number is skipped to
// stay tag-aligned with members whose matching call proceeded.
func (c *Intracomm) runColl(p collPlan, err error) error {
	if err != nil {
		c.cl.SkipInstance()
		return c.raise(err)
	}
	res, rerr := p.run()
	if rerr != nil {
		return c.raise(mapEngineErr(rerr))
	}
	if p.fin != nil {
		return c.raise(p.fin(res))
	}
	return nil
}

// startColl launches a prepared plan on its own schedule runner: the
// nonblocking entry points. Like runColl, a plan-level failure skips
// the collective's instance number.
func (c *Intracomm) startColl(p collPlan, err error) (*CollRequest, error) {
	if err != nil {
		c.cl.SkipInstance()
		return nil, c.raise(err)
	}
	creq, rerr := p.irun()
	if rerr != nil {
		return nil, c.raise(mapEngineErr(rerr))
	}
	return newCollRequest(&c.Comm, creq, p.fin), nil
}

// SkipColl consumes one collective instance number without
// communicating. Layers that reject a collective call before it reaches
// the runtime (the typed layer's argument validation, custom wrappers)
// call it on the failing member so its instance-derived matching tags
// stay aligned with peers whose matching call proceeded — the same
// bookkeeping the binding itself performs when a call fails local
// validation.
func (c *Intracomm) SkipColl() { c.cl.SkipInstance() }

// Barrier blocks until all members have entered it (MPI_Barrier).
func (c *Intracomm) Barrier() error {
	return c.runColl(c.planBarrier())
}

// BarrierCtx is Barrier with cancellation: if ctx fires while peers are
// still missing, the wait unblocks promptly with ctx's error.
func (c *Intracomm) BarrierCtx(ctx context.Context) error {
	req, err := c.Ibarrier()
	if err != nil {
		return err
	}
	_, err = req.WaitCtx(ctx)
	return err
}

// Ibarrier starts a nonblocking barrier (MPI_Ibarrier): the request
// completes once every member has entered its matching barrier call.
func (c *Intracomm) Ibarrier() (*CollRequest, error) {
	return c.startColl(c.planBarrier())
}

func (c *Intracomm) planBarrier() (collPlan, error) {
	c.env.enterCall()
	if err := c.ok(); err != nil {
		return collPlan{}, err
	}
	return collPlan{
		run:  func() (any, error) { return nil, c.cl.Barrier() },
		irun: func() (*coll.Request, error) { return c.cl.Ibarrier(), nil },
	}, nil
}

// Bcast broadcasts the buffer section from root to all members
// (MPI_Bcast).
func (c *Intracomm) Bcast(buf any, offset, count int, d *Datatype, root int) error {
	return c.runColl(c.planBcast(buf, offset, count, d, root))
}

// BcastCtx is Bcast under a context.
func (c *Intracomm) BcastCtx(ctx context.Context, buf any, offset, count int, d *Datatype, root int) error {
	req, err := c.Ibcast(buf, offset, count, d, root)
	if err != nil {
		return err
	}
	_, err = req.WaitCtx(ctx)
	return err
}

// Ibcast starts a nonblocking broadcast (MPI_Ibcast). Non-root buffers
// are filled when the request completes; no buffer may be touched
// before then.
func (c *Intracomm) Ibcast(buf any, offset, count int, d *Datatype, root int) (*CollRequest, error) {
	return c.startColl(c.planBcast(buf, offset, count, d, root))
}

func (c *Intracomm) planBcast(buf any, offset, count int, d *Datatype, root int) (collPlan, error) {
	c.env.enterCall()
	if err := c.collChecks(d, root); err != nil {
		return collPlan{}, err
	}
	var wire []byte
	if c.rank == root {
		var err error
		if wire, err = c.packColl(buf, offset, count, d); err != nil {
			return collPlan{}, err
		}
	}
	p := collPlan{
		run: func() (any, error) {
			res, err := c.cl.Bcast(root, wire)
			return res, err
		},
		irun: func() (*coll.Request, error) { return c.cl.Ibcast(root, wire) },
	}
	if c.rank != root {
		p.fin = func(res any) error {
			if _, err := dtype.Unpack(res.([]byte), buf, offset, count, d.t); err != nil {
				return mapDataErr(err)
			}
			return nil
		}
	}
	return p, nil
}

// blocksFin builds the completion deposit for collectives returning one
// block per rank in a uniform layout: rank r's block lands at
// roffset + r*rcount*extent(rdt).
func blocksFin(recvbuf any, roffset, rcount int, rdt *Datatype) func(res any) error {
	return func(res any) error {
		for r, b := range res.([][]byte) {
			at := roffset + r*rcount*rdt.Extent()
			if _, err := dtype.Unpack(b, recvbuf, at, rcount, rdt.t); err != nil {
				return mapDataErr(err)
			}
		}
		return nil
	}
}

// blocksvFin is blocksFin for the v-variants: rank r's block lands at
// displacement displs[r] with recvcounts[r] items expected.
func blocksvFin(recvbuf any, roffset int, recvcounts, displs []int, rdt *Datatype) func(res any) error {
	return func(res any) error {
		for r, b := range res.([][]byte) {
			at := roffset + displs[r]*rdt.Extent()
			if _, err := dtype.Unpack(b, recvbuf, at, recvcounts[r], rdt.t); err != nil {
				return mapDataErr(err)
			}
		}
		return nil
	}
}

// vLayout marks a call that came through a v-variant entry point and
// carries its per-rank receive or send layout. A non-nil vLayout is
// validated unconditionally where it is significant — nil slices inside
// it are caught as wrong-length, exactly like the classic checks.
type vLayout struct {
	counts, displs []int
}

func (v *vLayout) check(name string, size int) error {
	if len(v.counts) != size || len(v.displs) != size {
		return errf(ErrArg, "%s needs %d counts and displs", name, size)
	}
	return nil
}

// Gather collects equal-size contributions at root (MPI_Gather): member
// r's section lands at recvbuf offset roffset + r*rcount*extent(rdt).
func (c *Intracomm) Gather(
	sendbuf any, soffset, scount int, sdt *Datatype,
	recvbuf any, roffset, rcount int, rdt *Datatype, root int,
) error {
	return c.runColl(c.planGather(sendbuf, soffset, scount, sdt, rdt, root, nil,
		blocksFin(recvbuf, roffset, rcount, rdt)))
}

// GatherCtx is Gather under a context.
func (c *Intracomm) GatherCtx(
	ctx context.Context,
	sendbuf any, soffset, scount int, sdt *Datatype,
	recvbuf any, roffset, rcount int, rdt *Datatype, root int,
) error {
	req, err := c.Igather(sendbuf, soffset, scount, sdt, recvbuf, roffset, rcount, rdt, root)
	if err != nil {
		return err
	}
	_, err = req.WaitCtx(ctx)
	return err
}

// Igather starts a nonblocking gather (MPI_Igather); root's recvbuf is
// filled when the request completes.
func (c *Intracomm) Igather(
	sendbuf any, soffset, scount int, sdt *Datatype,
	recvbuf any, roffset, rcount int, rdt *Datatype, root int,
) (*CollRequest, error) {
	return c.startColl(c.planGather(sendbuf, soffset, scount, sdt, rdt, root, nil,
		blocksFin(recvbuf, roffset, rcount, rdt)))
}

// Gatherv collects varying-size contributions at root (MPI_Gatherv):
// member r contributes scount items and lands at displacement displs[r]
// (in units of rdt's extent) with recvcounts[r] items expected.
func (c *Intracomm) Gatherv(
	sendbuf any, soffset, scount int, sdt *Datatype,
	recvbuf any, roffset int, recvcounts, displs []int, rdt *Datatype, root int,
) error {
	return c.runColl(c.planGather(sendbuf, soffset, scount, sdt, rdt, root,
		&vLayout{recvcounts, displs}, blocksvFin(recvbuf, roffset, recvcounts, displs, rdt)))
}

// GathervCtx is Gatherv under a context.
func (c *Intracomm) GathervCtx(
	ctx context.Context,
	sendbuf any, soffset, scount int, sdt *Datatype,
	recvbuf any, roffset int, recvcounts, displs []int, rdt *Datatype, root int,
) error {
	req, err := c.Igatherv(sendbuf, soffset, scount, sdt, recvbuf, roffset, recvcounts, displs, rdt, root)
	if err != nil {
		return err
	}
	_, err = req.WaitCtx(ctx)
	return err
}

// Igatherv starts a nonblocking varying-size gather (MPI_Igatherv).
func (c *Intracomm) Igatherv(
	sendbuf any, soffset, scount int, sdt *Datatype,
	recvbuf any, roffset int, recvcounts, displs []int, rdt *Datatype, root int,
) (*CollRequest, error) {
	return c.startColl(c.planGather(sendbuf, soffset, scount, sdt, rdt, root,
		&vLayout{recvcounts, displs}, blocksvFin(recvbuf, roffset, recvcounts, displs, rdt)))
}

// planGather is the shared plan of Gather and Gatherv: deposit is the
// root-side unpack; v is the v-variant's receive layout, validated at
// root.
func (c *Intracomm) planGather(
	sendbuf any, soffset, scount int, sdt *Datatype,
	rdt *Datatype, root int, v *vLayout, deposit func(res any) error,
) (collPlan, error) {
	c.env.enterCall()
	if err := c.collChecks(sdt, root); err != nil {
		return collPlan{}, err
	}
	if c.rank == root {
		if err := c.checkType(rdt); err != nil {
			return collPlan{}, err
		}
		if v != nil {
			if err := v.check("Gatherv", c.Size()); err != nil {
				return collPlan{}, err
			}
		}
	}
	mine, err := c.packColl(sendbuf, soffset, scount, sdt)
	if err != nil {
		return collPlan{}, err
	}
	p := collPlan{
		run: func() (any, error) {
			res, err := c.cl.Gather(root, mine)
			return res, err
		},
		irun: func() (*coll.Request, error) { return c.cl.Igather(root, mine) },
	}
	if c.rank == root {
		p.fin = deposit
	}
	return p, nil
}

// Scatter distributes equal-size sections from root (MPI_Scatter):
// member r receives the section at sendbuf offset soffset +
// r*scount*extent(sdt).
func (c *Intracomm) Scatter(
	sendbuf any, soffset, scount int, sdt *Datatype,
	recvbuf any, roffset, rcount int, rdt *Datatype, root int,
) error {
	return c.runColl(c.planScatter(sendbuf, soffset, scount, sdt, nil, recvbuf, roffset, rcount, rdt, root))
}

// ScatterCtx is Scatter under a context.
func (c *Intracomm) ScatterCtx(
	ctx context.Context,
	sendbuf any, soffset, scount int, sdt *Datatype,
	recvbuf any, roffset, rcount int, rdt *Datatype, root int,
) error {
	req, err := c.Iscatter(sendbuf, soffset, scount, sdt, recvbuf, roffset, rcount, rdt, root)
	if err != nil {
		return err
	}
	_, err = req.WaitCtx(ctx)
	return err
}

// Iscatter starts a nonblocking scatter (MPI_Iscatter).
func (c *Intracomm) Iscatter(
	sendbuf any, soffset, scount int, sdt *Datatype,
	recvbuf any, roffset, rcount int, rdt *Datatype, root int,
) (*CollRequest, error) {
	return c.startColl(c.planScatter(sendbuf, soffset, scount, sdt, nil, recvbuf, roffset, rcount, rdt, root))
}

// Scatterv distributes varying-size sections from root (MPI_Scatterv).
func (c *Intracomm) Scatterv(
	sendbuf any, soffset int, sendcounts, displs []int, sdt *Datatype,
	recvbuf any, roffset, rcount int, rdt *Datatype, root int,
) error {
	return c.runColl(c.planScatter(sendbuf, soffset, 0, sdt,
		&vLayout{sendcounts, displs}, recvbuf, roffset, rcount, rdt, root))
}

// ScattervCtx is Scatterv under a context.
func (c *Intracomm) ScattervCtx(
	ctx context.Context,
	sendbuf any, soffset int, sendcounts, displs []int, sdt *Datatype,
	recvbuf any, roffset, rcount int, rdt *Datatype, root int,
) error {
	req, err := c.Iscatterv(sendbuf, soffset, sendcounts, displs, sdt, recvbuf, roffset, rcount, rdt, root)
	if err != nil {
		return err
	}
	_, err = req.WaitCtx(ctx)
	return err
}

// Iscatterv starts a nonblocking varying-size scatter (MPI_Iscatterv).
func (c *Intracomm) Iscatterv(
	sendbuf any, soffset int, sendcounts, displs []int, sdt *Datatype,
	recvbuf any, roffset, rcount int, rdt *Datatype, root int,
) (*CollRequest, error) {
	return c.startColl(c.planScatter(sendbuf, soffset, 0, sdt,
		&vLayout{sendcounts, displs}, recvbuf, roffset, rcount, rdt, root))
}

// planScatter is the shared plan of Scatter (v nil, uniform scount
// sections) and Scatterv (v carries the per-rank send layout,
// significant and validated at root).
func (c *Intracomm) planScatter(
	sendbuf any, soffset, scount int, sdt *Datatype, v *vLayout,
	recvbuf any, roffset, rcount int, rdt *Datatype, root int,
) (collPlan, error) {
	c.env.enterCall()
	if err := c.collChecks(rdt, root); err != nil {
		return collPlan{}, err
	}
	var parts [][]byte
	if c.rank == root {
		if err := c.checkType(sdt); err != nil {
			return collPlan{}, err
		}
		if v != nil {
			if err := v.check("Scatterv", c.Size()); err != nil {
				return collPlan{}, err
			}
		}
		parts = make([][]byte, c.Size())
		for r := range parts {
			at, n := soffset+r*scount*sdt.Extent(), scount
			if v != nil {
				at, n = soffset+v.displs[r]*sdt.Extent(), v.counts[r]
			}
			wire, err := c.packColl(sendbuf, at, n, sdt)
			if err != nil {
				return collPlan{}, err
			}
			parts[r] = wire
		}
	}
	return collPlan{
		run: func() (any, error) {
			res, err := c.cl.Scatter(root, parts)
			return res, err
		},
		irun: func() (*coll.Request, error) { return c.cl.Iscatter(root, parts) },
		fin: func(res any) error {
			if _, err := dtype.Unpack(res.([]byte), recvbuf, roffset, rcount, rdt.t); err != nil {
				return mapDataErr(err)
			}
			return nil
		},
	}, nil
}

// Allgather gathers equal-size contributions at every member
// (MPI_Allgather).
func (c *Intracomm) Allgather(
	sendbuf any, soffset, scount int, sdt *Datatype,
	recvbuf any, roffset, rcount int, rdt *Datatype,
) error {
	return c.runColl(c.planAllgather(sendbuf, soffset, scount, sdt, rdt, nil,
		blocksFin(recvbuf, roffset, rcount, rdt)))
}

// AllgatherCtx is Allgather under a context.
func (c *Intracomm) AllgatherCtx(
	ctx context.Context,
	sendbuf any, soffset, scount int, sdt *Datatype,
	recvbuf any, roffset, rcount int, rdt *Datatype,
) error {
	req, err := c.Iallgather(sendbuf, soffset, scount, sdt, recvbuf, roffset, rcount, rdt)
	if err != nil {
		return err
	}
	_, err = req.WaitCtx(ctx)
	return err
}

// Iallgather starts a nonblocking allgather (MPI_Iallgather).
func (c *Intracomm) Iallgather(
	sendbuf any, soffset, scount int, sdt *Datatype,
	recvbuf any, roffset, rcount int, rdt *Datatype,
) (*CollRequest, error) {
	return c.startColl(c.planAllgather(sendbuf, soffset, scount, sdt, rdt, nil,
		blocksFin(recvbuf, roffset, rcount, rdt)))
}

// Allgatherv gathers varying-size contributions at every member
// (MPI_Allgatherv).
func (c *Intracomm) Allgatherv(
	sendbuf any, soffset, scount int, sdt *Datatype,
	recvbuf any, roffset int, recvcounts, displs []int, rdt *Datatype,
) error {
	return c.runColl(c.planAllgather(sendbuf, soffset, scount, sdt, rdt,
		&vLayout{recvcounts, displs}, blocksvFin(recvbuf, roffset, recvcounts, displs, rdt)))
}

// AllgathervCtx is Allgatherv under a context.
func (c *Intracomm) AllgathervCtx(
	ctx context.Context,
	sendbuf any, soffset, scount int, sdt *Datatype,
	recvbuf any, roffset int, recvcounts, displs []int, rdt *Datatype,
) error {
	req, err := c.Iallgatherv(sendbuf, soffset, scount, sdt, recvbuf, roffset, recvcounts, displs, rdt)
	if err != nil {
		return err
	}
	_, err = req.WaitCtx(ctx)
	return err
}

// Iallgatherv starts a nonblocking varying-size allgather
// (MPI_Iallgatherv).
func (c *Intracomm) Iallgatherv(
	sendbuf any, soffset, scount int, sdt *Datatype,
	recvbuf any, roffset int, recvcounts, displs []int, rdt *Datatype,
) (*CollRequest, error) {
	return c.startColl(c.planAllgather(sendbuf, soffset, scount, sdt, rdt,
		&vLayout{recvcounts, displs}, blocksvFin(recvbuf, roffset, recvcounts, displs, rdt)))
}

// planAllgather is the shared plan of Allgather and Allgatherv; the
// v-variant's receive layout is significant (and validated) on every
// member.
func (c *Intracomm) planAllgather(
	sendbuf any, soffset, scount int, sdt *Datatype,
	rdt *Datatype, v *vLayout, deposit func(res any) error,
) (collPlan, error) {
	c.env.enterCall()
	if err := c.ok(); err != nil {
		return collPlan{}, err
	}
	if err := c.checkType(sdt); err != nil {
		return collPlan{}, err
	}
	if err := c.checkType(rdt); err != nil {
		return collPlan{}, err
	}
	if v != nil {
		if err := v.check("Allgatherv", c.Size()); err != nil {
			return collPlan{}, err
		}
	}
	mine, err := c.packColl(sendbuf, soffset, scount, sdt)
	if err != nil {
		return collPlan{}, err
	}
	return collPlan{
		run: func() (any, error) {
			res, err := c.cl.Allgather(mine)
			return res, err
		},
		irun: func() (*coll.Request, error) { return c.cl.Iallgather(mine), nil },
		fin:  deposit,
	}, nil
}

// Alltoall exchanges equal-size sections between all pairs
// (MPI_Alltoall).
func (c *Intracomm) Alltoall(
	sendbuf any, soffset, scount int, sdt *Datatype,
	recvbuf any, roffset, rcount int, rdt *Datatype,
) error {
	return c.runColl(c.planAlltoall(sendbuf, soffset, scount, sdt, nil, rdt, nil,
		blocksFin(recvbuf, roffset, rcount, rdt)))
}

// AlltoallCtx is Alltoall under a context.
func (c *Intracomm) AlltoallCtx(
	ctx context.Context,
	sendbuf any, soffset, scount int, sdt *Datatype,
	recvbuf any, roffset, rcount int, rdt *Datatype,
) error {
	req, err := c.Ialltoall(sendbuf, soffset, scount, sdt, recvbuf, roffset, rcount, rdt)
	if err != nil {
		return err
	}
	_, err = req.WaitCtx(ctx)
	return err
}

// Ialltoall starts a nonblocking alltoall (MPI_Ialltoall).
func (c *Intracomm) Ialltoall(
	sendbuf any, soffset, scount int, sdt *Datatype,
	recvbuf any, roffset, rcount int, rdt *Datatype,
) (*CollRequest, error) {
	return c.startColl(c.planAlltoall(sendbuf, soffset, scount, sdt, nil, rdt, nil,
		blocksFin(recvbuf, roffset, rcount, rdt)))
}

// Alltoallv exchanges varying-size sections between all pairs
// (MPI_Alltoallv).
func (c *Intracomm) Alltoallv(
	sendbuf any, soffset int, sendcounts, sdispls []int, sdt *Datatype,
	recvbuf any, roffset int, recvcounts, rdispls []int, rdt *Datatype,
) error {
	return c.runColl(c.planAlltoall(sendbuf, soffset, 0, sdt, &vLayout{sendcounts, sdispls},
		rdt, &vLayout{recvcounts, rdispls}, blocksvFin(recvbuf, roffset, recvcounts, rdispls, rdt)))
}

// AlltoallvCtx is Alltoallv under a context.
func (c *Intracomm) AlltoallvCtx(
	ctx context.Context,
	sendbuf any, soffset int, sendcounts, sdispls []int, sdt *Datatype,
	recvbuf any, roffset int, recvcounts, rdispls []int, rdt *Datatype,
) error {
	req, err := c.Ialltoallv(sendbuf, soffset, sendcounts, sdispls, sdt, recvbuf, roffset, recvcounts, rdispls, rdt)
	if err != nil {
		return err
	}
	_, err = req.WaitCtx(ctx)
	return err
}

// Ialltoallv starts a nonblocking varying-size alltoall
// (MPI_Ialltoallv).
func (c *Intracomm) Ialltoallv(
	sendbuf any, soffset int, sendcounts, sdispls []int, sdt *Datatype,
	recvbuf any, roffset int, recvcounts, rdispls []int, rdt *Datatype,
) (*CollRequest, error) {
	return c.startColl(c.planAlltoall(sendbuf, soffset, 0, sdt, &vLayout{sendcounts, sdispls},
		rdt, &vLayout{recvcounts, rdispls}, blocksvFin(recvbuf, roffset, recvcounts, rdispls, rdt)))
}

// planAlltoall is the shared plan of Alltoall (uniform scount sections;
// sendV/recvV nil) and Alltoallv (per-rank layouts on both sides, both
// validated on every member).
func (c *Intracomm) planAlltoall(
	sendbuf any, soffset, scount int, sdt *Datatype, sendV *vLayout,
	rdt *Datatype, recvV *vLayout, deposit func(res any) error,
) (collPlan, error) {
	c.env.enterCall()
	if err := c.ok(); err != nil {
		return collPlan{}, err
	}
	if err := c.checkType(sdt); err != nil {
		return collPlan{}, err
	}
	if err := c.checkType(rdt); err != nil {
		return collPlan{}, err
	}
	n := c.Size()
	if sendV != nil {
		if sendV.check("", n) != nil || recvV.check("", n) != nil {
			return collPlan{}, errf(ErrArg, "Alltoallv needs %d counts and displacements on both sides", n)
		}
	}
	parts := make([][]byte, n)
	for r := range parts {
		at, cnt := soffset+r*scount*sdt.Extent(), scount
		if sendV != nil {
			at, cnt = soffset+sendV.displs[r]*sdt.Extent(), sendV.counts[r]
		}
		wire, err := c.packColl(sendbuf, at, cnt, sdt)
		if err != nil {
			return collPlan{}, err
		}
		parts[r] = wire
	}
	return collPlan{
		run: func() (any, error) {
			res, err := c.cl.Alltoall(parts)
			return res, err
		},
		irun: func() (*coll.Request, error) { return c.cl.Ialltoall(parts) },
		fin:  deposit,
	}, nil
}

// Reduce folds count items with op, leaving the result at root
// (MPI_Reduce; mpiJava signature with distinct send and receive offsets).
func (c *Intracomm) Reduce(
	sendbuf any, soffset int, recvbuf any, roffset int,
	count int, d *Datatype, op *Op, root int,
) error {
	return c.runColl(c.planReduce(sendbuf, soffset, recvbuf, roffset, count, d, op, root))
}

// ReduceCtx is Reduce under a context.
func (c *Intracomm) ReduceCtx(
	ctx context.Context,
	sendbuf any, soffset int, recvbuf any, roffset int,
	count int, d *Datatype, op *Op, root int,
) error {
	req, err := c.Ireduce(sendbuf, soffset, recvbuf, roffset, count, d, op, root)
	if err != nil {
		return err
	}
	_, err = req.WaitCtx(ctx)
	return err
}

// Ireduce starts a nonblocking reduction (MPI_Ireduce); root's recvbuf
// is filled when the request completes.
func (c *Intracomm) Ireduce(
	sendbuf any, soffset int, recvbuf any, roffset int,
	count int, d *Datatype, op *Op, root int,
) (*CollRequest, error) {
	return c.startColl(c.planReduce(sendbuf, soffset, recvbuf, roffset, count, d, op, root))
}

func (c *Intracomm) planReduce(
	sendbuf any, soffset int, recvbuf any, roffset int,
	count int, d *Datatype, op *Op, root int,
) (collPlan, error) {
	c.env.enterCall()
	if err := c.collChecks(d, root); err != nil {
		return collPlan{}, err
	}
	if err := checkOp(op, d); err != nil {
		return collPlan{}, err
	}
	a, err := c.reduceAccum(c.rank == root, sendbuf, soffset, recvbuf, roffset, count, count, d)
	if err != nil {
		return collPlan{}, err
	}
	return planOf(func() (*coll.Plan, error) {
		return c.cl.ReducePlan(root, &a.b, op.op, d.t.Class())
	}, a.fin), nil
}

// Allreduce folds count items with op, leaving the result everywhere
// (MPI_Allreduce).
func (c *Intracomm) Allreduce(
	sendbuf any, soffset int, recvbuf any, roffset int,
	count int, d *Datatype, op *Op,
) error {
	return c.runColl(c.planAllreduce(sendbuf, soffset, recvbuf, roffset, count, d, op))
}

// AllreduceCtx is Allreduce under a context.
func (c *Intracomm) AllreduceCtx(
	ctx context.Context,
	sendbuf any, soffset int, recvbuf any, roffset int,
	count int, d *Datatype, op *Op,
) error {
	req, err := c.Iallreduce(sendbuf, soffset, recvbuf, roffset, count, d, op)
	if err != nil {
		return err
	}
	_, err = req.WaitCtx(ctx)
	return err
}

// Iallreduce starts a nonblocking all-reduction (MPI_Iallreduce); every
// member's recvbuf is filled when the request completes.
func (c *Intracomm) Iallreduce(
	sendbuf any, soffset int, recvbuf any, roffset int,
	count int, d *Datatype, op *Op,
) (*CollRequest, error) {
	return c.startColl(c.planAllreduce(sendbuf, soffset, recvbuf, roffset, count, d, op))
}

func (c *Intracomm) planAllreduce(
	sendbuf any, soffset int, recvbuf any, roffset int,
	count int, d *Datatype, op *Op,
) (collPlan, error) {
	c.env.enterCall()
	if err := c.ok(); err != nil {
		return collPlan{}, err
	}
	if err := c.checkType(d); err != nil {
		return collPlan{}, err
	}
	if err := checkOp(op, d); err != nil {
		return collPlan{}, err
	}
	a, err := c.reduceAccum(true, sendbuf, soffset, recvbuf, roffset, count, count, d)
	if err != nil {
		return collPlan{}, err
	}
	return planOf(func() (*coll.Plan, error) {
		return c.cl.AllreducePlan(&a.b, op.op, d.t.Class())
	}, a.fin), nil
}

// ReduceScatter folds with op and scatters segments of the result:
// member r receives recvcounts[r] items (MPI_Reduce_scatter).
func (c *Intracomm) ReduceScatter(
	sendbuf any, soffset int, recvbuf any, roffset int,
	recvcounts []int, d *Datatype, op *Op,
) error {
	return c.runColl(c.planReduceScatter(sendbuf, soffset, recvbuf, roffset, recvcounts, d, op))
}

// ReduceScatterCtx is ReduceScatter under a context.
func (c *Intracomm) ReduceScatterCtx(
	ctx context.Context,
	sendbuf any, soffset int, recvbuf any, roffset int,
	recvcounts []int, d *Datatype, op *Op,
) error {
	req, err := c.IreduceScatter(sendbuf, soffset, recvbuf, roffset, recvcounts, d, op)
	if err != nil {
		return err
	}
	_, err = req.WaitCtx(ctx)
	return err
}

// IreduceScatter starts a nonblocking fold-and-scatter
// (MPI_Ireduce_scatter).
func (c *Intracomm) IreduceScatter(
	sendbuf any, soffset int, recvbuf any, roffset int,
	recvcounts []int, d *Datatype, op *Op,
) (*CollRequest, error) {
	return c.startColl(c.planReduceScatter(sendbuf, soffset, recvbuf, roffset, recvcounts, d, op))
}

func (c *Intracomm) planReduceScatter(
	sendbuf any, soffset int, recvbuf any, roffset int,
	recvcounts []int, d *Datatype, op *Op,
) (collPlan, error) {
	c.env.enterCall()
	if err := c.ok(); err != nil {
		return collPlan{}, err
	}
	if err := c.checkType(d); err != nil {
		return collPlan{}, err
	}
	if err := checkOp(op, d); err != nil {
		return collPlan{}, err
	}
	if len(recvcounts) != c.Size() {
		return collPlan{}, errf(ErrArg, "ReduceScatter needs %d recvcounts", c.Size())
	}
	total := 0
	elemCounts := make([]int, len(recvcounts))
	for i, n := range recvcounts {
		if n < 0 {
			return collPlan{}, errf(ErrCount, "negative recvcount %d", n)
		}
		total += n
		elemCounts[i] = n * d.Size()
	}
	a, err := c.reduceAccum(true, sendbuf, soffset, recvbuf, roffset, recvcounts[c.rank], total, d)
	if err != nil {
		return collPlan{}, err
	}
	return planOf(func() (*coll.Plan, error) {
		return c.cl.ReduceScatterPlan(&a.b, elemCounts, op.op, d.t.Class())
	}, a.fin), nil
}

// Scan computes the inclusive prefix reduction in rank order (MPI_Scan).
func (c *Intracomm) Scan(
	sendbuf any, soffset int, recvbuf any, roffset int,
	count int, d *Datatype, op *Op,
) error {
	return c.runColl(c.planScan(false, sendbuf, soffset, recvbuf, roffset, count, d, op))
}

// ScanCtx is Scan under a context.
func (c *Intracomm) ScanCtx(
	ctx context.Context,
	sendbuf any, soffset int, recvbuf any, roffset int,
	count int, d *Datatype, op *Op,
) error {
	req, err := c.Iscan(sendbuf, soffset, recvbuf, roffset, count, d, op)
	if err != nil {
		return err
	}
	_, err = req.WaitCtx(ctx)
	return err
}

// Iscan starts a nonblocking inclusive prefix reduction (MPI_Iscan).
func (c *Intracomm) Iscan(
	sendbuf any, soffset int, recvbuf any, roffset int,
	count int, d *Datatype, op *Op,
) (*CollRequest, error) {
	return c.startColl(c.planScan(false, sendbuf, soffset, recvbuf, roffset, count, d, op))
}

// Exscan computes the exclusive prefix reduction in rank order — one of
// the MPI-2 additions the paper plans to fold in (§5.3). Member r
// receives op(x_0, …, x_{r-1}); rank 0's receive buffer is untouched
// (its result is undefined, per the standard).
func (c *Intracomm) Exscan(
	sendbuf any, soffset int, recvbuf any, roffset int,
	count int, d *Datatype, op *Op,
) error {
	return c.runColl(c.planScan(true, sendbuf, soffset, recvbuf, roffset, count, d, op))
}

// ExscanCtx is Exscan under a context.
func (c *Intracomm) ExscanCtx(
	ctx context.Context,
	sendbuf any, soffset int, recvbuf any, roffset int,
	count int, d *Datatype, op *Op,
) error {
	req, err := c.Iexscan(sendbuf, soffset, recvbuf, roffset, count, d, op)
	if err != nil {
		return err
	}
	_, err = req.WaitCtx(ctx)
	return err
}

// Iexscan starts a nonblocking exclusive prefix reduction
// (MPI_Iexscan).
func (c *Intracomm) Iexscan(
	sendbuf any, soffset int, recvbuf any, roffset int,
	count int, d *Datatype, op *Op,
) (*CollRequest, error) {
	return c.startColl(c.planScan(true, sendbuf, soffset, recvbuf, roffset, count, d, op))
}

// planScan is the shared plan of Scan and Exscan; exclusive selects the
// variant. Rank 0's Exscan result is undefined: its receive buffer is
// neither validated nor touched.
func (c *Intracomm) planScan(
	exclusive bool,
	sendbuf any, soffset int, recvbuf any, roffset int,
	count int, d *Datatype, op *Op,
) (collPlan, error) {
	c.env.enterCall()
	if err := c.ok(); err != nil {
		return collPlan{}, err
	}
	if err := c.checkType(d); err != nil {
		return collPlan{}, err
	}
	if err := checkOp(op, d); err != nil {
		return collPlan{}, err
	}
	a, err := c.reduceAccum(!exclusive || c.rank > 0, sendbuf, soffset, recvbuf, roffset, count, count, d)
	if err != nil {
		return collPlan{}, err
	}
	return planOf(func() (*coll.Plan, error) {
		return c.cl.ScanPlan(exclusive, &a.b, op.op, d.t.Class())
	}, a.fin), nil
}

// Dup duplicates the communicator with fresh contexts (MPI_Comm_dup).
// Collective over the communicator.
func (c *Intracomm) Dup() (*Intracomm, error) {
	c.env.enterCall()
	if err := c.ok(); err != nil {
		return nil, c.raise(err)
	}
	base, err := c.cl.AgreeContextBase()
	if err != nil {
		return nil, c.raise(mapEngineErr(err))
	}
	dup := newIntracomm(c.env, c.group, c.rank, base, c.name+".dup")
	c.copyAttrsTo(&dup.Comm)
	return dup, nil
}

// Split partitions the communicator by colour, ordering each new group
// by (key, old rank); colour Undefined yields a nil communicator
// (MPI_Comm_split). Collective over the communicator.
func (c *Intracomm) Split(colour, key int) (*Intracomm, error) {
	c.env.enterCall()
	if err := c.ok(); err != nil {
		return nil, c.raise(err)
	}
	if colour < 0 && colour != Undefined {
		return nil, c.raise(errf(ErrArg, "negative colour %d", colour))
	}
	var enc [8]byte
	binary.LittleEndian.PutUint32(enc[0:], uint32(int32(colour)))
	binary.LittleEndian.PutUint32(enc[4:], uint32(int32(key)))
	all, err := c.cl.Allgather(enc[:])
	if err != nil {
		return nil, c.raise(mapEngineErr(err))
	}
	base, err := c.cl.AgreeContextBase()
	if err != nil {
		return nil, c.raise(mapEngineErr(err))
	}
	if colour == Undefined {
		return nil, nil
	}
	type member struct{ key, oldRank int }
	var members []member
	for r, b := range all {
		col := int(int32(binary.LittleEndian.Uint32(b[0:])))
		k := int(int32(binary.LittleEndian.Uint32(b[4:])))
		if col == colour {
			members = append(members, member{key: k, oldRank: r})
		}
	}
	sort.Slice(members, func(i, j int) bool {
		if members[i].key != members[j].key {
			return members[i].key < members[j].key
		}
		return members[i].oldRank < members[j].oldRank
	})
	group := make([]int, len(members))
	myRank := -1
	for i, m := range members {
		group[i] = c.group[m.oldRank]
		if m.oldRank == c.rank {
			myRank = i
		}
	}
	return newIntracomm(c.env, group, myRank, base, c.name+".split"), nil
}

// Create builds a communicator over a subgroup; members get the new
// communicator, non-members nil (MPI_Comm_create). Collective over the
// parent.
func (c *Intracomm) Create(g *Group) (*Intracomm, error) {
	c.env.enterCall()
	if err := c.ok(); err != nil {
		return nil, c.raise(err)
	}
	if g == nil {
		return nil, c.raise(errf(ErrGroup, "nil group"))
	}
	base, err := c.cl.AgreeContextBase()
	if err != nil {
		return nil, c.raise(mapEngineErr(err))
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
	me := c.env.proc.Rank()
	myRank := -1
	for i, w := range g.ranks {
		if w == me {
			myRank = i
		}
	}
	if myRank < 0 {
		return nil, nil
	}
	group := append([]int(nil), g.ranks...)
	return newIntracomm(c.env, group, myRank, base, c.name+".create"), nil
}
