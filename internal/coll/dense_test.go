package coll

import (
	"context"

	"gompi/internal/dtype"
)

// Test-only entry points over the plan constructors. The reduction
// family's are dense-slice conveniences for tests that think in []int32
// and []float64: pack the contribution, build the plan, and read the
// result the plan leaves in its accumulator back as a fresh dense slice
// (nil where the collective defines no result). The data-movement
// family's are the blocking and I* forms the runtime itself has no
// caller for.

// densePlan builds a reduction over mine's wire image, with the reader
// of its result; has says this member receives one.
func densePlan(c *Comm, mine any, has bool, build func(acc *[]byte, cls dtype.Class) (*Plan, error)) (*Plan, func() any, error) {
	b := dtype.BufOf(mine)
	cls, _ := b.Class()
	t := dtype.BasicType(cls)
	n, err := b.Check(t)
	if err != nil {
		c.SkipInstance()
		return nil, nil, err
	}
	acc, err := b.Pack(nil, 0, n, t)
	if err != nil {
		c.SkipInstance()
		return nil, nil, err
	}
	p, err := build(&acc, cls)
	return p, func() any {
		if !has {
			return nil
		}
		if cls == dtype.Obj {
			objs, err := dtype.DecodeObjects(acc)
			if err != nil {
				panic(err)
			}
			return objs
		}
		n := dtype.Elements(len(acc), cls)
		out := dtype.MakeDense(cls, n)
		if _, err := dtype.Unpack(acc, out, 0, n, t); err != nil {
			panic(err)
		}
		return out
	}, err
}

func (c *Comm) reducePlanDense(root int, mine any, op *Op) (*Plan, func() any, error) {
	return densePlan(c, mine, c.Rank == root, func(acc *[]byte, cls dtype.Class) (*Plan, error) {
		return c.ReducePlan(root, acc, op, cls)
	})
}

func (c *Comm) allreducePlanDense(mine any, op *Op) (*Plan, func() any, error) {
	return densePlan(c, mine, true, func(acc *[]byte, cls dtype.Class) (*Plan, error) {
		units, unit := denseUnits(dtype.Elements(len(*acc), cls), cls, op)
		return c.AllreducePlan(acc, nil, units, unit, op, cls)
	})
}

func (c *Comm) scanPlanDense(exclusive bool, mine any, op *Op) (*Plan, func() any, error) {
	return densePlan(c, mine, !exclusive || c.Rank > 0, func(acc *[]byte, cls dtype.Class) (*Plan, error) {
		return c.ScanPlan(exclusive, acc, op, cls)
	})
}

// pending is a started plan as the tests wait for it: its request, and
// the reader of the result it leaves where its builder bound it (nil
// for a plan that delivers nothing).
type pending struct {
	r      *Request
	result func() any
}

func (p pending) Wait() (any, error) { return p.read(p.r.Wait()) }

func (p pending) WaitCtx(ctx context.Context) (any, error) { return p.read(p.r.WaitCtx(ctx)) }

func (p pending) Test() (any, bool, error) {
	done, err := p.r.Test()
	if !done {
		return nil, false, nil
	}
	res, err := p.read(err)
	return res, true, err
}

func (p pending) read(err error) (any, error) {
	if err != nil || p.result == nil {
		return nil, err
	}
	return p.result(), nil
}

func run(p *Plan, result func() any, err error) (any, error) {
	if err == nil {
		err = p.Run()
	}
	if err != nil {
		return nil, err
	}
	return result(), nil
}

func start(p *Plan, result func() any, err error) pending {
	if err != nil {
		panic(err)
	}
	return pending{p.Start(), result}
}

func (c *Comm) Reduce(root int, mine any, op *Op) (any, error) {
	return run(c.reducePlanDense(root, mine, op))
}

func (c *Comm) Scan(mine any, op *Op) (any, error) { return run(c.scanPlanDense(false, mine, op)) }

func (c *Comm) Exscan(mine any, op *Op) (any, error) { return run(c.scanPlanDense(true, mine, op)) }

func (c *Comm) ReduceScatter(mine any, counts []int, op *Op) (any, error) {
	return run(densePlan(c, mine, true, func(acc *[]byte, cls dtype.Class) (*Plan, error) {
		return c.ReduceScatterPlan(acc, counts, op, cls)
	}))
}

func (c *Comm) Iallreduce(mine any, op *Op) pending { return start(c.allreducePlanDense(mine, op)) }

func (c *Comm) Iscan(mine any, op *Op) pending { return start(c.scanPlanDense(false, mine, op)) }

func (c *Comm) Iexscan(mine any, op *Op) pending { return start(c.scanPlanDense(true, mine, op)) }

func (c *Comm) Scatter(root int, parts [][]byte) ([]byte, error) {
	var mine []byte
	err := runPlan(c.ScatterPlan(root, each(&parts), one(&mine)))
	return mine, err
}

func (c *Comm) Alltoall(parts [][]byte) ([][]byte, error) {
	out := make([][]byte, c.Size)
	err := runPlan(c.AlltoallPlan(each(&parts), each(&out)), nil)
	return out, err
}

func (c *Comm) Ibarrier() pending { return pending{r: c.BarrierPlan().Start()} }

// Ibcast and Iallgather read what they deliver back as a result.
func (c *Comm) Ibcast(root int, data []byte) (pending, error) {
	p, err := c.BcastPlan(root, one(&data))
	if err != nil {
		return pending{}, err
	}
	return pending{p.Start(), func() any { return data }}, nil
}

func (c *Comm) Iallgather(mine []byte) pending {
	out := make([][]byte, c.Size)
	p := c.AllgatherPlan(one(&mine), each(&out))
	return pending{p.Start(), func() any { return out }}
}
