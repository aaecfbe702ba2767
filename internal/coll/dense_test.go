package coll

import "gompi/internal/dtype"

// Test-only entry points over the plan constructors. The reduction
// family's are dense-slice conveniences for tests that think in []int32
// and []float64: pack the contribution, build the plan, and republish
// its wire result as a fresh dense slice (nil where the collective
// defines no result). The data-movement family's are the blocking and
// I* forms the runtime itself has no caller for.

func densePlan(c *Comm, mine any, build func(acc *[]byte, cls dtype.Class) (*Plan, error)) (*Plan, error) {
	b := dtype.BufOf(mine)
	cls, _ := b.Class()
	t := dtype.BasicType(cls)
	n, err := b.Check(t)
	if err != nil {
		c.SkipInstance()
		return nil, err
	}
	acc, err := b.Pack(nil, 0, n, t)
	if err != nil {
		c.SkipInstance()
		return nil, err
	}
	p, err := build(&acc, cls)
	if err != nil {
		return nil, err
	}
	p.Publish(func() any {
		wire := Wire(p.s.res)
		if wire == nil {
			return nil
		}
		if cls == dtype.Obj {
			objs, err := dtype.DecodeObjects(wire)
			if err != nil {
				panic(err)
			}
			return objs
		}
		n := dtype.Elements(len(wire), cls)
		out := dtype.MakeDense(cls, n)
		if _, err := dtype.Unpack(wire, out, 0, n, t); err != nil {
			panic(err)
		}
		return out
	})
	return p, nil
}

func (c *Comm) reducePlanDense(root int, mine any, op *Op) (*Plan, error) {
	return densePlan(c, mine, func(acc *[]byte, cls dtype.Class) (*Plan, error) {
		return c.ReducePlan(root, acc, op, cls)
	})
}

func (c *Comm) allreducePlanDense(mine any, op *Op) (*Plan, error) {
	return densePlan(c, mine, func(acc *[]byte, cls dtype.Class) (*Plan, error) {
		units, unit := denseUnits(dtype.Elements(len(*acc), cls), cls, op)
		return c.AllreducePlan(acc, nil, units, unit, op, cls)
	})
}

func (c *Comm) scanPlanDense(exclusive bool, mine any, op *Op) (*Plan, error) {
	return densePlan(c, mine, func(acc *[]byte, cls dtype.Class) (*Plan, error) {
		return c.ScanPlan(exclusive, acc, op, cls)
	})
}

func run(p *Plan, err error) (any, error) {
	if err != nil {
		return nil, err
	}
	return p.Run()
}

func start(p *Plan, err error) *Request {
	if err != nil {
		panic(err)
	}
	return p.Start()
}

func (c *Comm) Reduce(root int, mine any, op *Op) (any, error) {
	return run(c.reducePlanDense(root, mine, op))
}

func (c *Comm) Scan(mine any, op *Op) (any, error) { return run(c.scanPlanDense(false, mine, op)) }

func (c *Comm) Exscan(mine any, op *Op) (any, error) { return run(c.scanPlanDense(true, mine, op)) }

func (c *Comm) ReduceScatter(mine any, counts []int, op *Op) (any, error) {
	return run(densePlan(c, mine, func(acc *[]byte, cls dtype.Class) (*Plan, error) {
		return c.ReduceScatterPlan(acc, counts, op, cls)
	}))
}

func (c *Comm) Iallreduce(mine any, op *Op) *Request { return start(c.allreducePlanDense(mine, op)) }

func (c *Comm) Iscan(mine any, op *Op) *Request { return start(c.scanPlanDense(false, mine, op)) }

func (c *Comm) Iexscan(mine any, op *Op) *Request { return start(c.scanPlanDense(true, mine, op)) }

func (c *Comm) Scatter(root int, parts [][]byte) ([]byte, error) {
	res, err := runAs[any](c.ScatterPlan(root, &parts))
	return Wire(res), err
}

func (c *Comm) Alltoall(parts [][]byte) ([][]byte, error) {
	return runAs[[][]byte](c.AlltoallPlan(parts))
}

func (c *Comm) Ibarrier() *Request { return c.BarrierPlan().Start() }

func (c *Comm) Ibcast(root int, data []byte) (*Request, error) {
	p, err := c.BcastPlan(root, &data)
	if err != nil {
		return nil, err
	}
	return p.Start(), nil
}

func (c *Comm) Iallgather(mine []byte) *Request { return c.AllgatherPlan(&mine).Start() }
