package coll

import (
	"fmt"
	"sync"
)

// Persistent is a cached, re-runnable collective schedule — the engine
// half of MPI-4 persistent collectives. It is built once (validation,
// tag minting, step compilation all happen at *Init time, in program
// order like any collective call) and then activated any number of
// times with Start, each activation running the frozen schedule on the
// shared progress pool with near-zero setup cost.
//
// The *Init constructors take pointers to the operation's inputs: each
// activation re-reads them, so the binding layer can re-pack the user's
// (fixed) buffers before every Start — MPI's persistent-operation
// contract. Tags are minted once and reused: a member must complete
// activation k before starting k+1 (Start enforces it locally), which
// keeps successive activations' traffic aligned pair-wise without new
// tags.
type Persistent struct {
	s *sched

	mu     sync.Mutex
	active *Request
	err    error // poisoned: set once the operation can no longer restart
	freed  bool
}

// Start begins a new activation and returns its request. The previous
// activation must have completed (ErrActive otherwise); an activation
// that completed with an error — cancellation, peer loss, revocation —
// poisons the operation, and every later Start returns that error.
func (p *Persistent) Start() (*Request, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.freed {
		return nil, fmt.Errorf("coll: Start on a freed persistent operation")
	}
	if p.err != nil {
		return nil, p.err
	}
	if p.active != nil {
		_, done, err := p.active.Test()
		if !done {
			return nil, ErrActive
		}
		if err != nil {
			p.err = fmt.Errorf("coll: persistent operation poisoned by failed activation: %w", err)
			return nil, p.err
		}
	}
	p.s.rearm()
	p.active = p.s.req
	sharedPool.enqueue(p.s)
	return p.active, nil
}

// Free retires the operation. The current activation, if any, is left
// to complete; further Starts fail.
func (p *Persistent) Free() {
	p.mu.Lock()
	p.freed = true
	p.mu.Unlock()
}

// ---------------------------------------------------------------------
// Persistent constructors, one per collective. Each mints its instance
// (so Init calls follow the same program-order rule as the collectives
// themselves), validates once, and compiles the schedule against the
// caller's pointers.
// ---------------------------------------------------------------------

// BarrierInit builds a persistent barrier.
func (c *Comm) BarrierInit() *Persistent {
	s := c.newSched()
	c.addBarrierSteps(s)
	return &Persistent{s: s}
}

// BcastInit builds a persistent broadcast: each activation distributes
// *data (re-read at Start) from root, completing with the payload
// ([]byte) on every member.
func (c *Comm) BcastInit(root int, data *[]byte) (*Persistent, error) {
	s := c.newSched() // mint the instance before validation
	if err := c.check(root); err != nil {
		return nil, err
	}
	c.addBcastSteps(s, root, data)
	s.publish(func() any { return *data })
	return &Persistent{s: s}, nil
}

// GatherInit builds a persistent gather of *mine toward root; each
// activation completes with the per-rank blocks ([][]byte) at root.
func (c *Comm) GatherInit(root int, mine *[]byte) (*Persistent, error) {
	s := c.newSched() // mint the instance before validation
	if err := c.check(root); err != nil {
		return nil, err
	}
	var blocks [][]byte
	c.addGatherSteps(s, root, mine, &blocks)
	s.publish(func() any { return blocks })
	return &Persistent{s: s}, nil
}

// AllgatherInit builds a persistent allgather of *mine; each activation
// completes with every member's block ([][]byte).
func (c *Comm) AllgatherInit(mine *[]byte) *Persistent {
	s := c.newSched()
	var blocks [][]byte
	c.addAllgatherSteps(s, mine, &blocks)
	s.publish(func() any { return blocks })
	return &Persistent{s: s}
}
