package coll

import (
	"fmt"
	"sync"
)

// Persistent is a cached, re-runnable collective schedule — the engine
// half of MPI-4 persistent collectives, made by Plan.Persist. The plan
// is built once (validation, tag minting, step compilation, in program
// order like any collective call) and then activated any number of
// times with Start, each activation running the frozen schedule, with
// near-zero setup cost, on whoever waits for it.
//
// The plan constructors take pointers to the operation's inputs: each
// activation re-reads them, so the binding layer can re-pack the user's
// (fixed) buffers before every Start — MPI's persistent-operation
// contract. Tags are minted once, in the persistent space (see
// Plan.Persist), and reused: a member must complete activation k before
// starting k+1 (Start enforces it locally), which keeps successive
// activations' traffic aligned pair-wise without new tags.
type Persistent struct {
	s *sched

	mu     sync.Mutex
	active *Request
	err    error // poisoned: set once the operation can no longer restart
	freed  bool
}

// Start begins a new activation, running its steps on the caller up to
// the first wait for a message, and returns its request. The previous
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
	p.active = p.s.start()
	return p.active, nil
}

// Free retires the operation. The current activation, if any, is left
// to complete; further Starts fail.
func (p *Persistent) Free() {
	p.mu.Lock()
	p.freed = true
	p.mu.Unlock()
}
