package coll

import (
	"runtime"
	"sync"

	"gompi/internal/obs"
)

// progressPool executes started and persistent collective schedules on
// a small shared set of workers, O(cores) for the whole process no matter how many
// communicators or in-flight collectives exist. Schedules never block a
// worker waiting for a message: they park (see sched.park) and are
// re-enqueued by the engine's completion callback, so a bounded worker
// set cannot deadlock on cross-rank message dependencies — a parked
// schedule occupies no worker at all.
type progressPool struct {
	mu      sync.Mutex
	cond    *sync.Cond
	q       []*sched // FIFO of runnable schedules
	head    int
	idle    int // workers blocked waiting for work
	workers int // workers spawned so far, capped at max
	max     int

	// busy is the workers currently executing a schedule, and its peak
	// the high water mark over the process lifetime: tracked outside the
	// pool lock so the pvar surface never contends with dispatch.
	busy obs.Gauge
}

// sharedPool is the process-wide pool. Workers are spawned lazily, up
// to GOMAXPROCS, and persist for the life of the process.
var sharedPool = func() *progressPool {
	p := &progressPool{max: runtime.GOMAXPROCS(0)}
	if p.max < 1 {
		p.max = 1
	}
	p.cond = sync.NewCond(&p.mu)
	return p
}()

// MaxPoolWorkers reports the pool's worker cap (for tests asserting the
// O(cores) goroutine bound).
func MaxPoolWorkers() int {
	sharedPool.mu.Lock()
	defer sharedPool.mu.Unlock()
	return sharedPool.max
}

// SetMaxPoolWorkers raises or lowers the pool's worker cap (the
// "coll.pool_max_workers" control variable). Lowering the cap does not
// kill workers already spawned — they drain and idle — but no new ones
// start above it.
func SetMaxPoolWorkers(n int) {
	if n < 1 {
		n = 1
	}
	sharedPool.mu.Lock()
	sharedPool.max = n
	sharedPool.mu.Unlock()
}

// PoolVars reads the shared pool's occupancy as performance variables:
// "coll.pool_workers" is the workers spawned so far (aux: the cap),
// "coll.pool_workers_busy" those executing a schedule now (aux: the
// lifetime peak). The pool is process-wide: in-process multi-rank runs
// see one pool serving every rank.
func PoolVars() []obs.VarValue {
	p := sharedPool
	p.mu.Lock()
	workers, max := p.workers, p.max
	p.mu.Unlock()
	return []obs.VarValue{
		{Name: "coll.pool_workers", Class: "gauge", Value: int64(workers), Aux: int64(max)},
		{Name: "coll.pool_workers_busy", Class: "gauge", Value: p.busy.Load(), Aux: p.busy.Peak()},
	}
}

// enqueue makes s runnable. It never blocks and takes only the pool's
// own lock: completion callbacks invoke it under the engine lock.
func (p *progressPool) enqueue(s *sched) {
	p.mu.Lock()
	p.q = append(p.q, s)
	switch {
	case p.idle > 0:
		p.cond.Signal()
	case p.workers < p.max:
		p.workers++
		go p.worker()
	}
	p.mu.Unlock()
}

func (p *progressPool) worker() {
	p.mu.Lock()
	for {
		for p.head == len(p.q) {
			p.q = p.q[:0]
			p.head = 0
			p.idle++
			p.cond.Wait()
			p.idle--
		}
		s := p.q[p.head]
		p.q[p.head] = nil
		p.head++
		p.mu.Unlock()
		p.busy.Add(1)
		s.run()
		p.busy.Add(-1)
		p.mu.Lock()
	}
}
