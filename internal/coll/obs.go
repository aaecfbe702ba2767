package coll

import (
	"sync"

	"gompi/internal/obs"
)

// commObs caches the collective layer's performance-variable handles so
// the schedule executor touches atomics, not the registry's map+mutex.
// The counters live in the rank's registry under "coll.*" — every
// communicator of a rank shares them — and the zero value is usable, so
// Comm remains constructible by struct literal.
type commObs struct {
	once      sync.Once
	started   *obs.Counter // schedule activations armed
	parked    *obs.Counter // times an activation had to wait for a message, whoever drives it
	resumed   *obs.Counter // times a parked activation became runnable again
	reduced   *obs.Counter // bytes folded by reduction kernels, one bump per kernel call; an island fold charges each member what its message schedule would have folded
	folds     *obs.Counter // island folds this rank settled, as the member that folded their last chunk
	helped    *obs.Counter // island chunks this rank folded in a fold another member opened
	abandoned *obs.Counter // times this rank left an island instance before its fold
}

// Warm forces the lazy registration of the collective layer's
// performance variables, so enumeration is complete before any
// collective has run.
func (c *Comm) Warm() { c.vars() }

// vars resolves (once) this communicator's handles in the rank's
// registry.
func (c *Comm) vars() *commObs {
	c.obs.once.Do(func() {
		reg := c.P.Obs()
		c.obs.started = reg.Counter("coll.scheds_started")
		c.obs.parked = reg.Counter("coll.scheds_parked")
		c.obs.resumed = reg.Counter("coll.scheds_resumed")
		c.obs.reduced = reg.Counter("coll.bytes_reduced")
		c.obs.folds = reg.Counter("coll.island_folds")
		c.obs.helped = reg.Counter("coll.island_chunks_helped")
		c.obs.abandoned = reg.Counter("coll.island_abandoned")
	})
	return &c.obs
}
