package coll

import (
	"slices"
	"sync"
)

// CacheSize is how many built plans a Cache keeps.
const CacheSize = 8

// Cache is a communicator's store of built, re-runnable plans, keyed by
// the shape of the call that built them, so a later call of the same
// shape re-arms one (Plan.Rearm) and binds its own buffers instead of
// building a schedule — libNBC's schedule cache. Each Comm holds one,
// behind Cached, which the binding's collectives and the runtime's own
// Allreduce share. It keeps the CacheSize most recently used entries,
// found by Equal; a call of a shape it lacks builds a plan and adds it
// in place of the least recently used one. An entry is busy from the
// Take or Add that hands it to a call until that call's Done: a second
// call of the same shape in the meantime builds its own plan. Dropping
// an entry — evicted, pushed out, or cleared — only drops the cache's
// reference; it never touches a running schedule. The key must hold
// every value the plan's build read, or two members could run different
// schedules for one instance. Keys travel by pointer: a lookup copies
// none, and an entry keeps the copy Cached makes when it adds one. The
// zero value is an empty cache; its mutex is uncontended, since a
// communicator's collectives are called in one program order.
type Cache struct {
	mu   sync.Mutex
	tick uint64 // counts hand-outs, stamping each entry's last use
	ents []cacheEnt
}

type cacheEnt struct {
	key  *Key
	val  *Plan
	busy bool
	used uint64 // tick of the entry's last hand-out
}

// Take hands out an idle entry built for key, marked busy and most
// recently used; ok is false when there is none.
func (c *Cache) Take(key *Key) (v *Plan, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.ents {
		if e := &c.ents[i]; !e.busy && e.key.Equal(key) {
			c.tick++
			e.busy, e.used = true, c.tick
			return e.val, true
		}
	}
	return nil, false
}

// Add caches v, just built for key, busy, as the most recently used
// entry, in place of the least recently used one when the cache is full.
// The entry keeps key, which the caller must not change afterwards.
func (c *Cache) Add(key *Key, v *Plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tick++
	e, lru := cacheEnt{key, v, true, c.tick}, 0
	if len(c.ents) < CacheSize {
		c.ents = append(c.ents, e)
		return
	}
	for i := range c.ents {
		if c.ents[i].used < c.ents[lru].used {
			lru = i
		}
	}
	c.ents[lru] = e
}

// Done ends the call v was handed to: idle again when reuse is set,
// evicted otherwise (a failed or abandoned activation), so the next
// call of its shape builds afresh. An entry no longer cached is left
// alone.
func (c *Cache) Done(v *Plan, reuse bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.ents {
		if c.ents[i].val == v {
			if reuse {
				c.ents[i].busy = false
			} else {
				c.ents = slices.Delete(c.ents, i, i+1)
			}
			return
		}
	}
}

// Clear drops every entry.
func (c *Cache) Clear() {
	c.mu.Lock()
	c.ents = nil
	c.mu.Unlock()
}

// Len is the number of entries cached.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.ents)
}

// Key is a collective call's shape: which collective (Kind), and every
// value its plan's build reads — the root, the op, both datatypes'
// identities, the counts, a v-form's layouts, whether the accumulator is
// the receive buffer (Direct) and whether the contribution is read in
// place (Lent). A call may reuse a cached plan only under an equal key:
// one value left out, and two members could run different schedules
// for one instance. The engine's eager limit, which an allreduce also
// chooses its schedule by, is no field: it is fixed for the engine's
// life, so no cached plan goes stale against it. The datatypes are any
// comparable values; callers that share a cache name theirs by values
// of different types (the binding's datatypes, a dtype.Class), so
// their keys never meet.
type Key struct {
	Kind                 string
	Op                   *Op
	SD, RD               any
	Root, SCount, RCount int
	Send, Recv           *Layout
	Direct, Lent         bool
}

// Layout is a v-form's per-rank counts and displacements.
type Layout struct{ Counts, Displs []int }

func (l *Layout) equal(o *Layout) bool {
	return l == o || l != nil && o != nil && slices.Equal(l.Counts, o.Counts) && slices.Equal(l.Displs, o.Displs)
}

func (l *Layout) clone() *Layout {
	if l == nil {
		return nil
	}
	return &Layout{slices.Clone(l.Counts), slices.Clone(l.Displs)}
}

// Equal compares the layouts by content and every other field by value.
func (k *Key) Equal(o *Key) bool {
	return k.Kind == o.Kind && k.Op == o.Op && k.SD == o.SD && k.RD == o.RD &&
		k.Root == o.Root && k.SCount == o.SCount && k.RCount == o.RCount &&
		k.Direct == o.Direct && k.Lent == o.Lent &&
		k.Send.equal(o.Send) && k.Recv.equal(o.Recv)
}

// Cached returns the plan of a validated call of shape key: the
// communicator's idle plan of that shape, re-armed, or else the one
// build makes, which the cache keeps. Either way the call mints exactly
// one instance, in program order: the re-arm, or the NewPlan inside
// build. The caller finds what it bound to the plan in Plan.Bound, binds
// the call to it, and ends the call with Plan.Done.
func (c *Comm) Cached(key *Key, build func() (*Plan, error)) (*Plan, error) {
	if p, ok := c.plans.Take(key); ok {
		p.Rearm()
		return p, nil
	}
	p, err := build()
	if err != nil {
		return nil, err
	}
	kept := *key
	kept.Send, kept.Recv = key.Send.clone(), key.Recv.clone()
	c.plans.Add(&kept, p)
	return p, nil
}

// CachedPlans is how many plans the communicator's cache holds.
func (c *Comm) CachedPlans() int { return c.plans.Len() }
