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
// building a schedule — libNBC's schedule cache. It keeps the CacheSize
// most recently used entries; a call of a shape it lacks builds a plan
// and adds it in place of the least recently used one. An entry is busy
// from the Take or Add that hands it to a call until that call's Done:
// a second call of the same shape in the meantime builds its own plan.
// Dropping an entry — evicted, pushed out, or cleared — only drops the
// cache's reference; it never touches a running schedule. The key must
// hold every value the plan's build read, or two members could run
// different schedules for one instance; Hash may be any function of the
// key, it only spares Equal calls. The zero value is an empty cache; its
// mutex is uncontended, since a communicator's collectives are called
// in one program order.
type Cache[K interface {
	Equal(K) bool
	Hash() uint64
}, V comparable] struct {
	mu   sync.Mutex
	tick uint64 // counts hand-outs, stamping each entry's last use
	ents []cacheEnt[K, V]
}

type cacheEnt[K any, V comparable] struct {
	key  K
	hash uint64
	val  V
	busy bool
	used uint64 // tick of the entry's last hand-out
}

// Take hands out an idle entry built for key, marked busy and most
// recently used; ok is false when there is none.
func (c *Cache[K, V]) Take(key K) (v V, ok bool) {
	h := key.Hash()
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.ents {
		if e := &c.ents[i]; !e.busy && e.hash == h && e.key.Equal(key) {
			c.tick++
			e.busy, e.used = true, c.tick
			return e.val, true
		}
	}
	return v, false
}

// Add caches v, just built for key, busy, as the most recently used
// entry, in place of the least recently used one when the cache is full.
func (c *Cache[K, V]) Add(key K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tick++
	e, lru := cacheEnt[K, V]{key, key.Hash(), v, true, c.tick}, 0
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
func (c *Cache[K, V]) Done(v V, reuse bool) {
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
func (c *Cache[K, V]) Clear() {
	c.mu.Lock()
	c.ents = nil
	c.mu.Unlock()
}

// Len is the number of entries cached.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.ents)
}
