package coll

import (
	"fmt"
	"reflect"
	"testing"
)

// toyKey is the key of shape n: they differ by root only.
func toyKey(n int) *Key { return &Key{Kind: "toy", Root: n} }

// TestCacheBusyLRUEvict: an entry is handed to one call at a time, comes
// back idle on a good Done and leaves on a bad one; beyond CacheSize the
// least recently used entry goes; Clear empties the cache.
func TestCacheBusyLRUEvict(t *testing.T) {
	var c Cache
	vals := make([]*Plan, CacheSize+2)
	for i := range vals {
		vals[i] = new(Plan)
	}
	if _, ok := c.Take(toyKey(0)); ok {
		t.Fatal("Take from an empty cache")
	}
	c.Add(toyKey(0), vals[0])
	if _, ok := c.Take(toyKey(0)); ok {
		t.Fatal("a busy entry was handed out twice")
	}
	c.Done(vals[0], true)
	if v, ok := c.Take(toyKey(0)); !ok || v != vals[0] {
		t.Fatalf("Take after Done = %v, %v", v, ok)
	}
	c.Done(vals[0], false)
	if _, ok := c.Take(toyKey(0)); ok || c.Len() != 0 {
		t.Fatalf("an evicted entry is still cached (len %d)", c.Len())
	}

	for i := 0; i < CacheSize; i++ {
		c.Add(toyKey(i), vals[i])
		c.Done(vals[i], true)
	}
	if v, ok := c.Take(toyKey(0)); !ok || v != vals[0] { // now the most recently used
		t.Fatalf("Take(0) = %v, %v", v, ok)
	}
	c.Done(vals[0], true)
	c.Add(toyKey(CacheSize), vals[CacheSize]) // pushes out 1, the least recently used
	c.Done(vals[CacheSize], true)
	if c.Len() != CacheSize {
		t.Fatalf("len %d, want %d", c.Len(), CacheSize)
	}
	if _, ok := c.Take(toyKey(1)); ok {
		t.Fatal("the least recently used entry survived a full cache's Add")
	}
	for _, n := range []int{0, 2, CacheSize} {
		v, ok := c.Take(toyKey(n))
		if !ok || v != vals[n] {
			t.Fatalf("Take(%d) = %v, %v", n, v, ok)
		}
		c.Done(v, true)
	}
	c.Done(vals[1], true) // no longer cached: left alone
	c.Clear()
	if c.Len() != 0 {
		t.Fatalf("len %d after Clear", c.Len())
	}
}

// TestKeyEqualReadsEveryField: keys that differ in any one field are
// unequal, and layouts compare by content. The mutators are counted
// against Key's fields, so a field added to Key must join Equal here.
func TestKeyEqualReadsEveryField(t *testing.T) {
	base := func() *Key {
		return &Key{Kind: "k", Op: Sum, SD: 1, RD: 2, Root: 1, SCount: 3, RCount: 4,
			Send: &Layout{[]int{1}, []int{0}}, Recv: &Layout{[]int{2}, []int{0}}}
	}
	muts := []func(k *Key){
		func(k *Key) { k.Kind = "other" },
		func(k *Key) { k.Op = Max },
		func(k *Key) { k.SD = "1" },
		func(k *Key) { k.RD = 3 },
		func(k *Key) { k.Root = 0 },
		func(k *Key) { k.SCount = 0 },
		func(k *Key) { k.RCount = 0 },
		func(k *Key) { k.Send.Counts = []int{9} },
		func(k *Key) { k.Recv = nil },
		func(k *Key) { k.Direct = true },
		func(k *Key) { k.Lent = true },
	}
	if n := reflect.TypeOf(Key{}).NumField(); len(muts) != n {
		t.Fatalf("%d mutators for Key's %d fields", len(muts), n)
	}
	if a, b := base(), base(); !a.Equal(b) {
		t.Fatal("equal keys with distinct layouts of equal content compare unequal")
	}
	for i, mut := range muts {
		k := base()
		mut(k)
		if base().Equal(k) || k.Equal(base()) {
			t.Errorf("mutator %d: keys compare equal", i)
		}
	}
}

// TestAllreduceCachesItsPlan: the runtime's dense Allreduce re-arms one
// plan per shape, builds another when the shape changes, returns a
// fresh result slice every call, and DropPlans empties the cache.
func TestAllreduceCachesItsPlan(t *testing.T) {
	runGroup(t, 4, func(c *Comm) (any, error) {
		var prev []float64
		for call, n := range []int{16, 16, 8, 8, 16} {
			mine := make([]float64, n)
			for i := range mine {
				mine[i] = float64(c.Rank + call)
			}
			got, err := c.Allreduce(mine, Sum)
			if err != nil {
				return nil, err
			}
			out := got.([]float64)
			if want := float64(6 + 4*call); len(out) != n || out[0] != want || out[n-1] != want {
				return nil, fmt.Errorf("rank %d call %d: %v, want %v", c.Rank, call, out, want)
			}
			if prev != nil && &prev[0] == &out[0] {
				return nil, fmt.Errorf("rank %d call %d: result slice reused", c.Rank, call)
			}
			prev = out
		}
		if n := c.CachedPlans(); n != 2 {
			return nil, fmt.Errorf("rank %d: %d cached plans, want 2", c.Rank, n)
		}
		c.DropPlans()
		if n := c.CachedPlans(); n != 0 {
			return nil, fmt.Errorf("rank %d: %d cached plans after DropPlans", c.Rank, n)
		}
		return nil, nil
	})
}
