// Package obs is the runtime observability substrate: an MPI_T-style
// registry of performance variables (counters and gauges), plus a
// per-rank lock-free flight recorder (trace.go) whose merged output
// mpirun renders as a Chrome trace. There are no writable control
// variables: protocol settings such as the eager limit are fixed when
// a rank's engine is built, and the registry only reports them.
//
// The registry follows the MPI-4 tools-information direction: variables
// self-register by name, enumeration is cheap and read-only, and the
// registry is the only place a runtime counter is read — there is no
// struct copy of it. Values kept outside it (a transport's per-medium
// counters, a process-wide pool) join as a Source, read on demand.
// Every variable is safe for concurrent update and read; updates are
// single atomic operations so they can sit on the message hot path.
package obs

import (
	"maps"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonic performance variable.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an up/down performance variable that tracks its peak.
type Gauge struct{ cur, peak atomic.Int64 }

// Add moves the gauge by d and returns the new value, updating the peak.
func (g *Gauge) Add(d int64) int64 {
	n := g.cur.Add(d)
	for {
		p := g.peak.Load()
		if n <= p || g.peak.CompareAndSwap(p, n) {
			return n
		}
	}
}

// Set stores v, updating the peak.
func (g *Gauge) Set(v int64) {
	g.cur.Store(v)
	for {
		p := g.peak.Load()
		if v <= p || g.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.cur.Load() }

// Peak returns the largest value the gauge has held.
func (g *Gauge) Peak() int64 { return g.peak.Load() }

// VarValue is one performance variable's read-out.
type VarValue struct {
	Name  string `json:"name"`
	Class string `json:"class"` // "counter" or "gauge"
	// Value is the counter count or the gauge's current value.
	Value int64 `json:"value"`
	// Aux is the gauge's peak; zero for counters.
	Aux int64 `json:"aux,omitempty"`
}

// Registry holds one rank's performance variables.
// Creation is get-or-create by name, so layers self-register without
// coordination; reads never block updates.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	sources  map[string]func() []VarValue
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		sources:  make(map[string]func() []VarValue),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Source installs (or replaces) fn under key: read-only variables kept
// outside the registry, computed by fn whenever they are enumerated or
// read. Installing the same key again replaces the source, so a layer
// may register it from every instance it builds.
func (r *Registry) Source(key string, fn func() []VarValue) {
	r.mu.Lock()
	r.sources[key] = fn
	r.mu.Unlock()
}

// Value reads one performance variable by name (counter count or gauge
// current value); ok is false when no variable has that name. Sources
// are consulted only after the named variables.
func (r *Registry) Value(name string) (v int64, ok bool) {
	r.mu.Lock()
	c, g := r.counters[name], r.gauges[name]
	r.mu.Unlock()
	switch {
	case c != nil:
		return int64(c.Load()), true
	case g != nil:
		return g.Load(), true
	}
	for _, v := range r.sourced() {
		if v.Name == name {
			return v.Value, true
		}
	}
	return 0, false
}

// sourced computes every source's variables, outside the registry's
// lock.
func (r *Registry) sourced() (out []VarValue) {
	r.mu.Lock()
	fns := maps.Clone(r.sources)
	r.mu.Unlock()
	for _, fn := range fns {
		out = append(out, fn()...)
	}
	return out
}

// Snapshot enumerates every performance variable, sorted by name.
func (r *Registry) Snapshot() []VarValue {
	r.mu.Lock()
	out := make([]VarValue, 0, len(r.counters)+len(r.gauges))
	for n, c := range r.counters {
		out = append(out, VarValue{Name: n, Class: "counter", Value: int64(c.Load())})
	}
	for n, g := range r.gauges {
		out = append(out, VarValue{Name: n, Class: "gauge", Value: g.Load(), Aux: g.Peak()})
	}
	r.mu.Unlock()
	out = append(out, r.sourced()...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
