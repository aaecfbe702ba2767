package transport

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// JobSpec describes one rank's place in a job to a device factory: the
// world geometry plus whatever fabric resources the launcher prepared
// (a rendezvous coordinator for socket meshes, a shared-memory segment
// for same-node ranks). Factories use the fields they need and probe
// for the ones they require.
type JobSpec struct {
	// Rank and Size are the world geometry.
	Rank, Size int
	// Coord is the launch coordinator's address, used by socket media
	// to exchange per-rank listener addresses. Empty when the launcher
	// provided no coordinator (e.g. a pure shared-memory job).
	Coord string
	// Segment is the path of the shared-memory segment this rank may
	// attach, or empty if the launcher created none.
	Segment string
	// SegmentRanks lists the world ranks attached to Segment (this
	// rank's same-node peer set), in slot order.
	SegmentRanks []int
	// InboxDepth overrides a device's flow-control window in frames
	// (<= 0 selects the device default).
	InboxDepth int
}

// LocalPeers reports whether world rank r is reachable through the
// spec's shared segment.
func (s JobSpec) LocalPeers() map[int]bool {
	m := make(map[int]bool, len(s.SegmentRanks))
	for _, r := range s.SegmentRanks {
		m[r] = true
	}
	return m
}

// Entry is one registered device medium.
type Entry struct {
	// Name is the registry key (the -device flag value).
	Name string
	// Probe reports whether the medium can serve the spec; nil means
	// always available. Selection logic (the "auto" medium) uses it to
	// pick the fastest usable fabric.
	Probe func(JobSpec) error
	// New constructs this rank's endpoint.
	New func(JobSpec) (Device, error)
}

var (
	regMu sync.RWMutex
	reg   = map[string]Entry{}
)

// Register adds a device medium to the registry. Registering a name
// twice panics: media are wired up in package init functions, where a
// collision is a programming error worth failing loudly on.
func Register(e Entry) {
	if e.Name == "" || e.New == nil {
		panic("transport: Register needs a name and a constructor")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := reg[e.Name]; dup {
		panic(fmt.Sprintf("transport: device %q registered twice", e.Name))
	}
	reg[e.Name] = e
}

// Lookup returns the entry registered under name.
func Lookup(name string) (Entry, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	e, ok := reg[name]
	return e, ok
}

// Names returns the registered medium names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(reg))
	for n := range reg {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// FaultyPrefix is the media-name decorator that wraps any registered
// medium with the fault-injection layer: "faulty:shm" builds the shm
// endpoint, then applies the FaultPlan from the GOMPI_FAULT environment
// variable (see ParseFaultPlan). Ranks outside the plan's rank filter
// get the inner device untouched, so one exported variable injects a
// fault into exactly one rank of a whole job.
const FaultyPrefix = "faulty:"

// NewDevice probes and constructs the named medium for spec. A
// FaultyPrefix on the name decorates the constructed endpoint with the
// fault-injection plan from the environment.
func NewDevice(name string, spec JobSpec) (Device, error) {
	if inner, ok := strings.CutPrefix(name, FaultyPrefix); ok {
		plan, err := ParseFaultPlan(os.Getenv(EnvFault))
		if err != nil {
			return nil, err
		}
		dev, err := NewDevice(inner, spec)
		if err != nil {
			return nil, err
		}
		return NewFaulty(dev, plan), nil
	}
	e, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("transport: unknown device %q (have %v)", name, Names())
	}
	if e.Probe != nil {
		if err := e.Probe(spec); err != nil {
			return nil, fmt.Errorf("transport: device %q unavailable: %w", name, err)
		}
	}
	return e.New(spec)
}

// DevStats is one medium's traffic counters: the per-device dimension
// of the engine's observability surface. Pool describes the frame-pool
// the medium draws payload buffers from (the process-private pool for
// in-process and socket media, the shared-segment arena for shmipc), so
// hit rates are attributable per medium.
type DevStats struct {
	// Name is the medium ("chan", "tcp", "shm", ...).
	Name string
	// FramesSent/FramesRecv count frames through this endpoint.
	FramesSent, FramesRecv uint64
	// BytesSent/BytesRecv total frame bytes (header + payload).
	BytesSent, BytesRecv uint64
	// Pool is the medium's buffer-pool counter snapshot.
	Pool PoolSnapshot
}

// devCounters is the embeddable atomic counter block behind DevStats.
type devCounters struct {
	framesSent, framesRecv atomic.Uint64
	bytesSent, bytesRecv   atomic.Uint64
}

func (c *devCounters) countSend(n int) {
	c.framesSent.Add(1)
	c.bytesSent.Add(uint64(n))
}

func (c *devCounters) countRecv(n int) {
	c.framesRecv.Add(1)
	c.bytesRecv.Add(uint64(n))
}

func (c *devCounters) stats(name string, pool PoolSnapshot) DevStats {
	return DevStats{
		Name:       name,
		FramesSent: c.framesSent.Load(),
		FramesRecv: c.framesRecv.Load(),
		BytesSent:  c.bytesSent.Load(),
		BytesRecv:  c.bytesRecv.Load(),
		Pool:       pool,
	}
}
