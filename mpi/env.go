// Package mpi is an object-oriented Go binding of MPI 1.1 modelled on
// mpiJava (Baker, Carpenter, Fox, Ko, Lim — IPPS 1999), which in turn
// lifts its class hierarchy from the MPI-2 C++ binding:
//
//	MPI (module)  -> package mpi + the per-rank *Env handle
//	Comm          -> Comm, with Intracomm, Intercomm, Cartcomm, Graphcomm
//	Group, Datatype, Status, Request, Op -> same-named types
//	Prequest      -> PersistentRequest
//
// Communication calls keep the binding's (buf, offset, count, datatype,
// rank, tag) signatures over one-dimensional slices of primitive types.
// Following the Java binding's conventions (paper §2.1): outputs come
// back as return values, conditionally created objects are nil handles on
// failure, array results carry their own lengths, and Status has the
// extra Index field set by WaitAny/TestAny. Go's error returns replace
// the Java binding's exceptions.
//
// Where mpiJava wraps a native MPI through JNI, this package sits on a
// from-scratch runtime: internal/core (matching + protocols),
// internal/coll (collective algorithms) and internal/transport (shared
// memory and TCP devices — the paper's SM and DM modes).
package mpi

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"gompi/internal/core"
	"gompi/internal/dynproc"
	"gompi/internal/obs"
	"gompi/internal/transport"
)

// Special rank and argument values (MPI 1.1 §3.2.4, §5).
const (
	// ProcNull is the null process: sends to it succeed immediately,
	// receives from it return an empty status.
	ProcNull = -1
	// AnySource matches a message from any source rank.
	AnySource = -2
	// AnyTag matches a message with any tag.
	AnyTag = -1
	// Undefined is returned where MPI specifies MPI_UNDEFINED (e.g.
	// GetCount on a partial item, Split colour for "no new comm").
	Undefined = -32766
	// TagUB is the largest valid user tag.
	TagUB = 1<<30 - 1
)

// Comm comparison results (MPI_Comm_compare / MPI_Group_compare).
const (
	Ident     = 0 // same object
	Congruent = 1 // same group and order, different context
	Similar   = 2 // same members, different order
	Unequal   = 3
)

// Topology type constants (MPI_Topo_test).
const (
	GraphTopology = 1
	CartTopology  = 2
)

// Env is one rank's MPI environment: the analogue of the static MPI
// class of the Java binding, made per-rank so that SM mode can run many
// ranks as goroutines in one process. It is created by Init (process
// mode) or handed to each rank's function by Run (in-process SPMD mode).
type Env struct {
	proc  *core.Proc
	fab   *dynproc.Fabric
	world *Intracomm
	self  *Intracomm

	start    time.Time
	procName string

	pool attachPool

	// Dynamic-process state (dynproc.go): open rendezvous ports by
	// name, and the cached connection to a spawning parent world.
	portsMu   sync.Mutex
	ports     map[string]*dynproc.Port
	parentSet sync.Once
	parent    *Intercomm
	parentErr error

	finalized atomic.Bool
	closers   []func() error // extra teardown (launch plumbing)
}

// newEnv assembles an environment over a device. The engine reads it
// through a transport.Mux — the device itself when it already is one (a
// chan, tcp or hybrid job's endpoint), so no frame crosses two channels
// — and peers admitted after launch (Connect/Accept/Spawn) join that
// same mux, where the engine reaches them exactly like launch-time ones.
func newEnv(dev transport.Device, cfg core.Config) *Env {
	host, _ := os.Hostname()
	if host == "" {
		host = "localhost"
	}
	mux := transport.MuxOver(dev)
	fab := dynproc.NewFabric(mux)
	fab.SetRecorder(cfg.Recorder)
	e := &Env{
		proc:     core.NewProc(mux, cfg),
		fab:      fab,
		start:    time.Now(),
		procName: fmt.Sprintf("%s:rank%d", host, dev.Rank()),
	}
	e.pool.cond = sync.NewCond(&e.pool.mu)
	worldGroup := make([]int, dev.Size())
	for i := range worldGroup {
		worldGroup[i] = i
	}
	e.world = newIntracomm(e, worldGroup, dev.Rank(), 0, "MPI.COMM_WORLD")
	e.self = newIntracomm(e, []int{dev.Rank()}, 0, 2, "MPI.COMM_SELF")
	e.proc.CommitContexts(2) // world:(0,1) self:(2,3); counter continues at 4
	e.world.cl.Warm()        // the coll.* variables are listed before any collective
	installEnvAttrs(e.world)
	return e
}

// CommWorld returns the all-ranks communicator (MPI.COMM_WORLD).
func (e *Env) CommWorld() *Intracomm { return e.world }

// CommSelf returns the single-process communicator (MPI.COMM_SELF).
func (e *Env) CommSelf() *Intracomm { return e.self }

// Rank is shorthand for CommWorld().Rank().
func (e *Env) Rank() int { return e.proc.Rank() }

// Size is shorthand for CommWorld().Size().
func (e *Env) Size() int { return e.proc.Size() }

// Wtime returns elapsed wall-clock seconds from an arbitrary (per-rank)
// origin, on Go's monotonic clock (MPI_Wtime).
func (e *Env) Wtime() float64 { return time.Since(e.start).Seconds() }

// Wtick returns the resolution of Wtime in seconds (MPI_Wtick).
func (e *Env) Wtick() float64 { return 1e-9 }

// GetProcessorName identifies the processor this rank runs on
// (MPI_Get_processor_name).
func (e *Env) GetProcessorName() string { return e.procName }

// Initialized reports whether the environment is live
// (MPI_Initialized && !MPI_Finalized).
func (e *Env) Initialized() bool { return !e.finalized.Load() }

// Finalize runs a world barrier and shuts the runtime down (paper §2.1:
// Comm and Request keep explicit Free; everything else is left to the
// garbage collector, as in the Java binding).
func (e *Env) Finalize() error {
	if e.finalized.Swap(true) {
		return errf(ErrOther, "Finalize called twice")
	}
	// The closing barrier keeps a fast rank from tearing the fabric down
	// under peers still draining traffic. On a revoked world it can never
	// complete (and ULFM applications end on a shrunken communicator of
	// their own); skip straight to teardown.
	var barrierErr error
	if !e.proc.ContextRevoked(e.world.ptpCtx) {
		barrierErr = e.world.cl.Barrier()
	}
	e.proc.Recorder().Instant(obs.EvFinalize, uint32(e.proc.Rank()), 0)
	err := e.proc.Close() // closes the mux under the engine
	e.fab.Close()
	for _, c := range e.closers {
		if cerr := c(); err == nil {
			err = cerr
		}
	}
	// Environment-driven tracing (mpirun -trace, or a hand-exported
	// GOMPI_TRACE) flushes the ring here, after the engine is quiescent.
	// Programmatic traces (RunOptions.Trace without the env var) are
	// dumped by the caller via DumpTrace, so tests don't litter their
	// working directory.
	if e.proc.Recorder() != nil && obs.EnvEnabled() {
		if _, derr := e.proc.Recorder().DumpFile(obs.DirFromEnv()); derr != nil && err == nil {
			err = derr
		}
	}
	if barrierErr != nil {
		return barrierErr
	}
	return err
}

// attachPool is the Bsend attach-buffer accounting (MPI_Buffer_attach).
// The binding packs every outgoing message anyway, so the pool tracks
// capacity rather than owning storage.
type attachPool struct {
	mu    sync.Mutex
	cond  *sync.Cond
	total int
	used  int
}

// BufferAttach provides size bytes of buffer space for buffered-mode
// sends (MPI_Buffer_attach).
func (e *Env) BufferAttach(size int) error {
	if size < 0 {
		return errf(ErrArg, "negative buffer size %d", size)
	}
	e.pool.mu.Lock()
	defer e.pool.mu.Unlock()
	if e.pool.total > 0 {
		return errf(ErrBuffer, "a buffer is already attached")
	}
	e.pool.total = size
	return nil
}

// BufferDetach waits for all pending buffered sends to drain, detaches
// the buffer and returns its size (MPI_Buffer_detach).
func (e *Env) BufferDetach() (int, error) {
	e.pool.mu.Lock()
	defer e.pool.mu.Unlock()
	if e.pool.total == 0 {
		return 0, errf(ErrBuffer, "no buffer attached")
	}
	for e.pool.used > 0 {
		e.pool.cond.Wait()
	}
	n := e.pool.total
	e.pool.total = 0
	return n, nil
}

func (e *Env) reserveBuffer(n int) error {
	e.pool.mu.Lock()
	defer e.pool.mu.Unlock()
	if e.pool.used+n > e.pool.total {
		return errf(ErrBuffer, "buffered send of %d bytes exceeds attached buffer (%d of %d in use)",
			n, e.pool.used, e.pool.total)
	}
	e.pool.used += n
	return nil
}

func (e *Env) releaseBuffer(n int) {
	e.pool.mu.Lock()
	e.pool.used -= n
	e.pool.cond.Broadcast()
	e.pool.mu.Unlock()
}
