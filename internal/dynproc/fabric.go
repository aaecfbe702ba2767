package dynproc

import (
	"fmt"
	"sync"

	"gompi/internal/core"
	"gompi/internal/obs"
	"gompi/internal/transport"
)

// Fabric is one process's side of the join protocol: its identity
// (GUID), the world epoch, the rendezvous listener with its open ports
// and parked dial-ins, and the table of peers already admitted. It
// carries no traffic: an admitted connection is handed to the rank's
// transport.Mux (Join), whose Size grows under the engine.
type Fabric struct {
	mux  *transport.Mux
	guid string

	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup // the accept loop

	mu     sync.Mutex
	ln     *transport.Listener
	lnAddr string
	byGUID map[string]int // admitted peer → its world rank in mux
	epoch  int
	ports  map[string]*Port // capability key → open port
	joins  map[uint64]*pendingJoin

	// rec is the rank's flight recorder (nil = tracing disabled); the
	// join/admit handshakes record spans on it. Set once at wiring
	// time, before any handshake can run.
	rec *obs.Recorder
}

// NewFabric starts the join side of the endpoint whose traffic mux
// carries. The caller keeps ownership of mux and closes both.
func NewFabric(mux *transport.Mux) *Fabric {
	return &Fabric{
		mux:    mux,
		guid:   newGUID(),
		done:   make(chan struct{}),
		byGUID: map[string]int{},
	}
}

// GUID returns this process endpoint's globally unique id.
func (f *Fabric) GUID() string { return f.guid }

// SetRecorder attaches the rank's flight recorder. Call before the
// first Connect/Accept; a nil recorder keeps tracing disabled.
func (f *Fabric) SetRecorder(r *obs.Recorder) { f.rec = r }

// Epoch returns the world epoch: the number of joins admitted so far.
func (f *Fabric) Epoch() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.epoch
}

// EnsureListener starts the rendezvous listener on first use and
// returns its address. One listener serves every port and join of this
// process for the life of the fabric.
func (f *Fabric) EnsureListener() (string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	select {
	case <-f.done:
		return "", transport.ErrClosed
	default:
	}
	if f.ln != nil {
		return f.lnAddr, nil
	}
	ln, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("dynproc: rendezvous listener: %w", err)
	}
	f.ln = ln
	f.lnAddr = ln.Addr()
	f.wg.Add(1)
	go f.acceptLoop(ln)
	return f.lnAddr, nil
}

// Close tears the join side down: rendezvous listener, open ports,
// parked joins. Links already admitted belong to the mux.
func (f *Fabric) Close() {
	f.closeOnce.Do(func() {
		f.mu.Lock()
		close(f.done) // under mu: EnsureListener starts no listener Close will not see
		ln := f.ln
		ports := f.ports
		joins := f.joins
		f.ports = nil
		f.joins = nil
		f.mu.Unlock()
		if ln != nil {
			ln.Close()
		}
		for _, p := range ports {
			p.drain("world shut down")
		}
		for _, pj := range joins {
			pj.closeAll()
		}
		f.wg.Wait()
	})
}

// lookupGUID reports whether a peer is already admitted, and if so at
// which world rank and whether its link is still alive.
func (f *Fabric) lookupGUID(guid string) (idx int, alive, known bool) {
	f.mu.Lock()
	idx, known = f.byGUID[guid]
	f.mu.Unlock()
	return idx, known && !f.mux.Lost(idx), known
}

// attach admits one connection as the next world rank, with the engine's
// own source-rank rewrite as the stamp Mux.Join asks for.
func (f *Fabric) attach(guid string, c transport.Conn) (int, error) {
	idx, err := f.mux.Join(c, core.PatchFrameSource)
	if err != nil {
		return 0, err
	}
	f.mu.Lock()
	f.byGUID[guid] = idx
	f.mu.Unlock()
	return idx, nil
}
