package obs

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// The flight recorder: a fixed-size ring of binary trace events,
// recorded through a single atomic cursor bump per event, so it can sit
// inside the engine's matching paths without a lock. When the ring
// wraps, the newest events win — after an incident the tail of the
// flight is what matters. A nil *Recorder is the disabled state: every
// record method is a nil-check away from free, so instrumented code
// holds the pointer unconditionally and pays one predictable branch
// when tracing is off.

// Environment switches. mpirun -trace sets all of them for its workers;
// users can export GOMPI_TRACE=1 by hand for a single process.
const (
	// EnvTrace enables the flight recorder ("1", "true", ...).
	EnvTrace = "GOMPI_TRACE"
	// EnvTraceDir is the directory Finalize dumps per-rank trace files
	// into (default: the working directory).
	EnvTraceDir = "GOMPI_TRACE_DIR"
	// EnvTraceEvents overrides the ring capacity in events.
	EnvTraceEvents = "GOMPI_TRACE_EVENTS"
)

// DefaultRingEvents is the default ring capacity (events are 24 bytes,
// so the default ring is ~1.5 MiB per rank).
const DefaultRingEvents = 1 << 16

// EventKind identifies what happened. Kinds are stable wire values:
// the merger maps them to names and subsystems (see kindInfo).
type EventKind uint16

// Event kinds, grouped by subsystem.
const (
	EvNone EventKind = iota
	// core: protocol choice, matching, rendezvous, faults.
	EvSendEager      // instant; arg=dst world rank, val=payload bytes
	EvSendSync       // instant; arg=dst world rank, val=payload bytes
	EvSendRndv       // span; arg=send id (low 32), val=payload bytes; RTS out → CTS in
	EvRecvMatched    // instant; arg=src group rank, val=payload bytes
	EvRecvUnexpected // instant; arg=src group rank, val=payload bytes
	EvRtsRecv        // instant; arg=src group rank, val=advertised bytes
	EvCtsRecv        // instant; arg=send id (low 32)
	EvPeerLost       // instant; arg=lost world rank
	EvRevoke         // instant; arg=revoked context (a pair's base), val=cancelled instance's tag, -1 for the pair
	// coll: schedule lifecycle, on whichever goroutine runs the schedule.
	EvCollSched  // span; arg=collective instance; one per activation
	EvCollPark   // instant; arg=instance, val=operations parked on
	EvCollResume // instant; arg=instance, val=0
	// pio: two-phase collective I/O.
	EvPioExchange // span; val=bytes routed through the data alltoall
	EvPioWrite    // span; val=bytes written by this aggregator
	EvPioRead     // span; val=bytes read by this aggregator
	// dynproc/launch: worlds joining and growing.
	EvJoin     // span; leader handshake (Connect/Accept)
	EvAdmit    // span; val=cross-world links built
	EvSpawn    // span; val=ranks requested
	EvFinalize // instant
	// core again, appended so the kinds above keep their wire values.
	EvFrameMalformed // instant; arg=kind byte, val=header bytes; the frame was dropped
	evMax
)

// Phase distinguishes span begins/ends from instants.
type Phase uint8

// Phases.
const (
	PhInstant Phase = iota
	PhBegin
	PhEnd
)

// Event is one trace record: 24 bytes, fixed layout, no pointers.
type Event struct {
	TS   int64 // nanoseconds since the recorder's epoch
	Kind EventKind
	Ph   Phase
	_    uint8
	Arg  uint32 // kind-specific correlation value (peer, tag, instance, id)
	Val  int64  // kind-specific magnitude (usually bytes)
}

// Recorder is one rank's flight recorder.
type Recorder struct {
	rank  int
	epoch time.Time // wall+monotonic base; TS values are Since(epoch)
	mask  uint64
	cur   atomic.Uint64
	ev    []slot
	spans atomic.Uint32 // the last span id Span minted
}

// slot is one ring entry as three atomic words, so two writers that
// collide on a wrapped slot race benignly (word-torn events are
// possible during a wrap collision, never corruption). An Event packs
// exactly: ts | kind+ph+arg | val.
type slot struct{ ts, meta, val atomic.Uint64 }

func (s *slot) store(ev Event) {
	s.ts.Store(uint64(ev.TS))
	s.meta.Store(uint64(ev.Kind) | uint64(ev.Ph)<<16 | uint64(ev.Arg)<<32)
	s.val.Store(uint64(ev.Val))
}

func (s *slot) load() Event {
	meta := s.meta.Load()
	return Event{
		TS:   int64(s.ts.Load()),
		Kind: EventKind(meta),
		Ph:   Phase(meta >> 16),
		Arg:  uint32(meta >> 32),
		Val:  int64(s.val.Load()),
	}
}

// NewRecorder builds an enabled recorder for rank with a ring of at
// least events entries (rounded up to a power of two; minimum 1024).
func NewRecorder(rank, events int) *Recorder {
	n := 1024
	for n < events {
		n <<= 1
	}
	return &Recorder{
		rank:  rank,
		epoch: time.Now(),
		mask:  uint64(n - 1),
		ev:    make([]slot, n),
	}
}

// EnvEnabled reports whether the GOMPI_TRACE switch is on.
func EnvEnabled() bool {
	switch os.Getenv(EnvTrace) {
	case "", "0", "false", "off":
		return false
	}
	return true
}

// RingFromEnv returns the configured ring capacity.
func RingFromEnv() int {
	if s := os.Getenv(EnvTraceEvents); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return DefaultRingEvents
}

// DirFromEnv returns the trace dump directory.
func DirFromEnv() string {
	if d := os.Getenv(EnvTraceDir); d != "" {
		return d
	}
	return "."
}

// Rank returns the recorder's rank.
func (r *Recorder) Rank() int {
	if r == nil {
		return -1
	}
	return r.rank
}

// Record appends one event. Safe for concurrent use from any goroutine;
// a wrapped ring overwrites the oldest entries. Nil receivers record
// nothing.
func (r *Recorder) Record(kind EventKind, ph Phase, arg uint32, val int64) {
	if r == nil {
		return
	}
	i := r.cur.Add(1) - 1
	r.ev[i&r.mask].store(Event{
		TS:   int64(time.Since(r.epoch)),
		Kind: kind,
		Ph:   ph,
		Arg:  arg,
		Val:  val,
	})
}

// Instant records a point event.
func (r *Recorder) Instant(kind EventKind, arg uint32, val int64) {
	r.Record(kind, PhInstant, arg, val)
}

// Begin opens a span; pair with End on the same (kind, arg).
func (r *Recorder) Begin(kind EventKind, arg uint32, val int64) {
	r.Record(kind, PhBegin, arg, val)
}

// End closes a span opened by Begin.
func (r *Recorder) End(kind EventKind, arg uint32, val int64) {
	r.Record(kind, PhEnd, arg, val)
}

// Span opens a span of kind under an id the recorder mints and returns
// its closer, which ends the span with val. Ids are unique per
// recorder, so spans of one kind that overlap on a rank (two joins, two
// nonblocking collective I/O calls) stay apart in the trace. A nil
// recorder opens nothing and returns a closer that does nothing.
func (r *Recorder) Span(kind EventKind, val int64) (end func(val int64)) {
	if r == nil {
		return func(int64) {}
	}
	id := r.spans.Add(1)
	r.Begin(kind, id, val)
	return func(val int64) { r.End(kind, id, val) }
}

// Events returns the recorded events, oldest first, plus how many were
// dropped to ring wrap. The snapshot is taken without stopping writers;
// call it on a quiescent recorder (post-Finalize) for an exact ring.
func (r *Recorder) Events() (evs []Event, dropped uint64) {
	if r == nil {
		return nil, 0
	}
	total := r.cur.Load()
	stored := total
	if stored > uint64(len(r.ev)) {
		stored = uint64(len(r.ev))
		dropped = total - stored
	}
	evs = make([]Event, 0, stored)
	for i := total - stored; i < total; i++ {
		evs = append(evs, r.ev[i&r.mask].load())
	}
	return evs, dropped
}

// Trace file wire format (little endian):
//
//	magic   [8]byte  "GOMPITR1"
//	rank    uint32
//	_       uint32   (reserved)
//	epoch   int64    recorder epoch as wall-clock UnixNano
//	total   uint64   events recorded over the recorder's lifetime
//	stored  uint32   events present in this file
//	evsize  uint32   bytes per event (24)
//	events  stored × {ts int64, kind uint16, ph uint8, _ uint8, arg uint32, val int64}
const traceMagic = "GOMPITR1"

const eventWireSize = 24

// Dump writes the ring in the trace file format.
func (r *Recorder) Dump(w io.Writer) error {
	evs, dropped := r.Events()
	hdr := make([]byte, 0, 8+4+4+8+8+4+4)
	hdr = append(hdr, traceMagic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(r.rank))
	hdr = binary.LittleEndian.AppendUint32(hdr, 0)
	// The epoch is the rank's clock-alignment handshake: TS values are
	// monotonic offsets from it, and it is published here as wall-clock
	// UnixNano so the merger can place every rank on one timeline.
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(r.epoch.UnixNano()))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(evs))+dropped)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(evs)))
	hdr = binary.LittleEndian.AppendUint32(hdr, eventWireSize)
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	buf := make([]byte, 0, eventWireSize*256)
	for i, ev := range evs {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(ev.TS))
		buf = binary.LittleEndian.AppendUint16(buf, uint16(ev.Kind))
		buf = append(buf, byte(ev.Ph), 0)
		buf = binary.LittleEndian.AppendUint32(buf, ev.Arg)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(ev.Val))
		if len(buf) == cap(buf) || i == len(evs)-1 {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	return nil
}

// TraceFileName names rank's dump file.
func TraceFileName(rank int) string {
	return fmt.Sprintf("gompi-trace.%d.bin", rank)
}

// DumpFile writes the ring to dir/gompi-trace.<rank>.bin and returns
// the path.
func (r *Recorder) DumpFile(dir string) (string, error) {
	if r == nil {
		return "", fmt.Errorf("obs: dump of a disabled recorder")
	}
	path := filepath.Join(dir, TraceFileName(r.rank))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := r.Dump(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// TraceFile is one rank's parsed dump.
type TraceFile struct {
	Rank    int
	EpochNs int64 // wall-clock UnixNano of the rank's recorder epoch
	Total   uint64
	Events  []Event
}

// ReadTrace parses one trace dump.
func ReadTrace(rd io.Reader) (*TraceFile, error) {
	hdr := make([]byte, 8+4+4+8+8+4+4)
	if _, err := io.ReadFull(rd, hdr); err != nil {
		return nil, fmt.Errorf("obs: trace header: %w", err)
	}
	if string(hdr[:8]) != traceMagic {
		return nil, fmt.Errorf("obs: bad trace magic %q", hdr[:8])
	}
	tf := &TraceFile{
		Rank:    int(binary.LittleEndian.Uint32(hdr[8:])),
		EpochNs: int64(binary.LittleEndian.Uint64(hdr[16:])),
		Total:   binary.LittleEndian.Uint64(hdr[24:]),
	}
	stored := binary.LittleEndian.Uint32(hdr[32:])
	if es := binary.LittleEndian.Uint32(hdr[36:]); es != eventWireSize {
		return nil, fmt.Errorf("obs: unsupported event size %d", es)
	}
	// stored comes from the file: the slice grows as events are actually
	// read, so a corrupt count cannot ask for a huge block up front.
	buf := make([]byte, eventWireSize)
	for i := uint32(0); i < stored; i++ {
		if _, err := io.ReadFull(rd, buf); err != nil {
			return nil, fmt.Errorf("obs: trace event %d: %w", i, err)
		}
		tf.Events = append(tf.Events, Event{
			TS:   int64(binary.LittleEndian.Uint64(buf)),
			Kind: EventKind(binary.LittleEndian.Uint16(buf[8:])),
			Ph:   Phase(buf[10]),
			Arg:  binary.LittleEndian.Uint32(buf[12:]),
			Val:  int64(binary.LittleEndian.Uint64(buf[16:])),
		})
	}
	return tf, nil
}

// ReadTraceFile parses the dump at path.
func ReadTraceFile(path string) (*TraceFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadTrace(f)
}

// ReadTraceDir parses every gompi-trace.*.bin under dir, sorted by
// rank.
func ReadTraceDir(dir string) ([]*TraceFile, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "gompi-trace.*.bin"))
	if err != nil {
		return nil, err
	}
	out := make([]*TraceFile, 0, len(paths))
	for _, p := range paths {
		tf, err := ReadTraceFile(p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, tf)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rank < out[j].Rank })
	return out, nil
}
