package obs

import (
	"bytes"
	"encoding/binary"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryGetOrCreate(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("core.sends_eager")
	if c2 := reg.Counter("core.sends_eager"); c2 != c {
		t.Fatal("Counter is not get-or-create: two handles for one name")
	}
	c.Add(3)
	c.Inc()
	if got, ok := reg.Value("core.sends_eager"); !ok || got != 4 {
		t.Fatalf("Value = %d, %v; want 4, true", got, ok)
	}

	g := reg.Gauge("core.unexpected_depth")
	g.Set(5)
	g.Set(2)
	if g.Load() != 2 || g.Peak() != 5 {
		t.Fatalf("gauge cur=%d peak=%d; want 2, 5", g.Load(), g.Peak())
	}

	reg.Counter("coll.scheds_started").Inc()

	// A source joins enumeration and read-out; installing it again under
	// the same key replaces it rather than listing it twice.
	for range 2 {
		reg.Source("transport.", func() []VarValue {
			return []VarValue{{Name: "transport.pool_gets", Class: "counter", Value: 7}}
		})
	}
	if got, ok := reg.Value("transport.pool_gets"); !ok || got != 7 {
		t.Fatalf("source Value = %d, %v; want 7, true", got, ok)
	}
	if _, ok := reg.Value("transport.pool_hits"); ok {
		t.Fatal("Value found a name no variable or source has")
	}

	snap := reg.Snapshot()
	var names []string
	for _, v := range snap {
		names = append(names, v.Name)
	}
	want := []string{"coll.scheds_started", "core.sends_eager", "core.unexpected_depth", "transport.pool_gets"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("Snapshot names = %v, want %v (sorted)", names, want)
	}
}

// TestRingWrapKeepsNewest is the flight-recorder invariant: when the
// ring wraps, the newest events survive and the drop count says how
// many fell off the front.
func TestRingWrapKeepsNewest(t *testing.T) {
	r := NewRecorder(0, 1024) // minimum ring
	const n = 1024 + 300
	for i := 0; i < n; i++ {
		r.Instant(EvSendEager, uint32(i), int64(i))
	}
	evs, dropped := r.Events()
	if len(evs) != 1024 {
		t.Fatalf("stored %d events, want 1024", len(evs))
	}
	if dropped != 300 {
		t.Fatalf("dropped = %d, want 300", dropped)
	}
	for i, ev := range evs {
		if want := int64(300 + i); ev.Val != want {
			t.Fatalf("event %d has Val %d, want %d (oldest must be dropped)", i, ev.Val, want)
		}
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(0, 4096)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Instant(EvRecvMatched, 1, 64)
			}
		}()
	}
	wg.Wait()
	evs, dropped := r.Events()
	if uint64(len(evs))+dropped != 8000 {
		t.Fatalf("stored %d + dropped %d != 8000 recorded", len(evs), dropped)
	}
}

func TestDisabledRecorderIsFree(t *testing.T) {
	var r *Recorder
	r.Instant(EvSendEager, 1, 2) // must not panic
	r.Begin(EvCollSched, 1, 0)
	r.End(EvCollSched, 1, 0)
	if evs, dropped := r.Events(); evs != nil || dropped != 0 {
		t.Fatal("nil recorder returned events")
	}
	allocs := testing.AllocsPerRun(100, func() {
		r.Instant(EvSendEager, 1, 2)
	})
	if allocs != 0 {
		t.Fatalf("disabled Record allocates %.1f/op, want 0", allocs)
	}
}

// TestRecorderSpanMintsIds: overlapping spans of one kind get distinct
// ids, each closed under its own id with the closer's value; a nil
// recorder's Span records nothing and allocates nothing.
func TestRecorderSpanMintsIds(t *testing.T) {
	r := NewRecorder(0, 1024)
	endA := r.Span(EvPioWrite, 0)
	endB := r.Span(EvPioWrite, 0)
	endB(20)
	endA(10)
	evs, _ := r.Events()
	if len(evs) != 4 {
		t.Fatalf("recorded %d events, want 4", len(evs))
	}
	a, b := evs[0].Arg, evs[1].Arg
	if a == b {
		t.Fatalf("overlapping spans share id %d", a)
	}
	if evs[2].Ph != PhEnd || evs[2].Arg != b || evs[2].Val != 20 || evs[3].Arg != a || evs[3].Val != 10 {
		t.Fatalf("ends = %+v, %+v; want id %d with 20, then id %d with 10", evs[2], evs[3], b, a)
	}
	var off *Recorder
	if n := testing.AllocsPerRun(100, func() { off.Span(EvSpawn, 1)(0) }); n != 0 {
		t.Fatalf("nil recorder's Span allocates %.1f/op, want 0", n)
	}
}

// sampleDump is rank 3's dump of one rendezvous span and one instant.
func sampleDump(tb testing.TB) []byte {
	r := NewRecorder(3, 1024)
	r.Begin(EvSendRndv, 7, 1<<20)
	r.End(EvSendRndv, 7, 0)
	r.Instant(EvPeerLost, 2, 0)
	var buf bytes.Buffer
	if err := r.Dump(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func TestDumpRoundTrip(t *testing.T) {
	tf, err := ReadTrace(bytes.NewReader(sampleDump(t)))
	if err != nil {
		t.Fatal(err)
	}
	if tf.Rank != 3 || tf.Total != 3 || len(tf.Events) != 3 {
		t.Fatalf("round trip: rank=%d total=%d stored=%d", tf.Rank, tf.Total, len(tf.Events))
	}
	want := []Event{
		{Kind: EvSendRndv, Ph: PhBegin, Arg: 7, Val: 1 << 20},
		{Kind: EvSendRndv, Ph: PhEnd, Arg: 7},
		{Kind: EvPeerLost, Ph: PhInstant, Arg: 2},
	}
	for i, w := range want {
		g := tf.Events[i]
		if g.Kind != w.Kind || g.Ph != w.Ph || g.Arg != w.Arg || g.Val != w.Val {
			t.Fatalf("event %d = %+v, want kind/ph/arg/val of %+v", i, g, w)
		}
	}
	for i := 1; i < len(tf.Events); i++ {
		if tf.Events[i].TS < tf.Events[i-1].TS {
			t.Fatal("timestamps went backwards within one rank")
		}
	}
}

// FuzzReadTrace: a trace file is bytes from disk that mpirun merges.
// Parsing any input must return, never panic, and never allocate for
// events the input does not hold; a stream cut short of what its header
// promises is an error.
func FuzzReadTrace(f *testing.F) {
	f.Add(sampleDump(f))
	// A valid header claiming 2^32-1 events and holding none.
	hdr := append([]byte(traceMagic), make([]byte, 32)...)
	binary.LittleEndian.PutUint32(hdr[32:], 0xFFFFFFFF)
	binary.LittleEndian.PutUint32(hdr[36:], eventWireSize)
	f.Add(hdr)
	f.Fuzz(func(t *testing.T, data []byte) {
		tf, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		need := len(hdr) + eventWireSize*len(tf.Events)
		if len(data) < need {
			t.Fatalf("parsed %d events from %d bytes", len(tf.Events), len(data))
		}
		if _, err := ReadTrace(bytes.NewReader(data[:need-1])); err == nil {
			t.Fatalf("a stream cut to %d of %d bytes parsed", need-1, need)
		}
	})
}

func TestChromeMergeAndSummary(t *testing.T) {
	// Two ranks whose epochs differ by 1ms: the merger must place rank
	// 1's events 1ms later on the shared timeline.
	mk := func(rank int, epochNs int64, evs ...Event) *TraceFile {
		return &TraceFile{Rank: rank, EpochNs: epochNs, Total: uint64(len(evs)), Events: evs}
	}
	files := []*TraceFile{
		mk(0, 1_000_000_000,
			Event{TS: 0, Kind: EvSendEager, Ph: PhInstant, Arg: 1, Val: 100},
			Event{TS: 2000, Kind: EvCollSched, Ph: PhBegin, Arg: 1},
			Event{TS: 52000, Kind: EvCollSched, Ph: PhEnd, Arg: 1},
		),
		mk(1, 1_001_000_000,
			Event{TS: 1000, Kind: EvRecvMatched, Ph: PhInstant, Arg: 0, Val: 100},
		),
	}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, files); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{
		`"traceEvents"`, `"rank 0"`, `"rank 1"`,
		`"send.eager"`, `"coll.sched"`, `"recv.matched"`,
		`"ph":"b"`, `"ph":"e"`, `"ph":"i"`,
	} {
		if !strings.Contains(out, frag) {
			t.Fatalf("merged trace lacks %s:\n%s", frag, out)
		}
	}

	rows := Summarize(files)
	byName := map[string]SummaryRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	if r := byName["send.eager"]; r.Count != 1 || r.Bytes != 100 {
		t.Fatalf("send.eager row = %+v", r)
	}
	if r := byName["coll.sched"]; r.Count != 1 || r.P50 != 50*time.Microsecond {
		t.Fatalf("coll.sched row = %+v (want one 50µs span)", r)
	}
}
