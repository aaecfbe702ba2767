package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// maxKeptSpans bounds the spans kept for the trace file. Totals are kept
// for every span, so the layer numbers cover the whole traced run; the
// file shows the first ops only (an 8-byte round trip is ~1 µs, and
// three spans for each of a few million of them would not fit in memory).
const maxKeptSpans = 20000

// spanLog holds the spans the benchmark records from its own files
// around each call into a layer. Only rank 0 records, so it needs no
// lock. A nil *spanLog means an untraced run.
type spanLog struct {
	origin time.Time
	names  []string
	agg    []spanAgg
	kept   []span
}

// spanAgg totals every span of one name. Every op's children tile it
// from its first stamp to its last, so an op's self time (its duration
// less what its children cover) is zero by construction and is not
// kept; the layers' self times come from the ladder.
type spanAgg struct {
	n     int64
	total time.Duration
}

type span struct {
	kind       int
	parent     int32 // index into kept, -1 for a root
	op         int64 // spans of one op share this id
	start, end time.Duration
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// kind returns the handle of a span name, registering it on first use.
func (l *spanLog) kind(name string) int {
	for k, n := range l.names {
		if n == name {
			return k
		}
	}
	l.names = append(l.names, name)
	l.agg = append(l.agg, spanAgg{})
	return len(l.names) - 1
}

// add records one span. parent is the index, as add returned it, of
// the span that caused this one (-1 for a root). The result is the
// span's own index, or -1 once the file is full.
func (l *spanLog) add(kind int, parent int32, op int64, start, end time.Time) int32 {
	l.agg[kind].n++
	l.agg[kind].total += end.Sub(start)
	if len(l.kept) >= maxKeptSpans {
		return -1
	}
	l.kept = append(l.kept, span{
		kind: kind, parent: parent, op: op,
		start: start.Sub(l.origin), end: end.Sub(l.origin),
	})
	return int32(len(l.kept) - 1)
}

// meanUS is the mean duration of the named span in microseconds, 0 for
// a name never recorded.
func (l *spanLog) meanUS(name string) float64 {
	for k, n := range l.names {
		if n == name && l.agg[k].n > 0 {
			return float64(l.agg[k].total) / float64(l.agg[k].n) / 1e3
		}
	}
	return 0
}

// writeChrome writes the kept spans in Chrome trace_event form, the
// format `mpirun -trace -trace-out` writes, so both open in the same
// viewer.
func (l *spanLog) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(l.kept))
	for i, s := range l.kept {
		events[i] = event{
			Name: l.names[s.kind], Cat: "benchmark", Ph: "X",
			Ts:   float64(s.start) / 1e3,
			Dur:  float64(s.end-s.start) / 1e3,
			Args: map[string]any{"op": s.op, "span": i, "parent": s.parent},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
