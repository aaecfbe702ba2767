package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
	"time"
)

// Chrome trace_event rendering: the merger folds every rank's dump onto
// one wall-clock-aligned timeline (pid = rank, one row per rank).
// Rendezvous and collective spans overlap freely inside a rank, so
// spans use the async "b"/"e" phases keyed by an id instead of the
// strictly-nested B/E pair.

// kindInfo maps an EventKind to its display name and subsystem
// category (the "cat" field of the Chrome event; also the grouping key
// of the summary table).
var kindInfo = [evMax]struct{ name, cat string }{
	EvNone:           {"none", "none"},
	EvSendEager:      {"send.eager", "core"},
	EvSendSync:       {"send.sync", "core"},
	EvSendRndv:       {"send.rndv", "core"},
	EvRecvMatched:    {"recv.matched", "core"},
	EvRecvUnexpected: {"recv.unexpected", "core"},
	EvRtsRecv:        {"rndv.rts", "core"},
	EvCtsRecv:        {"rndv.cts", "core"},
	EvPeerLost:       {"fault.peer_lost", "core"},
	EvRevoke:         {"fault.revoke", "core"},
	EvCollSched:      {"coll.sched", "coll"},
	EvCollPark:       {"coll.park", "coll"},
	EvCollResume:     {"coll.resume", "coll"},
	EvPioExchange:    {"pio.exchange", "pio"},
	EvPioWrite:       {"pio.write", "pio"},
	EvPioRead:        {"pio.read", "pio"},
	EvJoin:           {"dynproc.join", "dynproc"},
	EvAdmit:          {"dynproc.admit", "dynproc"},
	EvSpawn:          {"dynproc.spawn", "dynproc"},
	EvFinalize:       {"finalize", "core"},
	EvFrameMalformed: {"fault.frame_malformed", "core"},
}

// Name returns the kind's display name.
func (k EventKind) Name() string {
	if k < evMax {
		return kindInfo[k].name
	}
	return fmt.Sprintf("kind-%d", uint16(k))
}

// Cat returns the kind's subsystem category.
func (k EventKind) Cat() string {
	if k < evMax {
		return kindInfo[k].cat
	}
	return "unknown"
}

// chromeEvent is one trace_event record. Fields follow the Chrome
// trace-event format doc; Ts/Dur are microseconds (float for sub-µs
// precision).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   string         `json:"id,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChrome merges per-rank trace files into one Chrome trace_event
// JSON document on w. Ranks become processes (pid = rank); timelines
// are aligned by each rank's wall-clock epoch so one rank's barrier
// wait visibly overlaps the straggler that caused it.
func WriteChrome(w io.Writer, files []*TraceFile) error {
	if len(files) == 0 {
		return fmt.Errorf("obs: no trace files to merge")
	}
	base := files[0].EpochNs
	for _, tf := range files {
		if tf.EpochNs < base {
			base = tf.EpochNs
		}
	}
	var out chromeTrace
	out.DisplayTimeUnit = "ms"
	for _, tf := range files {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "process_name",
			Ph:   "M",
			Pid:  tf.Rank,
			Args: map[string]any{"name": fmt.Sprintf("rank %d", tf.Rank)},
		})
		// offset places this rank's monotonic TS values on the shared
		// wall-clock timeline (same-host launches; skew is clock drift
		// between process starts, not network asymmetry).
		offset := tf.EpochNs - base
		for _, ev := range tf.Events {
			ce := chromeEvent{
				Name: ev.Kind.Name(),
				Cat:  ev.Kind.Cat(),
				Ts:   float64(ev.TS+offset) / 1e3,
				Pid:  tf.Rank,
			}
			switch ev.Ph {
			case PhBegin:
				ce.Ph = "b"
				ce.ID = spanID(tf.Rank, ev)
			case PhEnd:
				ce.Ph = "e"
				ce.ID = spanID(tf.Rank, ev)
			default:
				ce.Ph = "i"
				ce.S = "t"
			}
			ce.Args = map[string]any{"arg": ev.Arg}
			if ev.Val != 0 {
				ce.Args["bytes"] = ev.Val
			}
			out.TraceEvents = append(out.TraceEvents, ce)
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&out)
}

// spanID keys an async span. Spans never cross ranks (a rendezvous is
// begun and ended on the sender), so rank+kind+arg is unique while the
// span is open.
func spanID(rank int, ev Event) string {
	return fmt.Sprintf("%d:%d:%d", rank, uint16(ev.Kind), ev.Arg)
}

// SummaryRow is one operation's aggregate across every rank.
type SummaryRow struct {
	Name  string
	Cat   string
	Count int
	Bytes int64
	// Span latency percentiles; zero for instant-only kinds.
	P50, P99 time.Duration
}

// Summarize folds the merged trace into per-operation rows: event
// count, bytes moved, and p50/p99 span latency, sorted by category
// then name.
func Summarize(files []*TraceFile) []SummaryRow {
	type agg struct {
		count int
		bytes int64
		durs  []time.Duration
	}
	aggs := map[EventKind]*agg{}
	for _, tf := range files {
		// open tracks unmatched Begin timestamps per span key so a
		// wrapped ring (orphan Ends) degrades to count-only rows.
		open := map[string]int64{}
		for _, ev := range tf.Events {
			a := aggs[ev.Kind]
			if a == nil {
				a = &agg{}
				aggs[ev.Kind] = a
			}
			switch ev.Ph {
			case PhBegin:
				a.count++
				a.bytes += ev.Val
				open[spanID(tf.Rank, ev)] = ev.TS
			case PhEnd:
				// Bytes may ride on either side of a span (pio totals
				// are only known once the pass finishes).
				a.bytes += ev.Val
				if ts, ok := open[spanID(tf.Rank, ev)]; ok {
					delete(open, spanID(tf.Rank, ev))
					a.durs = append(a.durs, time.Duration(ev.TS-ts))
				}
			default:
				a.count++
				a.bytes += ev.Val
			}
		}
	}
	out := make([]SummaryRow, 0, len(aggs))
	for k, a := range aggs {
		row := SummaryRow{Name: k.Name(), Cat: k.Cat(), Count: a.count, Bytes: a.bytes}
		if len(a.durs) > 0 {
			sort.Slice(a.durs, func(i, j int) bool { return a.durs[i] < a.durs[j] })
			row.P50 = a.durs[len(a.durs)/2]
			row.P99 = a.durs[(len(a.durs)*99)/100]
		}
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cat != out[j].Cat {
			return out[i].Cat < out[j].Cat
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// WriteSummary renders the per-operation table for humans.
func WriteSummary(w io.Writer, files []*TraceFile) error {
	rows := Summarize(files)
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "CAT\tOP\tCOUNT\tBYTES\tP50\tP99")
	for _, r := range rows {
		p50, p99 := "-", "-"
		if r.P50 != 0 || r.P99 != 0 {
			p50 = r.P50.Round(time.Microsecond).String()
			p99 = r.P99.Round(time.Microsecond).String()
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%s\t%s\n", r.Cat, r.Name, r.Count, r.Bytes, p50, p99)
	}
	return tw.Flush()
}
