package core

import (
	"bytes"
	"testing"

	"gompi/internal/obs"
	"gompi/internal/transport"
)

// hdrLen is each kind's header length after the kind byte (the layout
// table in frame.go).
var hdrLen = map[byte]int{
	kEager: envLen + 8, kEagerSync: envLen + 8, kRts: envLen + 8 + 4,
	kCts: 4 + 8 + 8, kData: 4 + 8, kAck: 4 + 8, kRevoke: 4 + 4 + 4, kWithdrawn: 4 + 8,
}

// FuzzParseFrame: whatever bytes a peer puts on the wire, parseFrame
// accepts exactly the frames of a known kind that carry that kind's
// whole header, never panics on the rest, and an accepted frame's
// payload is a view of the input — the separately delivered payload if
// there is one, else what follows the header — not a copy. An RTS
// carries a payload only scatter-gather (an offer's): bytes after its
// header are not one.
func FuzzParseFrame(f *testing.F) {
	e := envelope{srcWorld: 1, ctx: 2, srcGroup: 3, tag: 4}
	for _, hdr := range [][]byte{
		buildEagerHdr(true, e, 5), buildRts(e, 5, 6), buildCts(1, 5, 7), buildDataHdr(1, 7),
		buildWithdrawn(1, 7), buildAck(1, 5), buildRevoke(1, 2, wholePair), buildRevoke(1, 3, 16),
	} {
		f.Add(hdr, []byte(nil))
		f.Add(hdr, []byte("delivered separately"))
		f.Add(append(hdr[:len(hdr):len(hdr)], "inline"...), []byte(nil))
		f.Add(hdr[:len(hdr)-1], []byte(nil))
	}
	f.Fuzz(func(t *testing.T, data, payload []byte) {
		if len(payload) == 0 {
			payload = nil // no scatter-gather part
		}
		p, err := parseFrame(transport.Frame{Data: data, Payload: payload})
		var want int
		known := false
		if len(data) > 0 {
			want, known = hdrLen[data[0]]
		}
		if whole := known && len(data)-1 >= want; whole != (err == nil) {
			t.Fatalf("% x: err %v, want accepted=%v", data, err, whole)
		}
		if err != nil {
			return
		}
		view := payload
		switch p.kind {
		case kEager, kEagerSync, kData:
			if view == nil {
				view = data[1+want:]
			}
		case kRts:
		default:
			view = nil
		}
		if view == nil {
			if p.payload != nil {
				t.Fatalf("kind %d carries no payload here, got %d bytes", p.kind, len(p.payload))
			}
			return
		}
		if len(p.payload) != len(view) || len(view) > 0 && &p.payload[0] != &view[0] {
			t.Fatalf("kind %d: payload (%d bytes) is not the input's own %d bytes", p.kind, len(p.payload), len(view))
		}
	})
}

// TestMalformedFrameIsCountedNotFatal: garbage from a peer is dropped,
// counted and recorded, and the engine goes on serving — the next valid
// message from the same peer still matches.
func TestMalformedFrameIsCountedNotFatal(t *testing.T) {
	devs := transport.NewShmJob(2, 0)
	rec := obs.NewRecorder(1, 0)
	p0, p1 := NewProc(devs[0], Config{}), NewProc(devs[1], Config{Recorder: rec})
	defer p0.Close()
	defer p1.Close()

	short := buildRts(envelope{}, 1, 1)
	for _, garbage := range [][]byte{{}, {0xff, 1, 2, 3}, short[:len(short)-1]} {
		if err := devs[0].Send(1, garbage); err != nil {
			t.Fatal(err)
		}
	}
	sreq, err := p0.Isend(0, 0, 1, 3, []byte("still here"), ModeStandard, false)
	if err != nil {
		t.Fatal(err)
	}
	rreq := p1.Irecv(0, 0, 3)
	rreq.Wait()
	sreq.Wait()
	if !bytes.Equal(rreq.Payload, []byte("still here")) {
		t.Fatalf("message behind the garbage arrived as %q", rreq.Payload)
	}
	// Frames from one peer arrive in order, so all three were seen.
	if got := p1.Stats().FramesMalformed.Load(); got != 3 {
		t.Fatalf("core.frames_malformed = %d, want 3", got)
	}
	evs, _ := rec.Events()
	var kinds []uint32
	for _, ev := range evs {
		if ev.Kind == obs.EvFrameMalformed {
			kinds = append(kinds, ev.Arg)
		}
	}
	if len(kinds) != 3 || kinds[1] != 0xff || kinds[2] != uint32(kRts) {
		t.Fatalf("recorded malformed-frame kinds %v, want [0 255 %d]", kinds, kRts)
	}
}
