package mpi

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"gompi/internal/dtype"
)

// FuzzWinRequests feeds arbitrary bytes to both decoders of a window
// epoch: nextRMA, which a target runs over each origin's requests, and
// the reply walk of deposit, which an origin runs over each target's
// Get replies. Garbage must never panic or slice out of range. A stream
// nextRMA accepts is well formed, and must decode to the operations
// that encode it: re-encoding what decoded gives back the bytes it was
// decoded from, and decoding those gives the same operations again.
func FuzzWinRequests(f *testing.F) {
	valid := appendRMA(nil, rmaReq{kind: rmaAcc, disp: 1, count: 2, payload: make([]byte, 16)})
	valid = appendRMA(valid, rmaReq{kind: rmaGet, disp: 0, count: 8})
	valid = appendRMA(valid, rmaReq{kind: rmaAcc, op: 1, disp: 6, count: 2, payload: bytes.Repeat([]byte{1}, 16)})
	valid = appendRMA(valid, rmaReq{kind: rmaGet, disp: -3, count: 1 << 20})
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:rmaHdr-1])     // truncated header
	f.Add(valid[:len(valid)-1]) // truncated last request
	oversized := slices.Clone(valid)
	binary.LittleEndian.PutUint32(oversized[10:], 0xffffffff) // first payload claims 4 GiB
	f.Add(oversized)
	f.Fuzz(func(t *testing.T, data []byte) {
		var reqs []rmaReq
		b := data
		for len(b) > 0 {
			r, rest, ok := nextRMA(b)
			if !ok {
				break
			}
			if len(rest) != len(b)-rmaHdr-len(r.payload) {
				t.Fatalf("request of %d payload bytes consumed %d of %d bytes", len(r.payload), len(b)-len(rest), len(b))
			}
			reqs = append(reqs, r)
			b = rest
		}
		var enc []byte
		for _, r := range reqs {
			enc = appendRMA(enc, r)
		}
		if !bytes.Equal(enc, data[:len(data)-len(b)]) {
			t.Fatalf("re-encoded %x, decoded from %x", enc, data[:len(data)-len(b)])
		}
		for i, rest := 0, enc; len(rest) > 0; i++ {
			r, next, ok := nextRMA(rest)
			if !ok || r.kind != reqs[i].kind || r.op != reqs[i].op || r.disp != reqs[i].disp ||
				r.count != reqs[i].count || !bytes.Equal(r.payload, reqs[i].payload) {
				t.Fatalf("request %d decoded as %+v (ok %v), encoded from %+v", i, r, ok, reqs[i])
			}
			rest = next
		}

		// A target applies any stream, and an origin deposits whatever
		// comes back — the replies to it, or garbage — without panicking.
		w := &Win{base: dtype.BufOf(make([]int64, 8)), dt: LONG, size: 8}
		replies := make([][]byte, 2)
		_ = w.apply([][]byte{data, enc}, replies)
		into := dtype.BufOf(make([]byte, 16))
		gets := [][]section{{{into, 0, 8, BYTE}, {into, 8, 8, BYTE}}, {{into, 0, 16, BYTE}}}
		_ = w.deposit([][]byte{replies[0], data}, gets)
	})
}
