package coll

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzDecodeBundle: decodeBundle reads bytes a peer put on the wire. On
// any input it must return — never panic — and what it returns must be
// backed by the input: blocks are windows of data, so a lying count or
// length field can neither allocate nor expose memory beyond it.
func FuzzDecodeBundle(f *testing.F) {
	valid := encodeBundle(map[int][]byte{0: []byte("a"), 3: []byte("bcd"), 7: nil})
	f.Add(valid)
	f.Add(encodeBundle(nil))
	f.Add(valid[:3])            // short count
	f.Add(valid[:9])            // truncated block header
	f.Add(valid[:len(valid)-1]) // truncated block
	oversized := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(oversized[8:], 0xffffffff) // first block claims 4 GiB
	f.Add(oversized)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // 4 Gi blocks, none present
	f.Fuzz(func(t *testing.T, data []byte) {
		into := make(map[int][]byte)
		if err := decodeBundle(data, into); err != nil {
			return
		}
		total := 4
		for vr, b := range into {
			if vr < 0 {
				t.Fatalf("negative virtual rank %d", vr)
			}
			if cap(b) != len(b) {
				t.Fatalf("block %d can grow into its neighbour: len %d cap %d", vr, len(b), cap(b))
			}
			if len(b) > 0 && !bytes.Contains(data, b) {
				t.Fatalf("block %d is not a window of the input", vr)
			}
			total += 8 + len(b)
		}
		if total > len(data) {
			t.Fatalf("decoded %d bytes of blocks from a %d-byte input", total, len(data))
		}
	})
}
