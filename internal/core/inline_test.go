package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"testing"

	"gompi/internal/transport"
)

// eagerSlack is the room an eager header leaves in its pooled buffer:
// the largest payload sendEager lets ride there.
func eagerSlack() int {
	h := buildEagerHdr(false, envelope{}, 0)
	defer transport.PutBuf(h)
	return cap(h) - len(h)
}

// poolOutstanding is how many frame-pool buffers are out.
func poolOutstanding() int64 {
	s := transport.PoolStats()
	return int64(s.Gets) - int64(s.Puts) - int64(s.Drops)
}

// TestEagerInlineRoundTrip: on both sides of the inline bound, in both
// eager modes, pooled and caller-kept, by reference and over sockets, an
// eager payload arrives byte-equal; the sender is charged (BytesInlined)
// for exactly the bytes that rode in the header's buffer; a payload the
// caller kept is intact afterwards; and every pool buffer is back once
// the job is closed.
func TestEagerInlineRoundTrip(t *testing.T) {
	slack := eagerSlack()
	if slack != 64-25 {
		t.Fatalf("inline bound %d B, want 39: smallest pool class minus the eager header", slack)
	}
	for _, medium := range []string{"chan", "tcp"} {
		t.Run(medium, func(t *testing.T) {
			base := poolOutstanding()
			var p0, p1 *Proc
			if medium == "chan" {
				p0, p1 = newPair(t, Config{})
			} else {
				procs := loopbackProcs(t, 2)
				p0, p1 = procs[0], procs[1]
			}
			var inlined uint64
			tag := 0
			for _, mode := range []Mode{ModeStandard, ModeSync} {
				for _, n := range []int{0, 1, slack, slack + 1, 64} {
					for _, recycle := range []bool{false, true} {
						tag++
						want := pattern(n, byte(tag))
						payload := append([]byte(nil), want...)
						if recycle {
							payload = transport.GetBuf(n)
							copy(payload, want)
						}
						if n <= slack {
							inlined += uint64(n)
						}
						sreq, err := p0.Isend(0, 0, 1, tag, payload, mode, recycle)
						if err != nil {
							t.Fatal(err)
						}
						rreq := p1.Irecv(0, 0, int32(tag))
						if st := rreq.Wait(); st.Err != nil || st.Bytes != n || !bytes.Equal(rreq.Payload, want) {
							t.Fatalf("mode %d, %d B, recycle=%v: status %+v payload %x", mode, n, recycle, st, rreq.Payload)
						}
						sreq.Wait()
						rreq.Recycle()
						sreq.Recycle()
						if !recycle && !bytes.Equal(payload, want) {
							t.Fatalf("mode %d, %d B: the caller's payload was written to", mode, n)
						}
					}
				}
			}
			if got, copied := pv(p0, "core.bytes_inlined"), pv(p0, "core.bytes_copied"); got != inlined || copied != 0 {
				t.Fatalf("sender BytesInlined = %d (BytesCopied %d), want the %d payload bytes that fit their headers' buffers", got, copied, inlined)
			}
			p0.Close()
			p1.Close()
			if got := poolOutstanding() - base; got != 0 {
				t.Fatalf("%d pool buffers outstanding after the job closed", got)
			}
		})
	}
}

// TestTakeEmptyPayloadReturnsFrame: taking the payload of an empty
// message hands back nil and returns the frame it arrived in to the
// pool, by reference and over sockets — no buffer is left out per
// receive.
func TestTakeEmptyPayloadReturnsFrame(t *testing.T) {
	for _, medium := range []string{"chan", "tcp"} {
		t.Run(medium, func(t *testing.T) {
			var p0, p1 *Proc
			if medium == "chan" {
				p0, p1 = newPair(t, Config{})
			} else {
				procs := loopbackProcs(t, 2)
				p0, p1 = procs[0], procs[1]
			}
			const n = 64
			base := poolOutstanding()
			for i := 0; i < n; i++ {
				sreq, err := p0.Isend(0, 0, 1, 3, nil, ModeStandard, false)
				if err != nil {
					t.Fatal(err)
				}
				rreq := p1.Irecv(0, 0, 3)
				if st := rreq.Wait(); st.Err != nil || st.Bytes != 0 {
					t.Fatalf("receive %d: status %+v", i, st)
				}
				if b := rreq.TakePayload(); b != nil {
					t.Fatalf("receive %d: took %d-byte payload %v, want nil", i, len(b), b)
				}
				rreq.Recycle()
				sreq.Wait()
				sreq.Recycle()
			}
			if out := poolOutstanding() - base; out != 0 {
				t.Fatalf("%d pool buffers left out after %d empty taking receives", out, n)
			}
		})
	}
}

// TestInlinedPayloadDisposition: what becomes of an inlined payload's own
// storage is decided on the sending side at once — a recycled one goes
// back to the pool, one the caller kept is never handed to the pool — and
// one buffer, not two, crosses to the receiver.
func TestInlinedPayloadDisposition(t *testing.T) {
	p0, p1 := newPair(t, Config{})
	for _, recycle := range []bool{false, true} {
		payload := transport.GetBuf(8) // pool-born either way: a stray PutBuf would be accepted and counted
		before := transport.PoolStats()
		sreq, err := p0.Isend(0, 0, 1, 5, payload, ModeStandard, recycle)
		if err != nil {
			t.Fatal(err)
		}
		sent := transport.PoolStats()
		rreq := p1.Irecv(0, 0, 5)
		rreq.Wait()
		sreq.Wait()
		rreq.Recycle()
		after := transport.PoolStats()
		wantAtSend := uint64(0)
		if recycle {
			wantAtSend = 1
		}
		if got := sent.Puts - before.Puts; got != wantAtSend {
			t.Fatalf("recycle=%v: %d buffers pooled by the send, want %d", recycle, got, wantAtSend)
		}
		if gets, back := after.Gets-before.Gets, after.Puts+after.Drops-sent.Puts-sent.Drops; gets != 1 || back != 1 {
			t.Fatalf("recycle=%v: %d buffers taken and %d returned downstream, want the one header buffer", recycle, gets, back)
		}
		if !recycle {
			transport.PutBuf(payload)
		}
	}
}

// TestEagerFrameOnTheWire is the golden test of the wire format: the
// bytes an eager send puts on a socket are the length prefix, the 25-byte
// header and the payload, whether the payload rode in the header's buffer
// or beside it.
func TestEagerFrameOnTheWire(t *testing.T) {
	const ctx, srcGroup, tag = 6, 3, 77
	for _, sync := range []bool{false, true} {
		for _, n := range []int{8, eagerSlack(), eagerSlack() + 1} {
			t.Run(fmt.Sprintf("sync=%v/%dB", sync, n), func(t *testing.T) {
				mux := transport.NewShmJob(1, 0)[0]
				near, far := net.Pipe()
				defer far.Close()
				peer, err := mux.Join(near, PatchFrameSource)
				if err != nil {
					t.Fatal(err)
				}
				p := NewProc(mux, Config{})
				defer p.Close()

				payload := pattern(n, 9)
				kind, mode, id := kEager, ModeStandard, uint64(0)
				if sync {
					kind, mode, id = kEagerSync, ModeSync, 1 // the engine's first id
				}
				want := binary.LittleEndian.AppendUint32(nil, uint32(1+envLen+8+n))
				want = append(want, kind)
				for _, v := range []uint32{0 /* srcWorld */, ctx, srcGroup, tag} {
					want = binary.LittleEndian.AppendUint32(want, v)
				}
				want = binary.LittleEndian.AppendUint64(want, id)
				want = append(want, payload...)

				errc := make(chan error, 1)
				go func() {
					_, err := p.Isend(ctx, srcGroup, peer, tag, payload, mode, false)
					errc <- err
				}()
				got := make([]byte, len(want))
				if _, err := io.ReadFull(far, got); err != nil {
					t.Fatal(err)
				}
				if err := <-errc; err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("socket bytes\n got %x\nwant %x", got, want)
				}
			})
		}
	}
}

// BenchmarkEagerSend is one eager message, sent pooled and received into
// a buffer, on both sides of the inline bound (39 B).
func BenchmarkEagerSend(b *testing.B) {
	for _, n := range []int{8, 32, 39, 40, 64} {
		b.Run(fmt.Sprintf("%dB", n), func(b *testing.B) {
			devs := transport.NewShmJob(2, 0)
			p0, p1 := NewProc(devs[0], Config{}), NewProc(devs[1], Config{})
			defer p0.Close()
			defer p1.Close()
			buf := make([]byte, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sreq, err := p0.Isend(0, 0, 1, 1, transport.GetBuf(n), ModeStandard, true)
				if err != nil {
					b.Fatal(err)
				}
				rreq := p1.IrecvInto(0, 0, 1, buf, 1)
				rreq.Wait()
				rreq.Recycle()
				sreq.Recycle()
			}
		})
	}
}
