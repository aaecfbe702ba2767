package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"testing"
	"time"
)

// TestFramePrefixRefusesOverflow checks the writer's length guard where
// it lives, so no 4 GiB buffer is needed to reach it: a frame the
// 32-bit prefix cannot describe must be refused, not truncated.
func TestFramePrefixRefusesOverflow(t *testing.T) {
	limit := uint64(math.MaxUint32)
	lp, err := framePrefix(int(limit))
	if err != nil || binary.LittleEndian.Uint32(lp[:]) != math.MaxUint32 {
		t.Fatalf("largest describable frame: prefix %x err %v", lp, err)
	}
	if _, err := framePrefix(int(limit + 1)); !errors.Is(err, errFrameTooLarge) {
		t.Fatalf("framePrefix(%d) = %v: a length that truncates to 0 must be refused", limit+1, err)
	}
}

// outstanding is how many pool buffers are out: every GetBuf not yet
// matched by a PutBuf, pooled or dropped.
func outstanding() int64 {
	s := PoolStats()
	return int64(s.Gets) - int64(s.Puts) - int64(s.Drops)
}

func prefixed(n uint32, body []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, n)
	return append(b, body...)
}

// feed writes wire to one end of a pipe and closes it; the other end is
// what the read loop sees.
func feed(wire []byte) net.Conn {
	near, far := net.Pipe()
	go func() {
		far.Write(wire) //nolint:errcheck // the reader may give up first
		far.Close()
	}()
	return near
}

// TestReadFramesReturnsItsBuffers: the staging buffer goes back to the
// pool on a short read, on a refused stamp and on shutdown; bodies
// beyond every pool class and beyond trustedFrame arrive intact; and a
// prefix promising gigabytes that never come ends as an error.
func TestReadFramesReturnsItsBuffers(t *testing.T) {
	var cnt devCounters
	base := outstanding()
	settled := func(when string) {
		t.Helper()
		if got := outstanding() - base; got != 0 {
			t.Fatalf("%s: %d pool buffers not returned", when, got)
		}
	}

	mb := testMailbox(4, nil)
	c := feed(append(prefixed(3, []byte("abc")), prefixed(100, []byte("short"))...))
	if err := readFrames(c, mb, &cnt, nil, nil); err == nil {
		t.Fatal("short read ended without an error")
	}
	f := <-mb.inbox
	if string(f.Data) != "abc" {
		t.Fatalf("frame before the short read: %q", f.Data)
	}
	f.Release()
	settled("short read")

	refuse := errors.New("refused")
	c = feed(prefixed(3, []byte("abc")))
	if err := readFrames(c, mb, &cnt, func([]byte) error { return refuse }, nil); !errors.Is(err, refuse) {
		t.Fatalf("refused stamp: %v", err)
	}
	settled("refused stamp")

	done := make(chan struct{})
	close(done)
	c = feed(prefixed(3, []byte("abc")))
	if err := readFrames(c, &mailbox{done: done}, &cnt, nil, nil); err != nil { // a nil inbox never accepts
		t.Fatalf("shutdown: %v", err)
	}
	settled("shutdown")

	for _, size := range []int{5 << 20, trustedFrame + 16} {
		big := bytes.Repeat([]byte("0123456789abcdef"), size/16)
		wire := bytes.NewReader(prefixed(uint32(len(big)), big)) // no pipe: 64 MiB through one under -race takes seconds
		if err := readFrames(wire, mb, &cnt, nil, nil); err == nil {
			t.Fatal("end of stream after the big frame ended without an error")
		}
		f = <-mb.inbox
		if !bytes.Equal(f.Data, big) {
			t.Fatalf("%d-byte frame arrived as %d bytes, intact=false", len(big), len(f.Data))
		}
		f.Release()
		settled(fmt.Sprintf("%d-byte frame", size))
	}

	c = feed(prefixed(math.MaxUint32, []byte("nothing like 4 GiB")))
	if err := readFrames(c, mb, &cnt, nil, nil); err == nil {
		t.Fatal("truncated giant frame ended without an error")
	}
	settled("giant prefix")
}

// landChoice is what the fuzz lander does with one long frame: a pure
// function of what Land is shown, so the checker can work it out again.
// It accepts about half of them, calls anything up to the whole head
// header, and offers a buffer for any part of the rest.
func landChoice(head []byte, n int, choice uint32) (accept bool, hdrLen, dstLen int) {
	x := choice ^ uint32(head[0])<<3 ^ uint32(head[landPeek-1])<<11 ^ uint32(n)
	hdrLen = int(x>>1) % (landPeek + 1)
	return x&1 == 0, hdrLen, int(x>>7) % (n - hdrLen + 1)
}

const landGuard = 32 // canary bytes behind every buffer a test lander offers

// fuzzLander lands frames as landChoice says and keeps what happened to
// each. Only the read loop touches it until the mux is closed.
type fuzzLander struct {
	choice   uint32
	landings []*fuzzLanding
}

type fuzzLanding struct {
	hdr     []byte // the header bytes Land was shown
	buf     []byte // dst, then landGuard canary bytes
	dstLen  int
	settled int
	err     error
}

func (l *fuzzLander) Land(peer int, head []byte, n int) (int, []byte, Landing) {
	accept, hdrLen, dstLen := landChoice(head, n, l.choice)
	if !accept {
		return 0, nil, nil
	}
	ld := &fuzzLanding{hdr: bytes.Clone(head[:hdrLen]), buf: bytes.Repeat([]byte{0xc5}, dstLen+landGuard), dstLen: dstLen}
	l.landings = append(l.landings, ld)
	return hdrLen, ld.buf[:dstLen], ld
}

func (ld *fuzzLanding) Landed(err error) { ld.settled++; ld.err = err }

// check reports what is wrong with a landing that should have ended
// with (failed == true) or without an error.
func (ld *fuzzLanding) check(failed bool) error {
	switch {
	case ld.settled != 1:
		return fmt.Errorf("settled %d times", ld.settled)
	case (ld.err != nil) != failed:
		return fmt.Errorf("settled with %v", ld.err)
	case !bytes.Equal(ld.buf[ld.dstLen:], bytes.Repeat([]byte{0xc5}, landGuard)):
		return errors.New("written past dst")
	}
	return nil
}

// splitFrames is the reference reader: the frames of wire that a joined
// link delivers — whole, at least kind + source rank long, stamped src —
// and, when the stream ends inside a frame, that frame's claimed length
// and what there is of it.
func splitFrames(wire []byte, src int) (frames [][]byte, cutLen int, cut []byte) {
	for len(wire) >= 4 {
		n := int(binary.LittleEndian.Uint32(wire))
		if wire = wire[4:]; len(wire) < n {
			return frames, n, wire
		}
		if n < 5 {
			return frames, 0, nil
		}
		fr := bytes.Clone(wire[:n])
		binary.LittleEndian.PutUint32(fr[1:], uint32(src))
		frames, wire = append(frames, fr), wire[n:]
	}
	return frames, 0, nil
}

// FuzzReadFrames feeds arbitrary bytes to a joined link — the shared
// read loop behind a mux, the way a confused or hostile peer would —
// with a lander that takes or leaves each long frame as the input says.
// It must not panic, must return every buffer it took, and must end the
// only way a broken stream can: the peer reported lost. Every frame the
// lander left arrives byte for byte as the reference reader has it;
// every frame it took is in its buffer and nowhere past it, settled
// exactly once — with an error if and only if the stream ended inside.
func FuzzReadFrames(f *testing.F) {
	f.Add(prefixed(5, []byte("hello")), uint32(0))
	f.Add(append(prefixed(6, []byte("frame1")), prefixed(9, []byte("cut"))...), uint32(0))
	f.Add(prefixed(math.MaxUint32, []byte("x")), uint32(0))
	f.Add(prefixed(0, nil), uint32(0))
	f.Add([]byte{1, 2}, uint32(0))
	long := bytes.Repeat([]byte("0123456789abcde"), (connReaderSize+300)/15)
	wire := append(prefixed(5, []byte("first")), prefixed(uint32(len(long)), long)...)
	wire = append(wire, prefixed(4, []byte("last"))...)
	for choice := uint32(0); choice < 4; choice++ { // both answers, several splits
		f.Add(wire, choice)
		f.Add(wire[:len(wire)-len(long)/2], choice) // cut mid-body
		f.Add(wire[:4+5+4+landPeek-1], choice)      // cut before the lander can be asked
	}
	f.Fuzz(func(t *testing.T, wire []byte, choice uint32) {
		base := outstanding()
		mux := MuxOver(newMember(0, 1))
		lander := &fuzzLander{choice: choice}
		mux.SetLander(lander)
		peer, err := mux.Join(feed(wire), func(b []byte, src int32) error {
			if len(b) < 5 { // the engine's rule: every frame carries kind + source rank
				return errors.New("frame too short")
			}
			binary.LittleEndian.PutUint32(b[1:], uint32(src))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.AfterFunc(10*time.Second, func() { panic("read loop hung on: " + string(wire)) })
		defer deadline.Stop()
		var delivered [][]byte
		for {
			fr, err := mux.Recv()
			if err == nil {
				delivered = append(delivered, bytes.Clone(fr.Data))
				fr.Release()
				continue
			}
			var pl *PeerLostError
			if !errors.As(err, &pl) || pl.Peer != peer {
				t.Fatalf("stream ended with %v, want PeerLostError for rank %d", err, peer)
			}
			break
		}
		mux.Close()
		if got := outstanding() - base; got != 0 {
			t.Fatalf("%d pool buffers not returned", got)
		}

		frames, cutLen, cut := splitFrames(wire, peer)
		landed := lander.landings
		for i, fr := range frames {
			if len(fr) > connReaderSize {
				if accept, hdrLen, dstLen := landChoice(fr[:landPeek], len(fr), choice); accept {
					if len(landed) == 0 {
						t.Fatalf("frame %d (%d bytes) was not landed", i, len(fr))
					}
					ld := landed[0]
					landed = landed[1:]
					if err := ld.check(false); err != nil {
						t.Fatalf("frame %d (%d bytes): landing %v", i, len(fr), err)
					}
					if !bytes.Equal(ld.hdr, fr[:hdrLen]) || !bytes.Equal(ld.buf[:dstLen], fr[hdrLen:hdrLen+dstLen]) {
						t.Fatalf("frame %d (%d bytes) landed as other bytes (header %d, dst %d)", i, len(fr), hdrLen, dstLen)
					}
					continue
				}
			}
			if len(delivered) == 0 || !bytes.Equal(delivered[0], fr) {
				t.Fatalf("frame %d (%d bytes) was not delivered as sent", i, len(fr))
			}
			delivered = delivered[1:]
		}
		if cutLen > connReaderSize && len(cut) >= landPeek {
			head := bytes.Clone(cut[:landPeek])
			binary.LittleEndian.PutUint32(head[1:], uint32(peer))
			if accept, _, _ := landChoice(head, cutLen, choice); accept {
				if len(landed) == 0 {
					t.Fatal("the frame the stream ended in was not offered")
				}
				if err := landed[0].check(true); err != nil {
					t.Fatalf("the frame the stream ended in: landing %v", err)
				}
				landed = landed[1:]
			}
		}
		if len(landed) != 0 || len(delivered) != 0 {
			t.Fatalf("%d landings and %d deliveries nobody sent", len(landed), len(delivered))
		}
	})
}

// staticLander lands every frame in one buffer: the per-frame cost of
// the read loop's landing branch and nothing else.
type staticLander struct{ dst []byte }

func (l *staticLander) Land(int, []byte, int) (int, []byte, Landing) { return 13, l.dst, l }
func (l *staticLander) Landed(error)                                 {}

// TestReadLoopLandsWithoutAllocating: what the read loop allocates — its
// buffered reader — it allocates per connection; a landed frame costs
// nothing more, however many there are.
func TestReadLoopLandsWithoutAllocating(t *testing.T) {
	body := make([]byte, connReaderSize+1)
	l := &staticLander{dst: make([]byte, len(body))}
	allocs := func(frames int) float64 {
		wire := bytes.Repeat(prefixed(uint32(len(body)), body), frames)
		var cnt devCounters
		r := bytes.NewReader(nil)
		return testing.AllocsPerRun(20, func() {
			r.Reset(wire)
			if err := readFrames(r, nil, &cnt, nil, func(head []byte, n int) (int, []byte, Landing) { return l.Land(0, head, n) }); err != io.EOF {
				t.Fatalf("read loop ended with %v", err)
			}
		})
	}
	if one, many := allocs(1), allocs(101); many != one {
		t.Fatalf("1 landed frame: %.0f allocations, 101: %.0f — want the same", one, many)
	}
}

// TestSendFailureIsThePeersLoss: a write that fails on a peer's
// connection says the peer is gone even if the read side has not
// reported it yet — a survivor racing the loss report must see the error
// class it routes around, not an opaque one — while a send on an
// endpoint that closed itself is ErrClosed.
func TestSendFailureIsThePeersLoss(t *testing.T) {
	devs, err := NewLoopbackJob(2)
	if err != nil {
		t.Fatal(err)
	}
	defer devs[0].Close()
	devs[1].Close()
	var pl *PeerLostError
	for deadline := time.Now().Add(5 * time.Second); ; {
		// The first writes may still land in the socket buffer.
		if err = devs[0].Send(1, make([]byte, 1<<10)); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("writes to a closed peer keep succeeding")
		}
	}
	if !errors.As(err, &pl) || pl.Peer != 1 {
		t.Fatalf("send to a dead peer failed with %v, want PeerLostError for rank 1", err)
	}
	devs[0].Close()
	if err := devs[0].Send(1, []byte("late")); !errors.Is(err, ErrClosed) {
		t.Fatalf("send on a closed endpoint: %v, want ErrClosed", err)
	}
}

// BenchmarkLoopbackLargeFrame streams frames beyond the largest pool
// class over a loopback mesh: the path where the read loop's buffer
// policy, not the socket, can decide the cost.
func BenchmarkLoopbackLargeFrame(b *testing.B) {
	for _, size := range []int{32 << 20, 96 << 20} {
		b.Run(fmt.Sprintf("%dMiB", size>>20), func(b *testing.B) {
			devs, err := NewLoopbackJob(2)
			if err != nil {
				b.Fatal(err)
			}
			defer devs[0].Close()
			defer devs[1].Close()
			payload := make([]byte, size)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := devs[0].Sendv(1, GetBuf(16), payload, false); err != nil {
					b.Fatal(err)
				}
				f, err := devs[1].Recv()
				if err != nil {
					b.Fatal(err)
				}
				f.Release()
			}
		})
	}
}
