package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
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

	inbox := make(chan Frame, 4)
	c := feed(append(prefixed(3, []byte("abc")), prefixed(100, []byte("short"))...))
	if err := readFrames(c, inbox, nil, &cnt, nil); err == nil {
		t.Fatal("short read ended without an error")
	}
	f := <-inbox
	if string(f.Data) != "abc" {
		t.Fatalf("frame before the short read: %q", f.Data)
	}
	f.Release()
	settled("short read")

	refuse := errors.New("refused")
	c = feed(prefixed(3, []byte("abc")))
	if err := readFrames(c, inbox, nil, &cnt, func([]byte) error { return refuse }); !errors.Is(err, refuse) {
		t.Fatalf("refused stamp: %v", err)
	}
	settled("refused stamp")

	done := make(chan struct{})
	close(done)
	c = feed(prefixed(3, []byte("abc")))
	if err := readFrames(c, nil, done, &cnt, nil); err != nil { // a nil inbox never accepts
		t.Fatalf("shutdown: %v", err)
	}
	settled("shutdown")

	for _, size := range []int{5 << 20, trustedFrame + 16} {
		big := bytes.Repeat([]byte("0123456789abcdef"), size/16)
		wire := bytes.NewReader(prefixed(uint32(len(big)), big)) // no pipe: 64 MiB through one under -race takes seconds
		if err := readFrames(wire, inbox, nil, &cnt, nil); err == nil {
			t.Fatal("end of stream after the big frame ended without an error")
		}
		f = <-inbox
		if !bytes.Equal(f.Data, big) {
			t.Fatalf("%d-byte frame arrived as %d bytes, intact=false", len(big), len(f.Data))
		}
		f.Release()
		settled(fmt.Sprintf("%d-byte frame", size))
	}

	c = feed(prefixed(math.MaxUint32, []byte("nothing like 4 GiB")))
	if err := readFrames(c, inbox, nil, &cnt, nil); err == nil {
		t.Fatal("truncated giant frame ended without an error")
	}
	settled("giant prefix")
}

// FuzzReadFrames feeds arbitrary bytes to a joined link — the shared
// read loop behind a mux, the way a confused or hostile peer would. It
// must not panic, must return every buffer it took, and must end the
// only way a broken stream can: the peer reported lost.
func FuzzReadFrames(f *testing.F) {
	f.Add(prefixed(5, []byte("hello")))
	f.Add(append(prefixed(6, []byte("frame1")), prefixed(9, []byte("cut"))...))
	f.Add(prefixed(math.MaxUint32, []byte("x")))
	f.Add(prefixed(0, nil))
	f.Add([]byte{1, 2})
	f.Fuzz(func(t *testing.T, wire []byte) {
		base := outstanding()
		mux := MuxOver(newMember(0, 1))
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
		for {
			fr, err := mux.Recv()
			if err == nil {
				if got := binary.LittleEndian.Uint32(fr.Data[1:]); int(got) != peer {
					t.Fatalf("delivered frame stamped %d, want %d", got, peer)
				}
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
	})
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
