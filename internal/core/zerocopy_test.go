package core

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"gompi/internal/obs"
	"gompi/internal/transport"
)

// TestIrecvIntoEager checks that an eager payload lands directly in the
// caller's buffer.
func TestIrecvIntoEager(t *testing.T) {
	p0, p1 := newPair(t, Config{})
	payload := []byte("into the buffer")
	if _, err := p0.Isend(0, 0, 1, 4, payload, ModeStandard, false); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 32)
	rreq := p1.IrecvInto(0, 0, 4, buf, 1)
	st := rreq.Wait()
	if st.Err != nil {
		t.Fatalf("unexpected error %v", st.Err)
	}
	if st.Bytes != len(payload) || !bytes.Equal(buf[:st.Bytes], payload) {
		t.Fatalf("deposited %q (%d bytes)", buf[:st.Bytes], st.Bytes)
	}
	if rreq.Payload != nil {
		t.Fatal("receive-into must not expose a payload alias")
	}
	rreq.Recycle()
}

// TestIrecvIntoRendezvous checks the rendezvous DATA path deposits into
// the posted buffer without cloning.
func TestIrecvIntoRendezvous(t *testing.T) {
	p0, p1 := newPair(t, Config{EagerLimit: 16})
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	buf := make([]byte, 4096)
	rreq := p1.IrecvInto(0, 0, 9, buf, 1)
	sreq, err := p0.Isend(0, 0, 1, 9, payload, ModeStandard, false)
	if err != nil {
		t.Fatal(err)
	}
	st := rreq.Wait()
	sreq.Wait()
	if st.Err != nil || st.Bytes != len(payload) || !bytes.Equal(buf, payload) {
		t.Fatalf("rendezvous into: bytes=%d err=%v", st.Bytes, st.Err)
	}
}

// TestIrecvIntoTruncate checks MPI_ERR_TRUNCATE semantics: a too-small
// buffer is filled to capacity, the status carries ErrTruncated, and the
// frame pool is not corrupted (subsequent traffic still round-trips).
func TestIrecvIntoTruncate(t *testing.T) {
	for name, cfg := range map[string]Config{"eager": {}, "rndv": {EagerLimit: 4}} {
		t.Run(name, func(t *testing.T) {
			p0, p1 := newPair(t, cfg)
			payload := []byte("0123456789")
			small := make([]byte, 4)
			rreq := p1.IrecvInto(0, 0, 7, small, 1)
			sreq, err := p0.Isend(0, 0, 1, 7, payload, ModeStandard, false)
			if err != nil {
				t.Fatal(err)
			}
			st := rreq.Wait()
			sreq.Wait()
			if !errors.Is(st.Err, ErrTruncated) {
				t.Fatalf("status error %v, want ErrTruncated", st.Err)
			}
			// Bytes reports the full incoming size; the deposit is the
			// buffer-sized prefix.
			if st.Bytes != len(payload) || string(small) != "0123" {
				t.Fatalf("deposited %q (Bytes=%d)", small, st.Bytes)
			}
			// The pool must still hand out sane buffers: run a full
			// message through the same pair.
			again := []byte("still works")
			if _, err := p0.Isend(0, 0, 1, 8, again, ModeStandard, false); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 32)
			r2 := p1.IrecvInto(0, 0, 8, buf, 1)
			st2 := r2.Wait()
			if st2.Err != nil || !bytes.Equal(buf[:st2.Bytes], again) {
				t.Fatalf("post-truncate round trip corrupted: %q err=%v", buf[:st2.Bytes], st2.Err)
			}
		})
	}
}

// TestIrecvIntoUnexpected covers the unexpected-queue path: the message
// arrives first, the receive-into matches it later and copies out of the
// retained frame.
func TestIrecvIntoUnexpected(t *testing.T) {
	p0, p1 := newPair(t, Config{})
	payload := []byte("queued")
	if _, err := p0.Isend(0, 0, 1, 3, payload, ModeStandard, false); err != nil {
		t.Fatal(err)
	}
	// Wait until the unexpected queue holds it.
	for p1.PendingUnexpected() == 0 {
	}
	buf := make([]byte, 16)
	st := p1.IrecvInto(0, 0, 3, buf, 1).Wait()
	if st.Err != nil || !bytes.Equal(buf[:st.Bytes], payload) {
		t.Fatalf("unexpected-path into: %q err=%v", buf[:st.Bytes], st.Err)
	}
}

// TestFrameReleasedTwice checks that releasing a request's frame twice
// (directly and via Recycle) is harmless.
func TestFrameReleasedTwice(t *testing.T) {
	p0, p1 := newPair(t, Config{})
	if _, err := p0.Isend(0, 0, 1, 5, []byte("twice"), ModeStandard, false); err != nil {
		t.Fatal(err)
	}
	rreq := p1.Irecv(0, 0, 5)
	rreq.Wait()
	rreq.ReleaseFrame()
	rreq.ReleaseFrame() // idempotent
	rreq.Recycle()      // releases again internally; must not double-free

	// Pool integrity: another message still arrives intact.
	if _, err := p0.Isend(0, 0, 1, 6, []byte("after"), ModeStandard, false); err != nil {
		t.Fatal(err)
	}
	r2 := p1.Irecv(0, 0, 6)
	r2.Wait()
	if string(r2.Payload) != "after" {
		t.Fatalf("payload after double release: %q", r2.Payload)
	}
}

// TestRecvAfterCloseWithPooledFrames checks that frames delivered before
// Close stay readable: a receive posted after the engine shut down still
// matches and consumes the queued (pooled) frame.
func TestRecvAfterCloseWithPooledFrames(t *testing.T) {
	devs := transport.NewShmJob(2, 0)
	p0 := NewProc(devs[0], Config{})
	p1 := NewProc(devs[1], Config{})
	msg := []byte("pre-close delivery")
	sreq, err := p0.Isend(0, 0, 1, 2, msg, ModeStandard, false)
	if err != nil {
		t.Fatal(err)
	}
	sreq.Wait()
	for p1.PendingUnexpected() == 0 {
	}
	p0.Close()
	p1.Close()
	// The engine is down but the unexpected queue still owns the frame.
	rreq := p1.Irecv(0, 0, 2)
	st := rreq.Wait()
	if st.Bytes != len(msg) || !bytes.Equal(rreq.Payload, msg) {
		t.Fatalf("post-close receive got %q (%d bytes)", rreq.Payload, st.Bytes)
	}
	if _, err := p0.Isend(0, 0, 1, 2, msg, ModeStandard, false); err == nil {
		t.Fatal("send on closed engine must fail")
	}
}

// pingPongAllocs measures the steady-state allocations of one shm
// ping-pong round trip with receive-into buffers and recycled requests.
// The payload goes out pool-recycled (packed once outside the measured
// path, as the binding's pack does) or, with lent, straight from a
// fixed caller-owned buffer on loan. With armed, both ranks record
// every protocol event into a flight recorder.
func pingPongAllocs(t *testing.T, size int, armed, lent bool) float64 {
	t.Helper()
	devs := transport.NewShmJob(2, 0)
	var cfg [2]Config
	if armed {
		cfg[0].Recorder, cfg[1].Recorder = obs.NewRecorder(0, 0), obs.NewRecorder(1, 0)
	}
	p0 := NewProc(devs[0], cfg[0])
	p1 := NewProc(devs[1], cfg[1])
	defer p0.Close()
	defer p1.Close()

	const tag = 11
	send := func(p *Proc, me, peer int, fixed []byte) (*Request, error) {
		if lent {
			return p.IsendLent(0, me, peer, tag, fixed, ModeStandard)
		}
		out := transport.GetBuf(size)
		copy(out, fixed)
		return p.Isend(0, me, peer, tag, out, ModeStandard, true)
	}
	stop := make(chan struct{})
	echoDone := make(chan struct{})
	go func() {
		defer close(echoDone)
		buf := make([]byte, size)
		for {
			rreq := p1.IrecvInto(0, 0, tag, buf, 1)
			rreq.Wait()
			rreq.Recycle()
			select {
			case <-stop:
				return
			default:
			}
			sreq, err := send(p1, 1, 0, buf)
			if err != nil {
				return
			}
			sreq.Wait()
			sreq.Recycle()
		}
	}()

	sendBuf, recvBuf := make([]byte, size), make([]byte, size)
	roundTrip := func() {
		sreq, err := send(p0, 0, 1, sendBuf)
		if err != nil {
			t.Error(err)
			return
		}
		rreq := p0.IrecvInto(0, 1, tag, recvBuf, 1)
		rreq.Wait()
		sreq.Wait()
		rreq.Recycle()
		sreq.Recycle()
	}
	// Warm the pools (buffers, requests) before measuring.
	for i := 0; i < 50; i++ {
		roundTrip()
	}
	allocs := testing.AllocsPerRun(200, roundTrip)
	close(stop)
	// Release the echo loop from its posted receive; it observes stop
	// and exits without replying, so only send.
	if sreq, err := send(p0, 0, 1, sendBuf); err == nil {
		sreq.Wait()
		sreq.Recycle()
	}
	<-echoDone
	return allocs
}

// TestPooledPingPongZeroAllocs is the allocation-regression guard for
// the zero-copy hot path: a steady-state 8 B and 1 KiB shm ping-pong with
// pool-recycled payloads, receive-into buffers and recycled requests
// must not allocate at all — with the flight recorder disarmed (a nil
// pointer and a branch) and armed (a cursor bump and three stores into
// a ring allocated up front) alike.
func TestPooledPingPongZeroAllocs(t *testing.T) {
	for _, size := range []int{8, 1024} { // riding in the header's buffer, and beside it
		for _, armed := range []bool{false, true} {
			allocs := pingPongAllocs(t, size, armed, false)
			// Hard budget: the steady-state hot path is allocation-free. The
			// race detector's sync.Pool instrumentation allocates, so the
			// strict budget only holds on uninstrumented builds.
			if !raceEnabled && allocs > 0 {
				t.Fatalf("pooled %d B ping-pong (recorder armed=%v) allocates %.1f allocs/op, want 0", size, armed, allocs)
			}
			if raceEnabled && allocs > 4 {
				t.Fatalf("pooled %d B ping-pong (recorder armed=%v) allocates %.1f allocs/op under -race, want <= 4", size, armed, allocs)
			}
		}
	}
}

// TestLentPingPongAllocs is the same guard above the eager limit, where
// the loan lives: lending must not allocate — the loan is the request
// itself, not a closure — so a lent 256 KiB rendezvous round trip costs
// no more allocations than the pool-recycled one (whose own few are the
// goroutines that carry CTS and DATA frames off the progress loop).
func TestLentPingPongAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool instrumentation allocates")
	}
	const size = 256 << 10
	pooled := pingPongAllocs(t, size, false, false)
	lent := pingPongAllocs(t, size, false, true)
	if lent > pooled+0.5 {
		t.Fatalf("lent round trip allocates %.1f/op, pool-recycled %.1f/op", lent, pooled)
	}
}

// TestIrecvIntoMisalignedDepositsNothing: a message that is not a whole
// number of elements is a wire-format error for the binding to report;
// like the unpack of an ordinary receive, the engine deposits none of
// it, whole leading elements included.
func TestIrecvIntoMisalignedDepositsNothing(t *testing.T) {
	for name, cfg := range map[string]Config{"eager": {}, "rndv": {EagerLimit: 4}} {
		t.Run(name, func(t *testing.T) {
			p0, p1 := newPair(t, cfg)
			buf := bytes.Repeat([]byte{0xee}, 16)
			rreq := p1.IrecvInto(0, 0, 7, buf, 8)
			sreq, err := p0.Isend(0, 0, 1, 7, []byte("nine-byte"), ModeStandard, false)
			if err != nil {
				t.Fatal(err)
			}
			st := rreq.Wait()
			sreq.Wait()
			if st.Err != nil || st.Bytes != 9 {
				t.Fatalf("status %+v, want the full 9 bytes and no engine error", st)
			}
			if !bytes.Equal(buf, bytes.Repeat([]byte{0xee}, 16)) {
				t.Fatalf("misaligned payload deposited: %q", buf)
			}
		})
	}
}

// TestPoolStatsCounters checks the observability satellite: pooled
// traffic shows up in hit-rate and bytes-copied counters.
func TestPoolStatsCounters(t *testing.T) {
	p0, p1 := newPair(t, Config{})
	copied, gets, zeroCopy := pv(p1, "core.bytes_copied"), pv(p1, "transport.pool_gets"), pv(p1, "core.recvs_zero_copy")
	payload := transport.GetBuf(512)
	if _, err := p0.Isend(0, 0, 1, 21, payload, ModeStandard, true); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	p1.IrecvInto(0, 0, 21, buf, 1).Wait()
	if got := pv(p1, "core.bytes_copied") - copied; got != 512 {
		t.Fatalf("BytesCopied delta %d, want 512", got)
	}
	if pv(p1, "transport.pool_gets") <= gets {
		t.Fatal("pool gets did not advance")
	}
	// Zero-copy handover counting: a classic receive transfers the
	// frame instead of copying.
	if _, err := p0.Isend(0, 0, 1, 22, transport.GetBuf(64), ModeStandard, true); err != nil {
		t.Fatal(err)
	}
	r := p1.Irecv(0, 0, 22)
	r.Wait()
	if pv(p1, "core.recvs_zero_copy") <= zeroCopy {
		t.Fatal("zero-copy receive not counted")
	}
	r.Recycle()
}

// TestConcurrentPoolTraffic hammers the pool from several ranks at once;
// run under -race this guards the recycling handoff.
func TestConcurrentPoolTraffic(t *testing.T) {
	const n = 4
	devs := transport.NewShmJob(n, 0)
	procs := make([]*Proc, n)
	for i, d := range devs {
		procs[i] = NewProc(d, Config{EagerLimit: 512})
	}
	defer func() {
		for _, p := range procs {
			p.Close()
		}
	}()
	const msgs = 200
	var wg sync.WaitGroup
	for me := range procs {
		wg.Add(1)
		go func(me int) {
			defer wg.Done()
			p := procs[me]
			buf := make([]byte, 1024)
			for k := 0; k < msgs; k++ {
				size := 1 + (k*41)%1000 // straddles the eager limit
				dst := (me + 1) % n
				src := (me + n - 1) % n
				out := transport.GetBuf(size)
				for i := range out {
					out[i] = byte(me)
				}
				sreq, err := p.Isend(0, me, dst, k, out, ModeStandard, true)
				if err != nil {
					t.Errorf("isend: %v", err)
					return
				}
				rreq := p.IrecvInto(0, int32(src), int32(k), buf, 1)
				st := rreq.Wait()
				sreq.Wait()
				if st.Err != nil || st.Bytes != size {
					t.Errorf("rank %d msg %d: bytes=%d err=%v", me, k, st.Bytes, st.Err)
					return
				}
				for i := 0; i < st.Bytes; i++ {
					if buf[i] != byte(src) {
						t.Errorf("rank %d msg %d: corrupted at %d", me, k, i)
						return
					}
				}
				rreq.Recycle()
				sreq.Recycle()
			}
		}(me)
	}
	wg.Wait()
}
