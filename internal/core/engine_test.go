package core

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"gompi/internal/transport"
)

func newPair(t *testing.T, cfg Config) (*Proc, *Proc) {
	t.Helper()
	devs := transport.NewShmJob(2, 0)
	p0 := NewProc(devs[0], cfg)
	p1 := NewProc(devs[1], cfg)
	t.Cleanup(func() {
		p0.Close()
		p1.Close()
	})
	return p0, p1
}

// pv reads one of p's performance variables by name; an unknown name
// reads as 0.
func pv(p *Proc, name string) uint64 {
	v, _ := p.Obs().Value(name)
	return uint64(v)
}

// failPeer is pl arriving through p's mailbox, whoever drives progress.
func (p *Proc) failPeer(pl *transport.PeerLostError) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.failPeerLocked(pl)
}

// failAll is the terminal error err arriving through p's mailbox.
func (p *Proc) failAll(err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.failAllLocked(err)
}

func TestEagerSendRecv(t *testing.T) {
	p0, p1 := newPair(t, Config{})
	payload := []byte("hello engine")
	sreq, err := p0.Isend(0, 0, 1, 42, payload, ModeStandard, false)
	if err != nil {
		t.Fatal(err)
	}
	sreq.Wait()
	rreq := p1.Irecv(0, 0, 42)
	st := rreq.Wait()
	if !bytes.Equal(rreq.Payload, payload) {
		t.Fatalf("payload %q", rreq.Payload)
	}
	if st.SourceGroup != 0 || st.Tag != 42 || st.Bytes != len(payload) {
		t.Fatalf("status %+v", st)
	}
}

func TestRendezvousLargeMessage(t *testing.T) {
	p0, p1 := newPair(t, Config{EagerLimit: 64})
	payload := make([]byte, 10_000)
	for i := range payload {
		payload[i] = byte(i)
	}
	sreq, err := p0.Isend(0, 0, 1, 7, payload, ModeStandard, false)
	if err != nil {
		t.Fatal(err)
	}
	// The send must NOT complete before the receive is posted
	// (rendezvous holds the payload).
	if _, done := sreq.Test(); done {
		t.Fatal("rendezvous send completed without a matching receive")
	}
	rreq := p1.Irecv(0, 0, 7)
	st := rreq.Wait()
	sreq.Wait()
	if st.Bytes != len(payload) || !bytes.Equal(rreq.Payload, payload) {
		t.Fatal("rendezvous payload corrupted")
	}
}

func TestForcedRendezvous(t *testing.T) {
	// Negative EagerLimit: even 1-byte messages use RTS/CTS.
	p0, p1 := newPair(t, Config{EagerLimit: -1})
	sreq, err := p0.Isend(0, 0, 1, 1, []byte{9}, ModeStandard, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, done := sreq.Test(); done {
		t.Fatal("forced rendezvous completed eagerly")
	}
	rreq := p1.Irecv(0, 0, 1)
	rreq.Wait()
	sreq.Wait()
	if rreq.Payload[0] != 9 {
		t.Fatal("payload lost")
	}
}

func TestSyncSendWaitsForMatch(t *testing.T) {
	p0, p1 := newPair(t, Config{})
	sreq, err := p0.Isend(0, 0, 1, 3, []byte("sync"), ModeSync, false)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if _, done := sreq.Test(); done {
		t.Fatal("Ssend completed before the receive was posted")
	}
	rreq := p1.Irecv(0, 0, 3)
	rreq.Wait()
	sreq.Wait() // must now complete via the matched ack
}

func TestWildcards(t *testing.T) {
	p0, p1 := newPair(t, Config{})
	if _, err := p0.Isend(0, 0, 1, 5, []byte("a"), ModeStandard, false); err != nil {
		t.Fatal(err)
	}
	rreq := p1.Irecv(0, AnySource, AnyTag)
	st := rreq.Wait()
	if st.SourceGroup != 0 || st.Tag != 5 {
		t.Fatalf("wildcard status %+v", st)
	}
}

func TestMatchingOrder(t *testing.T) {
	p0, p1 := newPair(t, Config{})
	for i := 0; i < 50; i++ {
		if _, err := p0.Isend(0, 0, 1, 9, []byte{byte(i)}, ModeStandard, false); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		rreq := p1.Irecv(0, 0, 9)
		rreq.Wait()
		if rreq.Payload[0] != byte(i) {
			t.Fatalf("message %d overtaken by %d", i, rreq.Payload[0])
		}
	}
}

func TestContextSeparation(t *testing.T) {
	p0, p1 := newPair(t, Config{})
	// Same (src, tag), two contexts: each receive pulls from its own.
	if _, err := p0.Isend(4, 0, 1, 1, []byte("ctx4"), ModeStandard, false); err != nil {
		t.Fatal(err)
	}
	if _, err := p0.Isend(6, 0, 1, 1, []byte("ctx6"), ModeStandard, false); err != nil {
		t.Fatal(err)
	}
	r6 := p1.Irecv(6, 0, 1)
	r6.Wait()
	if string(r6.Payload) != "ctx6" {
		t.Fatalf("ctx6 got %q", r6.Payload)
	}
	r4 := p1.Irecv(4, 0, 1)
	r4.Wait()
	if string(r4.Payload) != "ctx4" {
		t.Fatalf("ctx4 got %q", r4.Payload)
	}
}

func TestPostedBeforeArrival(t *testing.T) {
	p0, p1 := newPair(t, Config{})
	rreq := p1.Irecv(0, 0, 2)
	go func() {
		time.Sleep(5 * time.Millisecond)
		p0.Isend(0, 0, 1, 2, []byte("late"), ModeStandard, false) //nolint:errcheck
	}()
	st := rreq.Wait()
	if st.Bytes != 4 {
		t.Fatalf("status %+v", st)
	}
}

func TestProbeAndIprobe(t *testing.T) {
	p0, p1 := newPair(t, Config{})
	if _, ok, err := p1.Iprobe(0, AnySource, AnyTag); ok || err != nil {
		t.Fatalf("Iprobe saw a ghost message (%v)", err)
	}
	if _, err := p0.Isend(0, 0, 1, 11, []byte("probe me"), ModeStandard, false); err != nil {
		t.Fatal(err)
	}
	st, err := p1.Probe(0, AnySource, 11)
	if err != nil {
		t.Fatal(err)
	}
	if st.Bytes != 8 || st.Tag != 11 {
		t.Fatalf("probe status %+v", st)
	}
	// The message is still there.
	if _, ok, err := p1.Iprobe(0, 0, 11); !ok || err != nil {
		t.Fatalf("Iprobe lost the message after Probe (%v)", err)
	}
	rreq := p1.Irecv(0, 0, 11)
	rreq.Wait()
	if p1.PendingUnexpected() != 0 {
		t.Fatal("unexpected queue not drained")
	}
}

func TestProbeSeesRendezvousSize(t *testing.T) {
	p0, p1 := newPair(t, Config{EagerLimit: 16})
	payload := make([]byte, 1000)
	if _, err := p0.Isend(0, 0, 1, 13, payload, ModeStandard, false); err != nil {
		t.Fatal(err)
	}
	st, err := p1.Probe(0, 0, 13)
	if err != nil {
		t.Fatal(err)
	}
	if st.Bytes != 1000 {
		t.Fatalf("probe of RTS advertises %d bytes, want 1000", st.Bytes)
	}
	rreq := p1.Irecv(0, 0, 13)
	rreq.Wait()
}

func TestCancelRecv(t *testing.T) {
	_, p1 := newPair(t, Config{})
	rreq := p1.Irecv(0, 0, 99)
	if !p1.Cancel(rreq) {
		t.Fatal("cancel of unmatched receive failed")
	}
	st := rreq.Wait()
	if !st.Cancelled {
		t.Fatal("status not marked cancelled")
	}
	// Cancelling again is a no-op.
	if p1.Cancel(rreq) {
		t.Fatal("double cancel succeeded")
	}
}

func TestCancelSendRendezvous(t *testing.T) {
	p0, _ := newPair(t, Config{EagerLimit: -1})
	sreq, err := p0.Isend(0, 0, 1, 1, []byte("never"), ModeStandard, false)
	if err != nil {
		t.Fatal(err)
	}
	if !p0.Cancel(sreq) {
		t.Fatal("cancel of ungran rendezvous send failed")
	}
	if st := sreq.Wait(); !st.Cancelled {
		t.Fatal("send status not cancelled")
	}
}

func TestWaitAny(t *testing.T) {
	p0, p1 := newPair(t, Config{})
	r1 := p1.Irecv(0, 0, 21)
	r2 := p1.Irecv(0, 0, 22)
	go func() {
		time.Sleep(5 * time.Millisecond)
		p0.Isend(0, 0, 1, 22, []byte("two"), ModeStandard, false) //nolint:errcheck
	}()
	// Waiting for any of several requests is one Await over their
	// completions.
	completed := func(r *Request) bool { _, ok := r.Test(); return ok }
	p1.Await(func() bool { return completed(r1) || completed(r2) })
	if completed(r1) {
		t.Fatal("r1 completed; only r2's message was sent")
	}
	if st, ok := r2.Test(); !ok || st.Tag != 22 {
		t.Fatalf("r2 after the Await: ok=%v st=%+v", ok, st)
	}
	p1.Cancel(r1)
	awaited := make(chan struct{})
	go func() { p1.Await(func() bool { return completed(r1) }); close(awaited) }()
	select {
	case <-awaited:
	case <-time.After(5 * time.Second):
		t.Fatal("an Await on cancelled r1 never returned")
	}
}

func TestConcurrentTraffic(t *testing.T) {
	devs := transport.NewShmJob(4, 0)
	procs := make([]*Proc, 4)
	for i, d := range devs {
		procs[i] = NewProc(d, Config{EagerLimit: 128})
	}
	defer func() {
		for _, p := range procs {
			p.Close()
		}
	}()
	const msgs = 100
	var wg sync.WaitGroup
	for me := range procs {
		wg.Add(1)
		go func(me int) {
			defer wg.Done()
			p := procs[me]
			var reqs []*Request
			for k := 0; k < msgs; k++ {
				for dst := range procs {
					if dst == me {
						continue
					}
					size := 1 + (k*37)%300 // straddles the eager limit
					payload := bytes.Repeat([]byte{byte(me)}, size)
					sreq, err := p.Isend(0, me, dst, k, payload, ModeStandard, false)
					if err != nil {
						t.Errorf("isend: %v", err)
						return
					}
					reqs = append(reqs, sreq)
				}
			}
			for k := 0; k < msgs; k++ {
				for src := range procs {
					if src == me {
						continue
					}
					rreq := p.Irecv(0, int32(src), int32(k))
					reqs = append(reqs, rreq)
				}
			}
			for _, r := range reqs {
				r.Wait()
			}
		}(me)
	}
	wg.Wait()
}

func TestContextAllocation(t *testing.T) {
	p0, _ := newPair(t, Config{})
	base := p0.AllocContexts()
	if base < 2 {
		t.Fatalf("initial context base %d reserved for world", base)
	}
	p0.CommitContexts(base)
	if next := p0.AllocContexts(); next != base+2 {
		t.Fatalf("after commit: %d, want %d", next, base+2)
	}
	// Commit of an older base must not move the counter backwards.
	p0.CommitContexts(base - 2)
	if next := p0.AllocContexts(); next != base+2 {
		t.Fatalf("backwards commit moved counter to %d", next)
	}
}

// TestContextIdsExhausted: an engine hands out MaxContextPairs context
// pairs and no more. Past the last, every member's candidate is the same
// base no pair has, so the agreed base is refused on every member alike,
// and the counter stays where it was.
func TestContextIdsExhausted(t *testing.T) {
	const last = 2*MaxContextPairs - 2 // the base of the last pair
	p0, p1 := newPair(t, Config{})
	for _, p := range []*Proc{p0, p1} {
		p.mu.Lock()
		p.nextCtx = last - 2
		p.mu.Unlock()
	}
	for _, want := range []int32{last - 2, last} {
		base := max(p0.AllocContexts(), p1.AllocContexts())
		if base != want {
			t.Fatalf("agreed base %d, want %d", base, want)
		}
		for _, p := range []*Proc{p0, p1} {
			if err := p.CommitContexts(base); err != nil {
				t.Fatalf("commit of base %d: %v", base, err)
			}
		}
	}
	for round := 0; round < 2; round++ {
		base := max(p0.AllocContexts(), p1.AllocContexts())
		for _, p := range []*Proc{p0, p1} {
			if err := p.CommitContexts(base); !errors.Is(err, ErrContextsExhausted) {
				t.Fatalf("commit of base %d past the last pair: %v, want ErrContextsExhausted", base, err)
			}
		}
	}
	if err := p0.CommitContexts(-2); !errors.Is(err, ErrContextsExhausted) {
		t.Fatalf("commit of a negative base: %v", err)
	}
}

func TestCloseIdempotent(t *testing.T) {
	devs := transport.NewShmJob(2, 0)
	p := NewProc(devs[0], Config{})
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	devs[1].Close()
}

func TestStatsProtocolSelection(t *testing.T) {
	p0, p1 := newPair(t, Config{EagerLimit: 64})
	// Small standard: eager. Large standard: rendezvous. Small sync.
	small := make([]byte, 16)
	large := make([]byte, 1000)
	r1 := p1.Irecv(0, 0, 1) // posted before arrival
	sreq, err := p0.Isend(0, 0, 1, 1, small, ModeStandard, false)
	if err != nil {
		t.Fatal(err)
	}
	r1.Wait()
	sreq.Wait()
	if sreq, err = p0.Isend(0, 0, 1, 2, large, ModeStandard, false); err != nil {
		t.Fatal(err)
	}
	r2 := p1.Irecv(0, 0, 2)
	r2.Wait()
	sreq.Wait()
	if sreq, err = p0.Isend(0, 0, 1, 3, small, ModeSync, false); err != nil {
		t.Fatal(err)
	}
	r3 := p1.Irecv(0, 0, 3) // arrives unexpected first? ordering: sync sent before post
	r3.Wait()
	sreq.Wait()

	eager, rndv, ssend := pv(p0, "core.sends_eager"), pv(p0, "core.sends_rndv"), pv(p0, "core.sends_sync")
	if eager != 1 || rndv != 1 || ssend != 1 {
		t.Fatalf("sender stats: eager=%d rndv=%d sync=%d", eager, rndv, ssend)
	}
	if got := pv(p0, "core.bytes_sent"); got != 16+1000+16 {
		t.Fatalf("bytes sent: %d", got)
	}
	matched, unexpected := pv(p1, "core.recvs_matched"), pv(p1, "core.recvs_unexpected")
	if matched+unexpected != 3 {
		t.Fatalf("receiver stats: matched=%d unexpected=%d", matched, unexpected)
	}
	if matched < 1 {
		t.Fatalf("posted-first receive not counted as matched: matched=%d unexpected=%d", matched, unexpected)
	}
	if got := pv(p1, "core.bytes_recv"); got != 16+1000+16 {
		t.Fatalf("bytes recv: %d", got)
	}
}

func TestStatsCancelled(t *testing.T) {
	_, p1 := newPair(t, Config{})
	r := p1.Irecv(0, 0, 50)
	p1.Cancel(r)
	if got := pv(p1, "core.cancelled"); got != 1 {
		t.Fatalf("cancelled count %d", got)
	}
}

// BenchmarkCoreRoundTrip is the ladder's core rung in tier-1: an 8-byte
// Isend/Irecv/Wait ping-pong between two engines on a chan job, one
// round trip per op. Its gap to BenchmarkMuxPingPong
// (internal/transport) is what the engine adds to a message.
func BenchmarkCoreRoundTrip(b *testing.B) {
	devs := transport.NewShmJob(2, 0)
	p0, p1 := NewProc(devs[0], Config{}), NewProc(devs[1], Config{})
	defer p0.Close()
	defer p1.Close()
	const tag = 3
	send := func(p *Proc, me, peer int) {
		sreq, err := p.Isend(0, me, peer, tag, transport.GetBuf(8), ModeStandard, true)
		if err != nil {
			b.Error(err)
		}
		sreq.Wait()
		sreq.Recycle()
	}
	recv := func(p *Proc, peer int32) {
		rreq := p.Irecv(0, peer, tag)
		rreq.Wait()
		rreq.Recycle()
	}
	echoed := make(chan struct{})
	go func() {
		defer close(echoed)
		for i := 0; i < b.N; i++ {
			recv(p1, 0)
			send(p1, 1, 0)
		}
	}()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		send(p0, 0, 1)
		recv(p0, 1)
	}
	<-echoed
}
