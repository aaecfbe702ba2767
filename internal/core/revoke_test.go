package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"gompi/internal/transport"
)

// waitStatus waits for req with a test-failure timeout, so a revocation
// bug shows up as a message instead of a hung suite.
func waitStatus(t *testing.T, req *Request) *Status {
	t.Helper()
	done := make(chan *Status, 1)
	go func() { done <- req.Wait() }()
	select {
	case st := <-done:
		return st
	case <-time.After(10 * time.Second):
		t.Fatal("request still blocked")
		return nil
	}
}

// TestRevokeFailsPendingAndFuture: revoking a context completes every
// pinned operation with ErrCommRevoked and fails later ones fast, on
// both the point-to-point contexts of the pair.
func TestRevokeFailsPendingAndFuture(t *testing.T) {
	procs := loopbackProcs(t, 2)
	p := procs[0]

	pending := p.Irecv(0, 1, 7)
	pendingColl := p.Irecv(1, AnySource, AnyTag)
	p.Revoke(0)

	if !p.ContextRevoked(0) {
		t.Fatal("ContextRevoked(0) = false after Revoke")
	}
	for _, req := range []*Request{pending, pendingColl} {
		if st := waitStatus(t, req); !errors.Is(st.Err, ErrCommRevoked) {
			t.Fatalf("pending recv error = %v, want ErrCommRevoked", st.Err)
		}
	}

	// Future operations on the pair fail at post time.
	sreq, err := p.Isend(0, 0, 1, 3, []byte("x"), ModeStandard, false)
	if !errors.Is(err, ErrCommRevoked) {
		t.Fatalf("Isend on revoked ctx: err = %v, want ErrCommRevoked", err)
	}
	if st, ok := sreq.Test(); !ok || !errors.Is(st.Err, ErrCommRevoked) {
		t.Fatalf("send request on revoked ctx: completed=%v err=%v", ok, st.Err)
	}
	rreq := p.Irecv(1, 1, 3)
	if st, ok := rreq.Test(); !ok || !errors.Is(st.Err, ErrCommRevoked) {
		t.Fatalf("recv posted on revoked ctx: completed=%v st=%+v", ok, st)
	}
	if _, err := p.Probe(0, 1, 3); !errors.Is(err, ErrCommRevoked) {
		t.Fatalf("Probe on revoked ctx: err = %v, want ErrCommRevoked", err)
	}
}

// TestRevokePropagates: a revocation issued on one rank poisons the
// context on every member it can reach, without any user traffic.
func TestRevokePropagates(t *testing.T) {
	procs := loopbackProcs(t, 3)

	// Rank 2's pending receive from rank 1 must be poisoned by a
	// revocation that rank 0 issues.
	pending := procs[2].Irecv(0, 1, 9)
	procs[0].Revoke(0)

	if st := waitStatus(t, pending); !errors.Is(st.Err, ErrCommRevoked) {
		t.Fatalf("remote pending recv error = %v, want ErrCommRevoked", st.Err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, p := range procs {
		for !p.ContextRevoked(0) {
			if time.Now().After(deadline) {
				t.Fatalf("rank %d never observed the revocation", p.Rank())
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestRevokeRecoveryTagExempt: recovery-tagged traffic (the agreement
// under Shrink) must flow on a revoked context in both directions.
func TestRevokeRecoveryTagExempt(t *testing.T) {
	procs := loopbackProcs(t, 2)
	procs[0].Revoke(0)
	deadline := time.Now().Add(10 * time.Second)
	for !procs[1].ContextRevoked(0) {
		if time.Now().After(deadline) {
			t.Fatal("rank 1 never observed the revocation")
		}
		time.Sleep(time.Millisecond)
	}

	tag := int(RecoveryTag) | 5
	rreq := procs[1].Irecv(0, 0, int32(tag))
	sreq, err := procs[0].Isend(0, 0, 1, tag, []byte("repair"), ModeStandard, false)
	if err != nil {
		t.Fatalf("recovery-tagged Isend on revoked ctx: %v", err)
	}
	if st := waitStatus(t, sreq); st.Err != nil {
		t.Fatalf("recovery-tagged send error: %v", st.Err)
	}
	if st := waitStatus(t, rreq); st.Err != nil || string(rreq.Payload) != "repair" {
		t.Fatalf("recovery-tagged recv: %+v payload %q", st, rreq.Payload)
	}
	rreq.Recycle()
}

// TestLateArrivalOnRevokedPairIsDropped: an eager message or an RTS
// that reaches a rank after its pair was revoked can never be matched,
// so the engine releases it on arrival instead of queuing it as
// unexpected for ever (ForgetGroup never empties that queue). A
// recovery-tagged arrival on the same pair is still queued.
func TestLateArrivalOnRevokedPairIsDropped(t *testing.T) {
	procs := loopbackProcs(t, 2)
	p0, p1 := procs[0], procs[1]
	p0.Revoke(0)
	eventually(t, "rank 1 observing the revocation", func() bool { return p1.ContextRevoked(0) })

	recovery := RecoveryTag | 5
	env := envelope{srcWorld: 1, srcGroup: 1, tag: 3}
	if err := p1.mux.Sendv(0, buildEagerHdr(false, env, 0), []byte("late"), false); err != nil {
		t.Fatal(err)
	}
	if err := p1.mux.Sendv(0, buildRts(env, 1, 1<<20), nil, false); err != nil {
		t.Fatal(err)
	}
	env.tag = recovery
	if err := p1.mux.Sendv(0, buildEagerHdr(false, env, 0), []byte("repair"), false); err != nil {
		t.Fatal(err)
	}
	// The link keeps order: once a marker on another pair is received,
	// every frame shipped before it has been through rank 0's engine.
	marker := p0.Irecv(2, 1, 1)
	if err := p1.Send(2, 1, 0, 1, []byte("marker"), ModeStandard, false); err != nil {
		t.Fatal(err)
	}
	if st := waitStatus(t, marker); st.Err != nil {
		t.Fatalf("marker: %v", st.Err)
	}
	marker.Recycle()

	if n := p0.PendingUnexpected(); n != 1 {
		t.Fatalf("%d unexpected messages after late arrivals on a revoked pair, want 1 (the recovery-tagged one)", n)
	}
	p0.ForgetGroup(0)
	if n := p0.PendingUnexpected(); n != 1 {
		t.Fatalf("%d unexpected messages after ForgetGroup, want 1", n)
	}
	rreq := p0.Irecv(0, 1, recovery)
	if st := waitStatus(t, rreq); st.Err != nil || string(rreq.Payload) != "repair" {
		t.Fatalf("recovery-tagged recv: %+v payload %q", st, rreq.Payload)
	}
	rreq.Recycle()
	if n := p0.PendingUnexpected(); n != 0 {
		t.Fatalf("%d unexpected messages left, want 0", n)
	}
}

// TestRevokeIdempotentAndWildcardNegativeTags: re-revoking is a no-op,
// and the wildcard tag constants (negative, so naively carrying bit 30)
// must not be mistaken for recovery traffic.
func TestRevokeIdempotentAndWildcardNegativeTags(t *testing.T) {
	if isRecoveryTag(AnyTag) || isRecoveryTag(AnySource) {
		t.Fatal("negative wildcard misclassified as recovery tag")
	}
	procs := loopbackProcs(t, 2)
	p := procs[0]
	p.Revoke(0)
	p.Revoke(0) // dup: must not double-complete or re-flood

	// A wildcard receive posted after revocation fails fast.
	rreq := p.Irecv(0, AnySource, AnyTag)
	if st, ok := rreq.Test(); !ok || !errors.Is(st.Err, ErrCommRevoked) {
		t.Fatalf("wildcard recv on revoked ctx: completed=%v st=%+v", ok, st)
	}
}

// TestRevokeReachesDerivedPairs: a pair linked to a parent (Derive) is
// revoked with it — on the member that revokes, and on a member that
// learns of the revocation only from the notice — and a link made after
// the parent's revocation revokes the child at once; ForgetGroup drops
// the link.
func TestRevokeReachesDerivedPairs(t *testing.T) {
	procs := loopbackProcs(t, 2)
	for _, p := range procs {
		p.Derive(0, 10)
	}
	pending := []*Request{procs[0].Irecv(10, 1, 5), procs[1].Irecv(10, 0, 5)}
	procs[0].Revoke(0)
	for rank, req := range pending {
		if st := waitStatus(t, req); !errors.Is(st.Err, ErrCommRevoked) {
			t.Errorf("rank %d: receive on the derived pair = %v, want ErrCommRevoked", rank, st.Err)
		}
	}
	procs[1].Derive(0, 12)
	if !procs[1].ContextRevoked(12) {
		t.Error("a pair linked to a revoked parent is not revoked")
	}
	procs[1].ForgetGroup(10)
	procs[1].ForgetGroup(12)
	procs[1].mu.Lock()
	defer procs[1].mu.Unlock()
	if n := len(procs[1].parentOf); n != 0 {
		t.Errorf("%d links left after ForgetGroup", n)
	}
}

// TestDerivedContextPeerLoss: with a registered group table, a receive
// on a derived context pinned to a dead member's *group* rank is failed
// by the engine, proving attribution works through the rank remap.
func TestDerivedContextPeerLoss(t *testing.T) {
	procs := loopbackProcs(t, 3)
	const base = 4
	// Derived comm {world 0, world 2}: group rank 1 is world rank 2.
	procs[0].RegisterGroup(base, []int{0, 2})

	rreq := procs[0].Irecv(base, 1, 3)
	procs[2].Close()

	if st := waitStatus(t, rreq); st.Err == nil {
		t.Fatal("derived-ctx recv pinned to dead peer never failed")
	} else {
		var pl *transport.PeerLostError
		if !errors.As(st.Err, &pl) || pl.Peer != 2 {
			t.Fatalf("derived-ctx recv error = %v, want loss of world rank 2", st.Err)
		}
	}
	if got := procs[0].DownPeers(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("DownPeers = %v, want [2]", got)
	}
	if !procs[0].PeerDown(2) || procs[0].PeerDown(1) {
		t.Fatal("PeerDown attribution wrong")
	}
}

// TestFailedRequestObserversIdempotent: once a request completed with a
// failure, every completion API — Wait, repeated Wait, Test, WaitCtx —
// must report the same terminal status without blocking,
// double-completing, or double-releasing pooled storage.
func TestFailedRequestObserversIdempotent(t *testing.T) {
	procs := loopbackProcs(t, 2)
	rreq := procs[0].Irecv(0, 1, 7)
	other := procs[0].Irecv(0, AnySource, 8) // never completes
	procs[1].Close()

	st1 := waitStatus(t, rreq)
	if st1.Err == nil {
		t.Fatal("recv pinned to dead peer completed cleanly")
	}
	st2 := rreq.Wait() // second Wait must return immediately
	if st2 != st1 || !errors.Is(st2.Err, st1.Err) {
		t.Fatalf("second Wait: %+v, want the same terminal status", st2)
	}
	if st, ok := rreq.Test(); !ok || st.Err == nil {
		t.Fatalf("Test after failure: ok=%v st=%+v", ok, st)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if st, err := rreq.WaitCtx(ctx); err != nil || st.Err == nil {
		t.Fatalf("WaitCtx after failure: st=%+v err=%v", st, err)
	}
	if _, done := other.Test(); done {
		t.Fatal("the request nobody answers completed")
	}
	// Recycle exactly once; the pooled frame (nil here) must not be
	// double-released by the observers above.
	rreq.Recycle()
	procs[0].Cancel(other)
}

// TestFailedSendObserversIdempotent is the send-side twin: a rendezvous
// send whose peer dies completes with the loss once, observable through
// every API, with its retained payload returned to the pool exactly once.
func TestFailedSendObserversIdempotent(t *testing.T) {
	procs := loopbackProcs(t, 2)
	// Rendezvous-sized payload so the send parks awaiting CTS.
	payload := transport.GetBuf(DefaultEagerLimit + 1)
	sreq, err := procs[0].Isend(0, 0, 1, 7, payload, ModeStandard, true)
	if err != nil {
		t.Fatal(err)
	}
	procs[1].Close()

	st1 := waitStatus(t, sreq)
	if st1.Err == nil {
		t.Fatal("rendezvous send to dead peer completed cleanly")
	}
	if st, ok := sreq.Test(); !ok || st.Err == nil {
		t.Fatalf("Test after send failure: ok=%v st=%+v", ok, st)
	}
	st2 := sreq.Wait()
	if st2 != st1 {
		t.Fatal("second Wait returned a different status")
	}
	sreq.Recycle()
}
