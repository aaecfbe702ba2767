package core

import (
	"errors"
	"testing"
	"time"

	"gompi/internal/transport"
)

// loopbackProcs builds n engines over a real TCP loopback mesh, the
// device whose readLoop converts connection close/reset into
// PeerLostError.
func loopbackProcs(t *testing.T, n int) []*Proc {
	t.Helper()
	devs, err := transport.NewLoopbackJob(n)
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]*Proc, n)
	for i, d := range devs {
		procs[i] = NewProc(d, Config{})
	}
	t.Cleanup(func() {
		for _, p := range procs {
			p.Close()
		}
	})
	return procs
}

// TestPeerLossFailsPendingRecv is the does-not-hang half of fault
// tolerance: a receive pinned to a peer whose connection dropped must
// complete with the loss as its error instead of blocking forever.
func TestPeerLossFailsPendingRecv(t *testing.T) {
	procs := loopbackProcs(t, 2)
	rreq := procs[0].Irecv(0, 1, 7)

	procs[1].Close() // peer goes away; rank 0 sees the connection drop

	done := make(chan *Status, 1)
	go func() { done <- rreq.Wait() }()
	var st *Status
	select {
	case st = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("pending receive still blocked after peer loss")
	}
	var pl *transport.PeerLostError
	if st.Err == nil || !errors.As(st.Err, &pl) {
		t.Fatalf("status error = %v, want PeerLostError", st.Err)
	}
	if pl.Peer != 1 || st.SourceGroup != 1 {
		t.Fatalf("loss attributed to peer %d (source %d), want 1", pl.Peer, st.SourceGroup)
	}
	if got := procs[0].Stats().PeersLost.Load(); got != 1 {
		t.Fatalf("PeersLost = %d, want 1", got)
	}
}

// TestPeerLossFailsFastAfterwards: operations naming an already-lost
// peer fail immediately — sends at Isend time, receives at post time.
func TestPeerLossFailsFastAfterwards(t *testing.T) {
	procs := loopbackProcs(t, 2)
	procs[1].Close()

	// Wait for rank 0's engine to notice the loss.
	deadline := time.Now().Add(10 * time.Second)
	for procs[0].Stats().PeersLost.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("engine never observed peer loss")
		}
		time.Sleep(time.Millisecond)
	}

	var pl *transport.PeerLostError
	sreq, err := procs[0].Isend(0, 0, 1, 3, []byte("x"), ModeStandard, false)
	if err == nil || !errors.As(err, &pl) {
		t.Fatalf("Isend to lost peer: err = %v, want PeerLostError", err)
	}
	if st := sreq.Wait(); st.Err == nil {
		t.Fatal("send request to lost peer completed without error")
	}

	rreq := procs[0].Irecv(0, 1, 3)
	if st, ok := rreq.Test(); !ok || st.Err == nil {
		t.Fatalf("receive posted after loss: completed=%v st=%+v, want immediate error", ok, st)
	}

	if _, err := procs[0].Probe(0, 1, 3); err == nil || !errors.As(err, &pl) {
		t.Fatalf("Probe on lost peer: err = %v, want PeerLostError", err)
	}
}

// TestPeerLossSparesSurvivors: losing one peer must not disturb traffic
// with the rest of the world on the same device.
func TestPeerLossSparesSurvivors(t *testing.T) {
	procs := loopbackProcs(t, 3)
	procs[2].Close()

	deadline := time.Now().Add(10 * time.Second)
	for procs[0].Stats().PeersLost.Load() == 0 || procs[1].Stats().PeersLost.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("survivors never observed the loss")
		}
		time.Sleep(time.Millisecond)
	}

	for round := int32(0); round < 10; round++ {
		rreq := procs[1].Irecv(0, 0, round)
		sreq, err := procs[0].Isend(0, 0, 1, int(round), []byte("still here"), ModeStandard, false)
		if err != nil {
			t.Fatalf("round %d: survivor send: %v", round, err)
		}
		sreq.Wait()
		if st := rreq.Wait(); st.Err != nil || string(rreq.Payload) != "still here" {
			t.Fatalf("round %d: survivor recv: %+v payload %q", round, st, rreq.Payload)
		}
		rreq.Recycle()
	}
}

// TestAdvertisedSendOfALostPeerFailsItsReceive: a rendezvous send that
// was advertised, sat unexpected and lost its sender is matched by a later
// receive like any message — matching order is committed — but nobody is
// left to grant, so the receive completes with the loss instead of
// waiting for DATA for ever. (Found by TestMatchOrderAgainstReference.)
func TestAdvertisedSendOfALostPeerFailsItsReceive(t *testing.T) {
	procs := loopbackProcs(t, 2)
	if _, err := procs[1].Isend(0, 1, 0, 9, make([]byte, DefaultEagerLimit+1), ModeStandard, false); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for procs[0].PendingUnexpected() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the advertisement never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	procs[1].Close()
	for !procs[0].PeerDown(1) {
		if time.Now().After(deadline) {
			t.Fatal("engine never observed peer loss")
		}
		time.Sleep(time.Millisecond)
	}
	rreq := procs[0].Irecv(0, AnySource, 9)
	st, ok := rreq.Test()
	var pl *transport.PeerLostError
	if !ok || !errors.As(st.Err, &pl) || st.SourceGroup != 1 || st.Tag != 9 {
		t.Fatalf("receive matching a dead peer's advertisement: completed=%v status %+v, want its loss", ok, st)
	}
}
