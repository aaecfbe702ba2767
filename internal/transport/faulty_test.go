package transport

import (
	"errors"
	"testing"
	"time"
)

func TestParseFaultPlan(t *testing.T) {
	plan, err := ParseFaultPlan("rank=2,kill-after=40,kill=exit,drop-peer=1,drop-peer=3,delay=2ms")
	if err != nil {
		t.Fatal(err)
	}
	if plan.Rank != 2 || plan.KillAfterSends != 40 || !plan.Exit ||
		!plan.DropPeers[1] || !plan.DropPeers[3] || plan.SendDelay != 2*time.Millisecond {
		t.Fatalf("parsed plan = %+v", plan)
	}
	if p, err := ParseFaultPlan(""); err != nil || !p.Zero() || p.Rank != -1 {
		t.Fatalf("empty spec: plan=%+v err=%v", p, err)
	}
	for _, bad := range faultPlansRefused {
		if _, err := ParseFaultPlan(bad); err == nil {
			t.Errorf("ParseFaultPlan(%q) accepted", bad)
		}
	}
}

// faultPlansRefused are plans that say nothing a fault can do: malformed,
// or well-formed but unable ever to fire (no rank below -1 exists, and a
// delay cannot be negative).
var faultPlansRefused = []string{"kill-after=x", "kill=maybe", "rank", "frob=1", "delay=fast", "rank=-7", "delay=-1s"}

// FuzzParseFaultPlan: GOMPI_FAULT comes from outside the program. Parsing
// any string must return, and a plan it accepts must be one that can
// fire: its rank is a world rank or -1, its counts and delay are not
// negative.
func FuzzParseFaultPlan(f *testing.F) {
	f.Add("rank=2,kill-after=40,kill=exit,drop-peer=1,drop-peer=3,delay=2ms")
	f.Add("")
	f.Add("rank=-1, kill=close")
	for _, bad := range faultPlansRefused {
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, s string) {
		plan, err := ParseFaultPlan(s)
		if err != nil {
			return
		}
		if plan.Rank < -1 || plan.KillAfterSends < 0 || plan.SendDelay < 0 {
			t.Fatalf("ParseFaultPlan(%q) accepted a plan that cannot fire: %+v", s, plan)
		}
	})
}

func TestFaultyRankFilterAndZeroPlan(t *testing.T) {
	devs := NewShmJob(2, 0)
	defer devs[0].Close()
	defer devs[1].Close()
	if d := NewFaulty(devs[0], FaultPlan{Rank: -1}); d != devs[0] {
		t.Fatal("zero plan must return the inner device unwrapped")
	}
	if d := NewFaulty(devs[0], FaultPlan{Rank: 1, KillAfterSends: 1}); d != devs[0] {
		t.Fatal("plan pinned to another rank must return the inner device unwrapped")
	}
	if _, ok := NewFaulty(devs[0], FaultPlan{Rank: 0, KillAfterSends: 1}).(*Faulty); !ok {
		t.Fatal("matching rank must wrap")
	}
}

// TestFaultyKillAfterSends is the deterministic death trigger: exactly N
// frames reach the peer, then the endpoint dies (default action: close
// the inner device) and the peer observes the loss.
func TestFaultyKillAfterSends(t *testing.T) {
	devs, err := NewLoopbackJob(2)
	if err != nil {
		t.Fatal(err)
	}
	defer devs[0].Close()
	const n = 3
	f := NewFaulty(devs[1], FaultPlan{Rank: 1, KillAfterSends: n}).(*Faulty)
	defer f.Close()

	for i := 0; i < n+2; i++ {
		if err := f.Send(0, []byte{byte(i)}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if !f.Killed() {
		t.Fatal("kill trigger did not fire")
	}

	for i := 0; i < n; i++ {
		fr, err := devs[0].Recv()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if len(fr.Data) != 1 || fr.Data[0] != byte(i) {
			t.Fatalf("frame %d: got %v", i, fr.Data)
		}
		fr.Release()
	}
	// The next event on the survivor must be the loss, not a 4th frame.
	for {
		fr, err := devs[0].Recv()
		if err == nil {
			t.Fatalf("received frame %v after the kill point", fr.Data)
		}
		var pl *PeerLostError
		if errors.As(err, &pl) {
			if pl.Peer != 1 {
				t.Fatalf("loss attributed to peer %d, want 1", pl.Peer)
			}
			return
		}
		t.Fatalf("survivor Recv: %v, want PeerLostError", err)
	}
}

func TestFaultyOnKillHook(t *testing.T) {
	devs := NewShmJob(1, 0)
	fired := 0
	f := NewFaulty(devs[0], FaultPlan{Rank: -1, KillAfterSends: 1, OnKill: func() { fired++ }}).(*Faulty)
	defer devs[0].Close()
	for i := 0; i < 4; i++ {
		f.Send(0, []byte("x")) //nolint:errcheck
	}
	if fired != 1 {
		t.Fatalf("OnKill fired %d times, want exactly once", fired)
	}
}

// TestFaultyDropPeer: outbound frames to the dropped peer vanish while
// other destinations are untouched.
func TestFaultyDropPeer(t *testing.T) {
	devs := NewShmJob(3, 0)
	for _, d := range devs {
		defer d.Close()
	}
	f := NewFaulty(devs[0], FaultPlan{Rank: 0, DropPeers: map[int]bool{1: true}})

	if err := f.Send(1, []byte("dropped")); err != nil {
		t.Fatal(err)
	}
	if err := f.Send(2, []byte("kept")); err != nil {
		t.Fatal(err)
	}

	got, err := devs[2].Recv()
	if err != nil || string(got.Data) != "kept" {
		t.Fatalf("rank 2 recv: %q, %v", got.Data, err)
	}
	got.Release()

	arrived := make(chan Frame, 1)
	go func() {
		if fr, err := devs[1].Recv(); err == nil {
			arrived <- fr
		}
	}()
	select {
	case fr := <-arrived:
		t.Fatalf("dropped frame %q reached rank 1", fr.Data)
	case <-time.After(50 * time.Millisecond):
	}
}
