package dynproc

import (
	"bytes"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gompi/internal/transport"
)

func TestPortNameRoundTrip(t *testing.T) {
	name := FormatPortName("127.0.0.1:45123", 3, "9f3aabcd")
	addr, epoch, key, err := ParsePortName(name)
	if err != nil {
		t.Fatalf("ParsePortName(%q): %v", name, err)
	}
	if addr != "127.0.0.1:45123" || epoch != 3 || key != "9f3aabcd" {
		t.Fatalf("round trip gave (%q, %d, %q)", addr, epoch, key)
	}
}

func TestPortNameRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"",
		"not a port",
		"http://127.0.0.1:1/ep0/kaa",              // wrong scheme
		"gompi-port://127.0.0.1:1",                // missing path
		"gompi-port://127.0.0.1:1/zz0/kaa",        // bad epoch segment
		"gompi-port://127.0.0.1:1/ep0/aa",         // bad key segment
		"gompi-port://127.0.0.1:1/epnope/kaa",     // non-numeric epoch
		"gompi-port://127.0.0.1:1/ep0/kaa/extras", // trailing segment
	} {
		if _, _, _, err := ParsePortName(bad); err == nil {
			t.Errorf("ParsePortName(%q) accepted garbage", bad)
		}
	}
}

// twoFabrics builds two independent single-rank worlds, each wrapped in
// a dynamic-process fabric, and registers cleanup.
func twoFabrics(t *testing.T) (*Fabric, *Fabric) {
	t.Helper()
	fa := NewFabric(transport.NewShmJob(1, 0)[0])
	fb := NewFabric(transport.NewShmJob(1, 0)[0])
	t.Cleanup(func() { fa.Close(); fb.Close() })
	return fa, fb
}

// join runs the full leader handshake plus both sides' admission and
// returns each side's local peer indices for the other world.
func join(t *testing.T, fa, fb *Fabric, ctxA, ctxB int32) (worldsA, worldsB []int, tktA, tktB *Ticket) {
	t.Helper()
	port, err := fa.OpenPort()
	if err != nil {
		t.Fatalf("OpenPort: %v", err)
	}
	defer port.Close()
	addrA, err := fa.EnsureListener()
	if err != nil {
		t.Fatalf("EnsureListener(A): %v", err)
	}
	addrB, err := fb.EnsureListener()
	if err != nil {
		t.Fatalf("EnsureListener(B): %v", err)
	}
	memA := []Member{{GUID: fa.GUID(), Addr: addrA}}
	memB := []Member{{GUID: fb.GUID(), Addr: addrB}}

	type res struct {
		tkt *Ticket
		err error
	}
	acceptCh := make(chan res, 1)
	go func() {
		tkt, err := fa.AcceptLeader(port, memA, ctxA, 5*time.Second)
		acceptCh <- res{tkt, err}
	}()
	tktB, err = fb.DialLeader(port.Name(), memB, ctxB, 5*time.Second)
	if err != nil {
		t.Fatalf("DialLeader: %v", err)
	}
	ra := <-acceptCh
	if ra.err != nil {
		t.Fatalf("AcceptLeader: %v", ra.err)
	}
	tktA = ra.tkt

	admitA := make(chan res, 1)
	go func() {
		w, err := fa.Admit(tktA, 5*time.Second)
		if err == nil {
			worldsA = w
		}
		admitA <- res{err: err}
	}()
	worldsB, err = fb.Admit(tktB, 5*time.Second)
	if err != nil {
		t.Fatalf("Admit(B): %v", err)
	}
	if ra := <-admitA; ra.err != nil {
		t.Fatalf("Admit(A): %v", ra.err)
	}
	return worldsA, worldsB, tktA, tktB
}

func TestLeaderHandshakeAndAdmit(t *testing.T) {
	fa, fb := twoFabrics(t)
	worldsA, worldsB, tktA, tktB := join(t, fa, fb, 10, 20)

	if tktA.AcceptSide != true || tktB.AcceptSide != false {
		t.Fatalf("accept-side flags: A=%v B=%v", tktA.AcceptSide, tktB.AcceptSide)
	}
	if tktA.RemoteCtxCand != 20 || tktB.RemoteCtxCand != 10 {
		t.Fatalf("context candidates: A saw %d, B saw %d", tktA.RemoteCtxCand, tktB.RemoteCtxCand)
	}
	if len(tktA.Remote) != 1 || tktA.Remote[0].GUID != fb.GUID() {
		t.Fatalf("A's remote member table: %+v", tktA.Remote)
	}
	// Both worlds have one launch-time rank, so the first admitted peer
	// gets local index 1 on each side.
	if len(worldsA) != 1 || worldsA[0] != 1 || len(worldsB) != 1 || worldsB[0] != 1 {
		t.Fatalf("admitted peer indices: A=%v B=%v", worldsA, worldsB)
	}
	if fa.Size() != 2 || fb.Size() != 2 {
		t.Fatalf("fabric sizes after admit: A=%d B=%d", fa.Size(), fb.Size())
	}
	if fa.Epoch() == 0 || fb.Epoch() == 0 {
		t.Fatalf("epochs did not advance: A=%d B=%d", fa.Epoch(), fb.Epoch())
	}
}

func TestFrameSourceRewrittenAcrossLink(t *testing.T) {
	fa, fb := twoFabrics(t)
	_, worldsB, _, _ := join(t, fa, fb, 0, 0)

	// B sends a frame stamped with its own world rank (0 in its world);
	// A must receive it stamped with B's local index in A's numbering.
	frame := transport.GetBuf(16)[:16]
	for i := range frame {
		frame[i] = 0
	}
	frame[0] = 6 // an arbitrary kind byte; [1:5) is the source rank
	if err := fb.Send(worldsB[0], frame); err != nil {
		t.Fatalf("Send over dyn link: %v", err)
	}
	got, err := fa.Recv()
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	defer got.Release()
	if len(got.Data) != 16 {
		t.Fatalf("frame length %d, want 16", len(got.Data))
	}
	src := int(uint32(got.Data[1]) | uint32(got.Data[2])<<8 | uint32(got.Data[3])<<16 | uint32(got.Data[4])<<24)
	if src != 1 {
		t.Fatalf("received frame source %d, want the sender's local index 1", src)
	}
}

func TestPeerLossSurfacesAsPeerLostError(t *testing.T) {
	fa, fb := twoFabrics(t)
	join(t, fa, fb, 0, 0)

	fb.Close()
	got, err := fa.Recv()
	if err == nil {
		got.Release()
		t.Fatalf("Recv returned a frame after peer close; want PeerLostError")
	}
	var pl *transport.PeerLostError
	if !errors.As(err, &pl) {
		t.Fatalf("Recv error %v, want PeerLostError", err)
	}
	if pl.Peer != 1 {
		t.Fatalf("lost peer %d, want local index 1", pl.Peer)
	}
}

func TestDialRejectedOnStaleEpochAndBadKey(t *testing.T) {
	fa, fb := twoFabrics(t)
	addrB, err := fb.EnsureListener()
	if err != nil {
		t.Fatalf("EnsureListener(B): %v", err)
	}
	memB := []Member{{GUID: fb.GUID(), Addr: addrB}}

	port, err := fa.OpenPort()
	if err != nil {
		t.Fatalf("OpenPort: %v", err)
	}
	addrA, _, key, err := ParsePortName(port.Name())
	if err != nil {
		t.Fatalf("parsing own port name: %v", err)
	}

	// Wrong capability key: refused.
	if _, err := fb.DialLeader(FormatPortName(addrA, fa.Epoch(), "deadbeef"), memB, 0, 2*time.Second); err == nil {
		t.Fatalf("dial with a wrong key succeeded")
	}
	// Stale epoch (port minted before a world grew): refused.
	if _, err := fb.DialLeader(FormatPortName(addrA, fa.Epoch()+7, key), memB, 0, 2*time.Second); err == nil {
		t.Fatalf("dial with a stale epoch succeeded")
	}
	port.Close()
	// Closed port: refused.
	if _, err := fb.DialLeader(port.Name(), memB, 0, 2*time.Second); err == nil {
		t.Fatalf("dial to a closed port succeeded")
	}
}

func TestDeviceStatsGrowDynEntry(t *testing.T) {
	fa, fb := twoFabrics(t)
	_, worldsB, _, _ := join(t, fa, fb, 0, 0)

	frame := transport.GetBuf(8)[:8]
	for i := range frame {
		frame[i] = 0
	}
	if err := fb.Send(worldsB[0], frame); err != nil {
		t.Fatalf("Send: %v", err)
	}
	got, err := fa.Recv()
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	got.Release()

	found := false
	for _, ds := range fa.DeviceStats() {
		if ds.Name == "dyn" {
			found = true
			if ds.FramesRecv == 0 {
				t.Fatalf("dyn stats counted no received frames: %+v", ds)
			}
		}
	}
	if !found {
		names := []string{}
		for _, ds := range fa.DeviceStats() {
			names = append(names, ds.Name)
		}
		t.Fatalf("no dyn device entry in stats (have %s)", strings.Join(names, ", "))
	}
}

// loanCount counts how often a loan comes back.
type loanCount struct{ n atomic.Int32 }

func (l *loanCount) Returned() { l.n.Add(1) }

// TestFabricForwardsLoans: toward the launch-time world the fabric
// hands a lent payload to the base device's own capability and its pump
// carries the by-reference frame, loan and all, up to the engine;
// toward a dynamic peer the payload is written to the link and the loan
// is back when SendvLent returns.
func TestFabricForwardsLoans(t *testing.T) {
	fa, fb := twoFabrics(t)
	worldsA, _, _, _ := join(t, fa, fb, 0, 0)
	payload := bytes.Repeat([]byte("loan"), 1024)

	base := &loanCount{}
	if err := fa.SendvLent(0, transport.GetBuf(8), payload, base); err != nil {
		t.Fatal(err)
	}
	f, err := fa.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !f.Lent() || base.n.Load() != 0 {
		t.Fatalf("self frame through the pump: lent=%v, loan returned %d times before Release", f.Lent(), base.n.Load())
	}
	f.Release()
	if n := base.n.Load(); n != 1 {
		t.Fatalf("loan returned %d times after Release, want 1", n)
	}

	dyn := &loanCount{}
	if err := fa.SendvLent(worldsA[0], transport.GetBuf(8), payload, dyn); err != nil {
		t.Fatal(err)
	}
	if n := dyn.n.Load(); n != 1 {
		t.Fatalf("loan over a dynamic link returned %d times by SendvLent's return, want 1", n)
	}
	if f, err = fb.Recv(); err != nil || f.Lent() || !bytes.Equal(f.Data[8:], payload) {
		t.Fatalf("dynamic peer got lent=%v err=%v", f.Lent(), err)
	}
	f.Release()

	gone := &loanCount{}
	if err := fa.SendvLent(9, transport.GetBuf(8), payload, gone); err == nil || gone.n.Load() != 1 {
		t.Fatalf("send to an unknown peer: err=%v, loan returned %d times", err, gone.n.Load())
	}
}
