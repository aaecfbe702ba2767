package dynproc

import (
	"encoding/binary"
	"errors"
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
		"gompi-port://h:1/ep0/k%25",               // escaped key: formats back as k%
		"gompi-port://u@h:1/ep0/kaa",              // userinfo
		"gompi-port://h:1/ep0/kaa?x",              // query
		"gompi-port://h:1/ep0/kaa#x",              // fragment
		"gompi-port://h:1/ep+5/kaa",               // signed epoch
		"gompi-port://h:1/ep05/kaa",               // padded epoch
		"gompi-port://h:1/ep0/kAA",                // not the hex randomHex makes
	} {
		if _, _, _, err := ParsePortName(bad); err == nil {
			t.Errorf("ParsePortName(%q) accepted garbage", bad)
		}
	}
}

// FuzzParsePortName: a port name comes from another program. Any name
// ParsePortName accepts is canonical — FormatPortName writes the same
// triple back as that very name.
func FuzzParsePortName(f *testing.F) {
	f.Add(FormatPortName("127.0.0.1:45123", 3, "9f3aabcd"))
	f.Add(FormatPortName("[::1]:7", 0, randomHex(16)))
	f.Add("gompi-port://h:1/ep0/k%25")
	f.Add("gompi-port://u@h:1/ep+5/kaa?x")
	f.Fuzz(func(t *testing.T, name string) {
		addr, epoch, key, err := ParsePortName(name)
		if err != nil {
			return
		}
		again := FormatPortName(addr, epoch, key)
		a2, e2, k2, err := ParsePortName(again)
		if again != name || err != nil || a2 != addr || e2 != epoch || k2 != key {
			t.Fatalf("ParsePortName(%q) = (%q, %d, %q), which formats as %q and parses as (%q, %d, %q), %v",
				name, addr, epoch, key, again, a2, e2, k2, err)
		}
	})
}

// endpoint is one single-rank world: the mux its engine would read and
// the join side that admits peers to it.
type endpoint struct {
	*Fabric
	mux *transport.Mux
}

func (e endpoint) shutdown() {
	e.mux.Close()
	e.Fabric.Close()
}

// twoFabrics builds two independent single-rank worlds and registers
// cleanup.
func twoFabrics(t *testing.T) (endpoint, endpoint) {
	t.Helper()
	world := func() endpoint {
		mux := transport.MuxOver(transport.NewShmJob(1, 0)[0])
		return endpoint{NewFabric(mux), mux}
	}
	fa, fb := world(), world()
	t.Cleanup(func() { fa.shutdown(); fb.shutdown() })
	return fa, fb
}

// join runs the full leader handshake plus both sides' admission and
// returns each side's local peer indices for the other world.
func join(t *testing.T, fa, fb endpoint, ctxA, ctxB int32) (worldsA, worldsB []int, tktA, tktB *Ticket) {
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
		tkt, err := fa.AcceptLeader(port, memA, ctxA, 1024, 5*time.Second)
		acceptCh <- res{tkt, err}
	}()
	tktB, err = fb.DialLeader(port.Name(), memB, ctxB, 1024, 5*time.Second)
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
	if fa.mux.Size() != 2 || fb.mux.Size() != 2 {
		t.Fatalf("world sizes after admit: A=%d B=%d", fa.mux.Size(), fb.mux.Size())
	}
	if fa.Epoch() == 0 || fb.Epoch() == 0 {
		t.Fatalf("epochs did not advance: A=%d B=%d", fa.Epoch(), fb.Epoch())
	}
}

// TestAdmittedLinkIsWiredIntoTheMux: what Admit hands the mux is a
// working link — frames cross it with their source rank rewritten to
// the receiver's index for the sender (core.PatchFrameSource), and the
// peer's death surfaces as its loss, which Admit then refuses to reuse.
// The link's own behaviour is transport's mux_test.
func TestAdmittedLinkIsWiredIntoTheMux(t *testing.T) {
	fa, fb := twoFabrics(t)
	_, worldsB, tktA, _ := join(t, fa, fb, 0, 0)

	// B sends a frame stamped with its own world rank (0 in its world);
	// A must receive it stamped with B's local index in A's numbering.
	frame := make([]byte, 16)
	frame[0] = 6 // an arbitrary kind byte; [1:5) is the source rank
	if err := fb.mux.Send(worldsB[0], frame); err != nil {
		t.Fatalf("Send over the admitted link: %v", err)
	}
	got, err := fa.mux.Recv()
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if src := binary.LittleEndian.Uint32(got.Data[1:5]); len(got.Data) != 16 || src != 1 {
		t.Fatalf("received %d bytes from source %d, want 16 from the sender's local index 1", len(got.Data), src)
	}
	got.Release()

	fb.shutdown()
	got, err = fa.mux.Recv()
	var pl *transport.PeerLostError
	if !errors.As(err, &pl) || pl.Peer != 1 {
		got.Release()
		t.Fatalf("Recv after the peer closed: %v, want PeerLostError for local index 1", err)
	}
	if _, err := fa.Admit(tktA, time.Second); !errors.As(err, &pl) || pl.Peer != 1 {
		t.Fatalf("Admit of a member whose link died: %v, want PeerLostError", err)
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
	if _, err := fb.DialLeader(FormatPortName(addrA, fa.Epoch(), "deadbeef"), memB, 0, 1024, 2*time.Second); err == nil {
		t.Fatalf("dial with a wrong key succeeded")
	}
	// Stale epoch (port minted before a world grew): refused.
	if _, err := fb.DialLeader(FormatPortName(addrA, fa.Epoch()+7, key), memB, 0, 1024, 2*time.Second); err == nil {
		t.Fatalf("dial with a stale epoch succeeded")
	}
	port.Close()
	// Closed port: refused.
	if _, err := fb.DialLeader(port.Name(), memB, 0, 1024, 2*time.Second); err == nil {
		t.Fatalf("dial to a closed port succeeded")
	}
}
