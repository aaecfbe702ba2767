//go:build unix

package transport

import (
	"errors"
	"io"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"
)

// sockPair is a listener with one dialed connection and its accepted
// twin.
func sockPair(t *testing.T) (ln *Listener, dialed, accepted Conn) {
	t.Helper()
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	if dialed, err = Dial(ln.Addr(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dialed.Close() })
	if accepted, err = ln.Accept(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { accepted.Close() })
	return ln, dialed, accepted
}

// fdFlags reads a descriptor's F_GETFD flags through rc.
func fdFlags(t *testing.T, rc syscall.RawConn) uintptr {
	t.Helper()
	var flags uintptr
	var errno syscall.Errno
	if err := rc.Control(func(fd uintptr) {
		flags, _, errno = syscall.Syscall(syscall.SYS_FCNTL, fd, syscall.F_GETFD, 0)
	}); err != nil {
		t.Fatal(err)
	}
	if errno != 0 {
		t.Fatal(errno)
	}
	return flags
}

// TestSockDescriptorsCloseOnExec: the listener, the dialed and the
// accepted socket are all close-on-exec, so a child that mpirun or
// Spawn starts inherits none of them — a listener held open by a child
// would outlive the process that owns it.
func TestSockDescriptorsCloseOnExec(t *testing.T) {
	ln, dialed, accepted := sockPair(t)
	rcs := map[string]syscall.RawConn{"listener": ln.rc}
	for name, c := range map[string]Conn{"dialed": dialed, "accepted": accepted} {
		rc, err := c.(*os.File).SyscallConn()
		if err != nil {
			t.Fatal(err)
		}
		rcs[name] = rc
	}
	for name, rc := range rcs {
		if fdFlags(t, rc)&syscall.FD_CLOEXEC == 0 {
			t.Errorf("%s socket is not close-on-exec", name)
		}
	}
	// And the pair carries bytes both ways.
	if _, err := dialed.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4)
	if _, err := io.ReadFull(accepted, got); err != nil || string(got) != "ping" {
		t.Fatalf("read %q, %v", got, err)
	}
}

// TestSockRefusesHostnames: an address is numeric IPv4, parsed and never
// resolved; a hostname or an IPv6 address is refused by name.
func TestSockRefusesHostnames(t *testing.T) {
	for _, addr := range []string{"localhost:1", "[::1]:1", "127.0.0.1"} {
		if ln, err := Listen(addr); err == nil || !strings.Contains(err.Error(), addr) {
			if ln != nil {
				ln.Close()
			}
			t.Errorf("Listen(%q): %v, want a refusal naming the address", addr, err)
		}
		if c, err := Dial(addr, time.Second); err == nil || !strings.Contains(err.Error(), addr) {
			if c != nil {
				c.Close()
			}
			t.Errorf("Dial(%q): %v, want a refusal naming the address", addr, err)
		}
	}
}

// TestSockCloseUnblocksAccept: closing a listener wakes an Accept that
// is waiting on it, which returns an error.
func TestSockCloseUnblocksAccept(t *testing.T) {
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if c != nil {
			c.Close()
		}
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let Accept park on the poller
	ln.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Accept on a closed listener returned a connection")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock Accept")
	}
}

// TestSockDialRefused: a dial to a port nobody listens on fails with the
// kernel's ECONNREFUSED, reachable through errors.Is.
func TestSockDialRefused(t *testing.T) {
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr()
	ln.Close()
	c, err := Dial(addr, 5*time.Second)
	if err == nil {
		c.Close()
		t.Fatalf("dial to closed %s succeeded", addr)
	}
	if !errors.Is(err, syscall.ECONNREFUSED) {
		t.Fatalf("dial to closed %s: %v, want ECONNREFUSED", addr, err)
	}
}

// TestSockSilentDialerTripsHandshakeTimeout: a dial-in that connects and
// never introduces itself is dropped by the mesh handshake once
// handshakeTimeout passes — a read deadline set through
// Conn.SetReadDeadline — and the next dial-in that does introduce
// itself is the peer acceptPeer returns.
func TestSockSilentDialerTripsHandshakeTimeout(t *testing.T) {
	defer func(d time.Duration) { handshakeTimeout = d }(handshakeTimeout)
	handshakeTimeout = 50 * time.Millisecond
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	silent, err := Dial(ln.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	type accepted struct {
		c    Conn
		peer int
		err  error
	}
	got := make(chan accepted, 1)
	start := time.Now()
	go func() {
		c, peer, err := acceptPeer(ln)
		got <- accepted{c, peer, err}
	}()
	// The handshake closes the silent connection: its read sees EOF.
	silent.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck // an unarmed deadline fails below
	if n, err := silent.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("silent dial-in read %d bytes, %v; want EOF once the handshake gives up", n, err)
	}
	if waited := time.Since(start); waited < handshakeTimeout {
		t.Fatalf("silent dial-in dropped after %v, before the %v handshake timeout", waited, handshakeTimeout)
	}
	peer, err := dialPeer(ln.Addr(), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	select {
	case a := <-got:
		if a.err != nil || a.peer != 3 {
			t.Fatalf("acceptPeer: rank %d, %v; want rank 3", a.peer, a.err)
		}
		a.c.Close()
	case <-time.After(5 * time.Second):
		t.Fatal("acceptPeer did not return the introduced peer")
	}
}
