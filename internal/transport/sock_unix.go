//go:build unix

package transport

import (
	"cmp"
	"fmt"
	"net/netip"
	"os"
	"syscall"
	"time"
)

// The socket layer: TCP over IPv4 from syscall sockets wrapped in
// os.NewFile. A non-blocking descriptor becomes a pollable *os.File, so
// reads, writes, deadlines and Close's wake-ups run on the runtime
// poller that package net uses — without importing net, which is the
// one package in the library's dependencies that links cgo.

// listenBacklog is the accept queue asked for; the kernel caps it at its
// own limit, as net's listeners are capped.
const listenBacklog = 4096

// Listener is a listening TCP socket.
type Listener struct {
	f    *os.File
	rc   syscall.RawConn
	addr string
}

// Listen opens a TCP listener on addr, a numeric IPv4 host:port; port 0
// picks a free port, which Addr reports.
func Listen(addr string) (*Listener, error) {
	ap, err := parseAddr(addr)
	if err != nil {
		return nil, err
	}
	fd, err := socket()
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	var sa syscall.Sockaddr
	err = os.NewSyscallError("setsockopt", syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_REUSEADDR, 1)) // a relaunch may rebind a port in TIME_WAIT
	if err == nil {
		err = os.NewSyscallError("bind", syscall.Bind(fd, sockaddr(ap)))
	}
	if err == nil {
		err = os.NewSyscallError("listen", syscall.Listen(fd, listenBacklog))
	}
	if err == nil {
		sa, err = syscall.Getsockname(fd)
	}
	if err != nil {
		syscall.Close(fd)
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	in4 := sa.(*syscall.SockaddrInet4)
	l := &Listener{addr: netip.AddrPortFrom(netip.AddrFrom4(in4.Addr), uint16(in4.Port)).String()}
	l.f = os.NewFile(uintptr(fd), "tcp-listener:"+l.addr)
	if l.rc, err = l.f.SyscallConn(); err != nil {
		l.f.Close()
		return nil, err
	}
	return l, nil
}

// Addr returns the listener's numeric host:port.
func (l *Listener) Addr() string { return l.addr }

// Close stops the listener; a pending Accept returns an error.
func (l *Listener) Close() error { return l.f.Close() }

// Accept waits for the next connection and returns it.
func (l *Listener) Accept() (Conn, error) {
	var fd int
	var err error
	werr := l.rc.Read(func(lfd uintptr) bool {
		for {
			fd, err = sysFD(func() (int, error) {
				nfd, _, err := syscall.Accept(int(lfd))
				return nfd, err
			})
			// Only EAGAIN waits for the edge-triggered poller; EINTR and
			// ECONNABORTED (a dial-in reset in the backlog) retry at once.
			if err != syscall.EINTR && err != syscall.ECONNABORTED {
				return err != syscall.EAGAIN
			}
		}
	})
	var f *os.File
	if err = cmp.Or(werr, os.NewSyscallError("accept", err)); err == nil {
		f, err = tcpFile(fd, "tcp-accepted:"+l.addr)
	}
	if err != nil {
		return nil, fmt.Errorf("transport: accept on %s: %w", l.addr, err)
	}
	return f, nil
}

// Dial connects to addr, a numeric IPv4 host:port. A connect in progress
// completes when the socket turns writable, so timeout is a write
// deadline on the connecting socket; zero waits as long as the kernel
// keeps trying.
func Dial(addr string, timeout time.Duration) (Conn, error) {
	ap, err := parseAddr(addr)
	if err != nil {
		return nil, err
	}
	fd, err := socket()
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	f, err := tcpFile(fd, "tcp:"+addr)
	if err == nil {
		err = connect(f, sockaddr(ap), timeout)
		if err != nil {
			f.Close()
		}
	}
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return f, nil
}

// connect runs the non-blocking connect of f's socket to sa.
func connect(f *os.File, sa syscall.Sockaddr, timeout time.Duration) error {
	rc, err := f.SyscallConn()
	if err != nil {
		return err
	}
	rc.Control(func(fd uintptr) { err = syscall.Connect(int(fd), sa) }) //nolint:errcheck // f is open
	switch err {
	case nil, syscall.EISCONN:
		return nil
	case syscall.EINPROGRESS, syscall.EALREADY, syscall.EINTR: // finishes in the background
	default:
		return os.NewSyscallError("connect", err)
	}
	if timeout != 0 {
		f.SetWriteDeadline(time.Now().Add(timeout)) //nolint:errcheck // f is pollable
		defer f.SetWriteDeadline(time.Time{})       //nolint:errcheck // f is pollable
	}
	var cerr error
	werr := rc.Write(func(fd uintptr) bool {
		var n int
		n, err = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_ERROR)
		switch e := syscall.Errno(n); {
		case err != nil:
			cerr = os.NewSyscallError("getsockopt", err)
		case e == syscall.EINPROGRESS || e == syscall.EALREADY || e == syscall.EINTR:
			return false
		case e == 0:
			// SO_ERROR reads 0 while the handshake is still under way
			// too, and the poller may wake spuriously: only a peer name
			// says the socket is connected.
			_, err = syscall.Getpeername(int(fd))
			return err == nil
		case e != syscall.EISCONN:
			cerr = os.NewSyscallError("connect", e)
		}
		return true
	})
	return cmp.Or(werr, cerr)
}

// socket makes a TCP/IPv4 socket for Listen or Dial.
func socket() (int, error) {
	fd, err := sysFD(func() (int, error) {
		return syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, syscall.IPPROTO_TCP)
	})
	return fd, os.NewSyscallError("socket", err)
}

// sysFD runs open, which makes a descriptor, under the fork lock and
// marks the descriptor close-on-exec before the lock is let go, so that
// no exec inherits it, and non-blocking, so that os.NewFile hands it to
// the runtime poller.
func sysFD(open func() (int, error)) (int, error) {
	syscall.ForkLock.RLock()
	fd, err := open()
	if err == nil {
		syscall.CloseOnExec(fd)
	}
	syscall.ForkLock.RUnlock()
	if err == nil {
		if err = syscall.SetNonblock(fd, true); err != nil {
			syscall.Close(fd)
		}
	}
	return fd, err
}

// tcpFile hands a non-blocking stream socket to the runtime poller, with
// TCP_NODELAY set on it as net sets it on both ends of every connection.
func tcpFile(fd int, name string) (*os.File, error) {
	if err := syscall.SetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1); err != nil {
		syscall.Close(fd)
		return nil, os.NewSyscallError("setsockopt", err)
	}
	return os.NewFile(uintptr(fd), name), nil
}

func sockaddr(ap netip.AddrPort) *syscall.SockaddrInet4 {
	return &syscall.SockaddrInet4{Port: int(ap.Port()), Addr: ap.Addr().As4()}
}
