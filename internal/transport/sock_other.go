//go:build !unix

package transport

import (
	"net"
	"time"
)

// Listener is a listening TCP socket; here it is package net's.
type Listener struct{ ln net.Listener }

// Listen opens a TCP listener on addr, a numeric IPv4 host:port.
func Listen(addr string) (*Listener, error) {
	if _, err := parseAddr(addr); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp4", addr)
	if err != nil {
		return nil, err
	}
	return &Listener{ln}, nil
}

func (l *Listener) Addr() string { return l.ln.Addr().String() }

func (l *Listener) Close() error { return l.ln.Close() }

func (l *Listener) Accept() (Conn, error) { return l.ln.Accept() }

// Dial connects to addr, a numeric IPv4 host:port, within timeout.
func Dial(addr string, timeout time.Duration) (Conn, error) {
	if _, err := parseAddr(addr); err != nil {
		return nil, err
	}
	return net.DialTimeout("tcp4", addr, timeout)
}
