package transport

import (
	"fmt"
	"io"
	"net/netip"
	"time"
)

// Conn is one end of a byte stream that carries frames or a handshake:
// a socket of this package's layer (Listen, Dial) or, in tests, any
// net.Conn.
type Conn interface {
	io.ReadWriteCloser
	SetDeadline(t time.Time) error
	SetReadDeadline(t time.Time) error
}

// parseAddr reads a numeric IPv4 host:port. net/netip links no cgo and
// resolves nothing, so a hostname is refused rather than looked up.
func parseAddr(addr string) (netip.AddrPort, error) {
	ap, err := netip.ParseAddrPort(addr)
	if err != nil || !ap.Addr().Is4() {
		return netip.AddrPort{}, fmt.Errorf("transport: address %q is not a numeric IPv4 host:port", addr)
	}
	return ap, nil
}
