// Package dynproc implements MPI-2 dynamic process management under the
// public mpi binding: out-of-band rendezvous ports (MPI_Open_port /
// MPI_Close_port), the leader handshake behind MPI_Comm_connect /
// MPI_Comm_accept, and the peer admission that lets two running worlds
// — or a world and the children it spawned — flood each other's
// endpoint tables so every rank pair becomes reachable.
//
// The design splits into two halves:
//
//   - The device half is not here: every rank's engine reads one
//     transport.Mux, and an admitted late joiner becomes one more
//     route of it (Mux.Join) at world rank baseSize, baseSize+1, ... —
//     existing ranks are never renumbered, so the engine's live tag
//     space, posted receives and peer-death bookkeeping survive world
//     growth.
//     Because the two processes on a joined link each number the other
//     in their own local space, the mux rewrites the sender-stamped
//     source rank of every inbound frame (core.PatchFrameSource, handed
//     over at Join) to the receiver's index for that peer; reply
//     routing through the engine then just works.
//
//   - The join protocol (Fabric, join.go) is deliberately
//     MatlabMPI-simple: one leader-to-leader connection exchanges both
//     sides' member tables and context candidates, then every pair of
//     processes dials one TCP connection (connect side dials, accept
//     side parks the inbound socket until its local Admit catches up).
//     There is no retry cleverness; errors and timeouts surface to the
//     caller, which maps them onto the MPI_ERR_PORT / MPI_ERR_SPAWN
//     classes.
//
// Port names encode everything a stranger needs to dial in:
//
//	gompi-port://HOST:PORT/ep<epoch>/k<hex-key>
//
// HOST:PORT is the process's rendezvous listener, <epoch> is the world
// epoch at Open_port time (a connect into a world that has since grown
// or shrunk under the port owner is refused as stale), and <hex-key> is
// a random capability so a port name is unguessable and a closed port
// is unreachable even while the listener lives on.
//
// Dynamic links are TCP today: a cross-process shared-memory segment
// cannot be grown after launch, so the per-pair medium choice made at
// boot (launch.NewDevice: shm same-node, tcp off-node) is fixed for the
// original world, and late joiners always ride the socket path.
package dynproc

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Member identifies one process of a joining world: a globally unique
// process id plus the rendezvous listener it can be dialed on.
type Member struct {
	GUID string
	Addr string
}

// Ticket is the outcome of a leader handshake: everything a process
// needs to admit the remote world's members. It travels from the leader
// to its local world over an ordinary collective broadcast, so it is
// plain gob-encodable data.
type Ticket struct {
	// JoinID names this join on the accept side's pending tables, so a
	// dial-in can be parked before the parked-for process even knows
	// the join exists (bcast stragglers).
	JoinID uint64
	// AcceptSide is true on the world that owned the port: its members
	// wait for dial-ins; the connect side's members do the dialing.
	AcceptSide bool
	// Remote is the other world's member table, in that world's rank
	// order. Its order is what both sides agree on, so remote group
	// rank r is Remote[r] everywhere.
	Remote []Member
	// RemoteCtxCand is the remote world's context-id candidate; both
	// sides commit max(local, remote) so the new pair collides with
	// neither tag space.
	RemoteCtxCand int32
}

const portScheme = "gompi-port"

// FormatPortName renders the canonical port name for a listener
// address, world epoch and capability key.
func FormatPortName(addr string, epoch int, key string) string {
	return fmt.Sprintf("%s://%s/ep%d/k%s", portScheme, addr, epoch, key)
}

// ParsePortName splits a port name into listener address, epoch and
// capability key. Only the canonical shape is accepted — a decimal
// epoch with no sign, a lowercase hex key as randomHex makes, and
// nothing FormatPortName would not write back (no userinfo, query,
// fragment or escapes) — so every accepted name round-trips.
func ParsePortName(name string) (addr string, epoch int, key string, err error) {
	u, uerr := url.Parse(name)
	if uerr != nil || u.Scheme != portScheme || u.Host == "" {
		return "", 0, "", fmt.Errorf("dynproc: malformed port name %q", name)
	}
	ep, key, _ := strings.Cut(strings.TrimPrefix(u.Path, "/ep"), "/k")
	epoch, eerr := strconv.Atoi(ep)
	if eerr != nil || epoch < 0 || key == "" || strings.Trim(key, "0123456789abcdef") != "" ||
		FormatPortName(u.Host, epoch, key) != name {
		return "", 0, "", fmt.Errorf("dynproc: malformed port name %q", name)
	}
	return u.Host, epoch, key, nil
}

var guidSeq atomic.Uint64

// newGUID builds a process-unique id: host + pid make it unique across
// the machine set, the random tail across in-process worlds (mpi.Run
// hosts several ranks per OS process) and across pid reuse.
func newGUID() string {
	host, _ := os.Hostname()
	if host == "" {
		host = "localhost"
	}
	return fmt.Sprintf("%s-%d-%s-%d", host, os.Getpid(), randomHex(8), guidSeq.Add(1))
}

func randomHex(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		// Fall back to something still unique per call within the
		// process, and still hex (a port key must be); crypto/rand
		// failing is a broken environment anyway.
		return fmt.Sprintf("%x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b)
}
