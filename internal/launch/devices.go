package launch

import (
	"errors"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"gompi/internal/transport"
	"gompi/internal/transport/shmipc"
)

// Device-registry factories: this file turns the launcher's environment
// (coordinator address, shared segment) into transport devices. The
// "shm" medium registers itself in package shmipc; here live the media
// that need the rendezvous machinery — "tcp", "hybrid" (shm island +
// socket mesh to everyone else) and "auto" (pick the fastest fabric the
// launcher provisioned).

// Environment variables naming the fabric mpirun provisioned.
const (
	// EnvDevice selects the transport medium ("auto", "shm", "tcp",
	// "hybrid"); empty means "auto".
	EnvDevice = "GOMPI_DEVICE"
	// EnvShmSeg is the path of the shared-memory segment this rank may
	// attach.
	EnvShmSeg = "GOMPI_SHM_SEG"
	// EnvShmRanks is the comma-separated list of world ranks sharing
	// the segment (this rank's same-node peer set), in slot order.
	EnvShmRanks = "GOMPI_SHM_RANKS"
)

// SpecFromEnv assembles the JobSpec a registry factory needs from the
// environment mpirun set up.
func SpecFromEnv(rank, size int) transport.JobSpec {
	spec := transport.JobSpec{
		Rank:    rank,
		Size:    size,
		Coord:   os.Getenv(EnvCoord),
		Segment: os.Getenv(EnvShmSeg),
	}
	if s := os.Getenv(EnvShmRanks); s != "" {
		for _, f := range strings.Split(s, ",") {
			if v, err := strconv.Atoi(strings.TrimSpace(f)); err == nil {
				spec.SegmentRanks = append(spec.SegmentRanks, v)
			}
		}
	}
	return spec
}

// DeviceFromEnv returns the medium name mpirun selected, defaulting to
// "auto".
func DeviceFromEnv() string {
	if d := os.Getenv(EnvDevice); d != "" {
		return d
	}
	return "auto"
}

func init() {
	transport.Register(transport.Entry{
		Name: "tcp",
		Probe: func(s transport.JobSpec) error {
			if s.Coord == "" {
				return errors.New("no rendezvous coordinator (run under mpirun)")
			}
			return nil
		},
		New: func(s transport.JobSpec) (transport.Device, error) {
			return joinMesh(s, nil)
		},
	})
	transport.Register(transport.Entry{
		Name: "hybrid",
		Probe: func(s transport.JobSpec) error {
			if s.Segment == "" {
				return errors.New("no shared segment for the local island")
			}
			if s.Coord == "" {
				return errors.New("no rendezvous coordinator for the remote ranks")
			}
			return nil
		},
		New: newHybridDevice,
	})
	transport.Register(transport.Entry{
		Name: "auto",
		New:  newAutoDevice,
	})
}

// joinMesh is the worker side of the socket rendezvous, optionally
// skipping peers another medium reaches.
func joinMesh(s transport.JobSpec, skip []bool) (*transport.TCPDevice, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("launch: mesh listener: %w", err)
	}
	addrs, err := rendezvous(s.Coord, s.Rank, s.Size, ln.Addr().String())
	if err != nil {
		ln.Close()
		return nil, err
	}
	dev, err := transport.ConnectPartialMesh(s.Rank, s.Size, addrs, ln, true, skip)
	if err != nil {
		return nil, fmt.Errorf("launch: mesh: %w", err)
	}
	return dev, nil
}

// newHybridDevice composes the per-peer fabric of a multi-node rank:
// the shared-memory island for same-node peers, a partial socket mesh
// for everyone else, both members of the one Mux the engine reads.
func newHybridDevice(s transport.JobSpec) (transport.Device, error) {
	seg, err := shmipc.Open(s.Segment, 10*time.Second)
	if err != nil {
		return nil, err
	}
	island, err := shmipc.Attach(seg, s.Rank, s.Size)
	if err != nil {
		return nil, err
	}
	local := s.LocalPeers()
	skip := make([]bool, s.Size)
	for r := range skip {
		skip[r] = local[r]
	}
	mesh, err := joinMesh(s, skip)
	if err != nil {
		island.Close()
		return nil, err
	}
	route := make([]transport.Device, s.Size)
	for r := range route {
		if local[r] || r == s.Rank {
			route[r] = island
		} else {
			route[r] = mesh
		}
	}
	return transport.NewMux(s.Rank, route), nil
}

// newAutoDevice picks the fastest fabric the launcher provisioned: a
// segment covering the whole world means pure shared memory, a segment
// plus a coordinator means hybrid, a coordinator alone means sockets.
func newAutoDevice(s transport.JobSpec) (transport.Device, error) {
	if s.Segment != "" && len(s.SegmentRanks) >= s.Size {
		if e, ok := transport.Lookup("shm"); ok && (e.Probe == nil || e.Probe(s) == nil) {
			return e.New(s)
		}
	}
	if s.Segment != "" && s.Coord != "" {
		return newHybridDevice(s)
	}
	if s.Coord != "" {
		return joinMesh(s, nil)
	}
	return nil, errors.New("launch: no usable fabric (need a coordinator or a shared segment; run under mpirun)")
}
