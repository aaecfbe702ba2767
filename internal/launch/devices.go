package launch

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"gompi/internal/transport"
	"gompi/internal/transport/shmipc"
)

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

// JobSpec describes one rank's place in a job: the world geometry plus
// whatever fabric resources the launcher prepared (a rendezvous
// coordinator for socket meshes, a shared-memory segment for same-node
// ranks).
type JobSpec struct {
	// Rank and Size are the world geometry.
	Rank, Size int
	// Coord is the launch coordinator's address, used by socket media
	// to exchange per-rank listener addresses. Empty when the launcher
	// provided no coordinator (e.g. a pure shared-memory job).
	Coord string
	// Segment is the path of the shared-memory segment this rank may
	// attach, or empty if the launcher created none.
	Segment string
	// SegmentRanks lists the world ranks attached to Segment (this
	// rank's same-node peer set), in slot order.
	SegmentRanks []int
}

// SpecFromEnv assembles the JobSpec from the environment mpirun set up.
func SpecFromEnv(rank, size int) JobSpec {
	spec := JobSpec{
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

// FaultyPrefix is the medium-name decorator that wraps any medium with
// the fault-injection layer: "faulty:shm" builds the shm endpoint, then
// applies the FaultPlan from the GOMPI_FAULT environment variable (see
// transport.ParseFaultPlan). Ranks outside the plan's rank filter get
// the inner device untouched, so one exported variable injects a fault
// into exactly one rank of a whole job.
const FaultyPrefix = "faulty:"

// NewDevice probes for what the named medium needs of spec and builds
// this rank's endpoint of it: "shm" (a segment covering the whole
// world), "tcp" (the socket mesh), "hybrid" (one Mux: the shared-memory
// island, a member device, carries the same-node peers and the rank
// itself, everyone else gets a mesh connection) or "auto" (the fastest
// of those the launcher provisioned for). A FaultyPrefix on the name
// decorates the endpoint with the plan from the environment.
func NewDevice(name string, s JobSpec) (transport.Device, error) {
	if inner, ok := strings.CutPrefix(name, FaultyPrefix); ok {
		plan, err := transport.ParseFaultPlan(os.Getenv(transport.EnvFault))
		if err != nil {
			return nil, err
		}
		dev, err := NewDevice(inner, s)
		if err != nil {
			return nil, err
		}
		return transport.NewFaulty(dev, plan), nil
	}
	whole := s.Segment != "" && len(s.SegmentRanks) >= s.Size
	if name == "auto" {
		switch {
		case whole && shmipc.Supported:
			name = "shm"
		case s.Segment != "" && s.Coord != "":
			name = "hybrid"
		case s.Coord != "":
			name = "tcp"
		default:
			return nil, errors.New("launch: no usable fabric (need a coordinator or a shared segment; run under mpirun)")
		}
	}
	var missing error
	switch name {
	case "shm":
		switch {
		case !shmipc.Supported:
			missing = shmipc.ErrUnsupported
		case s.Segment == "":
			missing = errors.New("launcher provided no shared segment")
		case !whole:
			missing = fmt.Errorf("segment covers %d of %d ranks (hybrid job needs -device auto)",
				len(s.SegmentRanks), s.Size)
		}
	case "tcp":
		if s.Coord == "" {
			missing = errors.New("no rendezvous coordinator (run under mpirun)")
		}
	case "hybrid":
		switch {
		case s.Segment == "":
			missing = errors.New("no shared segment for the local island")
		case s.Coord == "":
			missing = errors.New("no rendezvous coordinator for the remote ranks")
		}
	default:
		return nil, fmt.Errorf("launch: unknown device %q (have auto, hybrid, shm, tcp)", name)
	}
	if missing != nil {
		return nil, fmt.Errorf("launch: device %q unavailable: %w", name, missing)
	}

	// members[r] is the device that carries world rank r before the
	// mesh is connected: the island, or nothing.
	members := make([]transport.Device, s.Size)
	if name != "tcp" {
		seg, err := shmipc.Open(s.Segment, 10*time.Second)
		if err != nil {
			return nil, err
		}
		island, err := shmipc.Attach(seg, s.Rank, s.Size)
		if err != nil {
			return nil, err
		}
		if name == "shm" {
			return island, nil
		}
		members[s.Rank] = island
		for _, r := range s.SegmentRanks {
			if r >= 0 && r < s.Size {
				members[r] = island
			}
		}
	}
	return joinMesh(s, members)
}

// joinMesh is the worker side of the socket rendezvous: it opens this
// rank's mesh listener, registers it with the coordinator, waits for
// the address table and connects every rank members leaves uncovered.
// It owns members, also when it fails.
func joinMesh(s JobSpec, members []transport.Device) (transport.Device, error) {
	ln, err := transport.Listen("127.0.0.1:0")
	var addrs []string
	if err == nil {
		if addrs, err = rendezvous(s.Coord, s.Rank, s.Size, ln.Addr()); err != nil {
			ln.Close()
		}
	}
	if err != nil {
		if island := members[s.Rank]; island != nil {
			island.Close()
		}
		return nil, fmt.Errorf("launch: mesh rendezvous: %w", err)
	}
	m, err := transport.ConnectMesh(s.Rank, members, addrs, ln)
	if err != nil {
		return nil, fmt.Errorf("launch: mesh: %w", err)
	}
	return m, nil
}
