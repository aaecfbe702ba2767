// Package bench implements the paper's communications benchmarks
// (§4): the PingPong latency/bandwidth measurement in its five
// environments — raw sockets ("Wsock"), native MPI ("WMPI-C"/"MPICH-C",
// here the core engine called directly) and the OO binding
// ("WMPI-J"/"MPICH-J", the mpi package) — in both Shared Memory and
// Distributed Memory modes, plus the 1999 calibration profiles that
// recover the published magnitudes (calib.go, shaped.go).
package bench

import (
	"fmt"
	"time"
)

// Mode is the paper's execution mode.
type Mode int

// Execution modes (paper §3.4).
const (
	SM Mode = iota // Shared Memory: ranks on one machine
	DM             // Distributed Memory: ranks across a (10BaseT) link
)

func (m Mode) String() string {
	if m == SM {
		return "SM"
	}
	return "DM"
}

// Platform models the two native-MPI software paths of the paper:
// WMPI's NT-optimized path versus portable MPICH (extra staging copy,
// higher per-message cost).
type Platform int

// Platforms.
const (
	WMPI Platform = iota
	MPICH
)

func (p Platform) String() string {
	if p == WMPI {
		return "WMPI"
	}
	return "MPICH"
}

// Impl selects which software stack carries the ping-pong.
type Impl int

// Implementations (columns of Table 1).
const (
	Wsock   Impl = iota // raw sockets, no MPI
	NativeC             // the core engine, no OO binding
	JavaOO              // the full mpi binding (the "mpiJava" column)
)

func (i Impl) String() string {
	switch i {
	case Wsock:
		return "Wsock"
	case NativeC:
		return "C"
	default:
		return "Java"
	}
}

// Point is one measurement: the one-way transfer time for a message of
// Size bytes, and the corresponding uni-directional bandwidth.
type Point struct {
	Size   int
	OneWay time.Duration
	MBps   float64
}

func newPoint(size int, oneWay time.Duration) Point {
	p := Point{Size: size, OneWay: oneWay}
	if oneWay > 0 {
		p.MBps = float64(size) / oneWay.Seconds() / 1e6
	}
	return p
}

// Spec describes one ping-pong run.
type Spec struct {
	Impl     Impl
	Platform Platform // meaningful for NativeC and JavaOO
	Mode     Mode
	// Paper1999 applies the era calibration (JNI cost model, software
	// path costs, 10BaseT link); false measures the bare modern stack.
	Paper1999 bool
	// EagerLimit overrides the eager/rendezvous threshold (0=default).
	EagerLimit int
	// Sizes to sweep; Reps round-trips per size after Warmup.
	Sizes  []int
	Reps   int
	Warmup int
}

// Label renders the paper's environment name for this spec
// (e.g. "WMPI-J", "MPICH-C", "Wsock").
func (s Spec) Label() string {
	if s.Impl == Wsock {
		return "Wsock"
	}
	suffix := "C"
	if s.Impl == JavaOO {
		suffix = "J"
	}
	return fmt.Sprintf("%s-%s", s.Platform, suffix)
}

// FigureSizes returns the message-size sweep of Figures 5 and 6:
// powers of two from 1 byte to max.
func FigureSizes(max int) []int {
	var out []int
	for s := 1; s <= max; s *= 2 {
		out = append(out, s)
	}
	return out
}

// repsFor bounds the repetitions so large paper-profile transfers finish
// in reasonable time.
func repsFor(base, size int, paper bool, mode Mode) int {
	r := base
	if size >= 1<<18 {
		r = base / 8
	} else if size >= 1<<14 {
		r = base / 4
	}
	if paper && mode == DM && size >= 1<<16 {
		r = 2
	}
	if r < 2 {
		r = 2
	}
	return r
}

// Run dispatches a spec to the matching harness.
func Run(s Spec) ([]Point, error) {
	if len(s.Sizes) == 0 {
		s.Sizes = []int{1}
	}
	if s.Reps <= 0 {
		s.Reps = 64
	}
	if s.Warmup <= 0 {
		s.Warmup = 4
	}
	switch s.Impl {
	case Wsock:
		return wsockPingPong(s)
	case NativeC:
		return nativePingPong(s)
	default:
		return bindingPingPong(s)
	}
}

// warmupFor caps the per-size warmup at the measured repetition count so
// calibrated large-message sweeps do not spend longer warming up than
// measuring.
func (s Spec) warmupFor(reps int) int {
	if s.Warmup > reps {
		return reps
	}
	return s.Warmup
}
