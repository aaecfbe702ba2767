package transport

import (
	"sync"
	"time"

	"gompi/internal/spin"
)

// LinkProfile describes the artificial costs a Shaped device injects per
// frame. It is the knob set the benchmark calibration uses to emulate the
// paper's 1999 testbed: per-message software cost models
// the MPI implementation's send path (WMPI optimized vs MPICH portable),
// StagingCopy models MPICH's extra buffer copy, and Latency/BytesPerSec
// model the 10BaseT Ethernet link of DM mode.
type LinkProfile struct {
	// PerMessage is software overhead added to every frame send.
	PerMessage time.Duration
	// Latency is one-way link latency added to every frame.
	Latency time.Duration
	// BytesPerSec caps throughput; 0 means unlimited. The serialization
	// delay len(frame)/BytesPerSec is charged to the sender, which is
	// accurate for the half-duplex ping-pong traffic the paper measures.
	BytesPerSec float64
	// PerByte is additional per-byte software cost (memory copies in
	// the protocol stack); 0 disables it.
	PerByte time.Duration
	// StagingCopy forces an extra full copy of every frame on the send
	// path, modeling a portable implementation's staging buffer.
	StagingCopy bool
}

// Zero reports whether the profile injects nothing.
func (p LinkProfile) Zero() bool {
	return p.PerMessage == 0 && p.Latency == 0 && p.BytesPerSec == 0 && p.PerByte == 0 && !p.StagingCopy
}

// Shaped wraps a Device, charging LinkProfile costs on every send;
// everything else passes through by embedding.
type Shaped struct {
	Device
	Profile LinkProfile

	mu sync.Mutex
	// linkFree is the time the emulated link finishes transmitting all
	// previously charged frames; serialization delays accumulate when
	// the sender outpaces the link, as a real NIC queue would.
	linkFree time.Time
}

// NewShaped wraps dev with a cost profile. A zero profile is returned
// unwrapped, so the fast path costs nothing.
func NewShaped(dev Device, p LinkProfile) Device {
	if p.Zero() {
		return dev
	}
	return &Shaped{Device: dev, Profile: p}
}

// Send charges the profile's costs, then forwards to the inner device.
func (s *Shaped) Send(dst int, frame []byte) error {
	if s.Profile.StagingCopy {
		staged := make([]byte, len(frame))
		copy(staged, frame)
		frame = staged
	}
	s.charge(len(frame))
	return s.Device.Send(dst, frame)
}

// Sendv charges the profile's costs for the whole gather, then forwards.
func (s *Shaped) Sendv(dst int, hdr, payload []byte, recycle bool) error {
	s.chargeGather(hdr, payload)
	return s.Device.Sendv(dst, hdr, payload, recycle)
}

// SendvLent charges exactly what Sendv does, then forwards the loan: a
// shaped link still reads the caller's buffer in place.
func (s *Shaped) SendvLent(dst int, hdr, payload []byte, loan Loan) error {
	s.chargeGather(hdr, payload)
	return s.Device.SendvLent(dst, hdr, payload, loan)
}

// chargeGather pays for one scatter-gather frame. The staging copy
// models a portable implementation's bounce buffer: the bytes are
// copied (and the cost paid) but the original gather travels on,
// preserving the ownership protocol.
func (s *Shaped) chargeGather(hdr, payload []byte) {
	n := len(hdr) + len(payload)
	if s.Profile.StagingCopy {
		staged := make([]byte, n)
		copy(staged[copy(staged, hdr):], payload)
	}
	s.charge(n)
}

// charge spins for the profile's software and link costs of an n-byte
// frame.
func (s *Shaped) charge(n int) {
	p := s.Profile
	delay := p.PerMessage + p.Latency + time.Duration(n)*p.PerByte
	if p.BytesPerSec > 0 {
		ser := time.Duration(float64(n) / p.BytesPerSec * float64(time.Second))
		s.mu.Lock()
		now := time.Now()
		if s.linkFree.Before(now) {
			s.linkFree = now
		}
		s.linkFree = s.linkFree.Add(ser)
		wait := time.Until(s.linkFree)
		s.mu.Unlock()
		delay += wait
	}
	spin.Wait(delay)
}
