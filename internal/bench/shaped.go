package bench

import (
	"sync"
	"time"

	"gompi/internal/transport"
)

// profile is the per-frame cost of one 1999 environment (calib.go):
// PerMessage models the MPI implementation's send path (WMPI optimized
// vs MPICH portable), StagingCopy MPICH's extra buffer copy, and
// Latency/BytesPerSec the link — 10BaseT Ethernet in DM mode.
type profile struct {
	PerMessage  time.Duration
	Latency     time.Duration
	BytesPerSec float64 // 0 = unlimited
	StagingCopy bool
}

// Zero reports whether the profile charges nothing.
func (p profile) Zero() bool { return p == profile{} }

// shaped charges a profile on every send of the device it embeds;
// everything else, receives included, passes through. The serialization
// delay is charged to the sender, which is accurate for the half-duplex
// ping-pong traffic the paper measures.
type shaped struct {
	transport.Device
	p profile

	mu sync.Mutex
	// linkFree is when the emulated link finishes transmitting every
	// frame charged so far: a sender that outpaces the link queues
	// behind its own frames, as at a real NIC.
	linkFree time.Time
}

// shape puts a profile on dev. A zero profile returns dev itself, so the
// modern stack is measured bare.
func shape(dev transport.Device, p profile) transport.Device {
	if p.Zero() {
		return dev
	}
	return &shaped{Device: dev, p: p}
}

func (s *shaped) Send(dst int, frame []byte) error {
	if s.p.StagingCopy {
		frame = append([]byte(nil), frame...)
	}
	s.charge(len(frame))
	return s.Device.Send(dst, frame)
}

func (s *shaped) Sendv(dst int, hdr, payload []byte, recycle bool) error {
	s.chargeGather(hdr, payload)
	return s.Device.Sendv(dst, hdr, payload, recycle)
}

// SendvLent charges what Sendv does and forwards the loan: a shaped link
// still reads the caller's buffer in place.
func (s *shaped) SendvLent(dst int, hdr, payload []byte, loan transport.Loan) error {
	s.chargeGather(hdr, payload)
	return s.Device.SendvLent(dst, hdr, payload, loan)
}

// chargeGather pays for one scatter-gather frame. The staging copy is a
// cost only: the bytes are copied, the original gather travels on and
// keeps its ownership protocol.
func (s *shaped) chargeGather(hdr, payload []byte) {
	n := len(hdr) + len(payload)
	if s.p.StagingCopy {
		staged := make([]byte, n)
		copy(staged[copy(staged, hdr):], payload)
	}
	s.charge(n)
}

// charge spins for the software and link costs of an n-byte frame.
func (s *shaped) charge(n int) {
	delay := s.p.PerMessage + s.p.Latency
	if s.p.BytesPerSec > 0 {
		ser := time.Duration(float64(n) / s.p.BytesPerSec * float64(time.Second))
		s.mu.Lock()
		now := time.Now()
		if s.linkFree.Before(now) {
			s.linkFree = now
		}
		s.linkFree = s.linkFree.Add(ser)
		delay += time.Until(s.linkFree)
		s.mu.Unlock()
	}
	spinWait(delay)
}

// sleepFloor is the delay above which time.Sleep carries the bulk of a
// wait; below it the kernel tick would overshoot a cost of tens of
// microseconds badly, so spinWait busy-waits.
const sleepFloor = 500 * time.Microsecond

// spinWait blocks for d to within a microsecond or so: it sleeps all but
// the last sleepFloor of a long delay and busy-waits the rest against
// the monotonic clock.
func spinWait(d time.Duration) {
	if d <= 0 {
		return
	}
	deadline := time.Now().Add(d)
	if d > sleepFloor {
		time.Sleep(d - sleepFloor)
	}
	for time.Now().Before(deadline) {
	}
}
