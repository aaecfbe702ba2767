package transport

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// EnvFault names the environment variable the faulty: media decorator
// reads its FaultPlan from (see ParseFaultPlan for the syntax). The
// launcher passes its environment through to every rank, so exporting
// it before mpirun configures the whole job.
const EnvFault = "GOMPI_FAULT"

// FaultPlan configures deterministic fault injection on one endpoint.
// The zero value injects nothing. Faulty makes the endpoint misbehave
// on a schedule chosen in advance, so a failure scenario reproduces
// exactly — including under the race detector.
type FaultPlan struct {
	// Rank restricts the plan to one world rank; -1 (or the rank the
	// device reports) applies it. On other ranks NewFaulty returns the
	// inner device unwrapped.
	Rank int

	// KillAfterSends kills the endpoint after it has delivered exactly
	// this many frames: the (N+1)th and later sends are silently
	// dropped and the kill action runs once. 0 disables the trigger.
	KillAfterSends int

	// Exit selects the kill action for OS-process ranks: exit the
	// process with status 137, emulating SIGKILL at a deterministic
	// point in the frame stream. When false the inner device is closed
	// instead, which in-process peers observe as connection loss — the
	// form the race-mode tests use.
	Exit bool

	// OnKill, when non-nil, replaces the default kill action entirely
	// (tests hook notifications here).
	OnKill func()

	// DropPeers lists world ranks whose outbound frames are silently
	// discarded — an asymmetric blackhole. Inbound traffic is
	// unaffected: transport frames carry no source rank, so filtering
	// arrivals belongs to the peer's own plan.
	DropPeers map[int]bool

	// SendDelay is slept before every delivered frame.
	SendDelay time.Duration
}

// Zero reports whether the plan injects nothing.
func (p FaultPlan) Zero() bool {
	return p.KillAfterSends == 0 && len(p.DropPeers) == 0 && p.SendDelay == 0
}

// ParseFaultPlan parses the comma-separated key=value syntax of the
// GOMPI_FAULT environment variable:
//
//	rank=N          apply only on world rank N (default, or -1: every rank)
//	kill-after=N    die after delivering N frames
//	kill=exit|close kill action: exit the process (status 137) or close
//	                the device (default close)
//	drop-peer=N     blackhole outbound frames to rank N (repeatable)
//	delay=DUR       sleep DUR before every delivered frame (e.g. 2ms)
//
// An empty string parses to the zero (inert) plan.
func ParseFaultPlan(s string) (FaultPlan, error) {
	plan := FaultPlan{Rank: -1}
	if s = strings.TrimSpace(s); s == "" {
		return plan, nil
	}
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return plan, fmt.Errorf("transport: fault option %q is not key=value", kv)
		}
		switch k {
		case "rank":
			n, err := strconv.Atoi(v)
			if err != nil || n < -1 {
				return plan, fmt.Errorf("transport: fault rank %q: want a world rank, or -1 for every rank", v)
			}
			plan.Rank = n
		case "kill-after":
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return plan, fmt.Errorf("transport: fault kill-after %q: want a non-negative count", v)
			}
			plan.KillAfterSends = n
		case "kill":
			switch v {
			case "exit":
				plan.Exit = true
			case "close":
				plan.Exit = false
			default:
				return plan, fmt.Errorf("transport: fault kill %q: want exit or close", v)
			}
		case "drop-peer":
			n, err := strconv.Atoi(v)
			if err != nil {
				return plan, fmt.Errorf("transport: fault drop-peer %q: %w", v, err)
			}
			if plan.DropPeers == nil {
				plan.DropPeers = map[int]bool{}
			}
			plan.DropPeers[n] = true
		case "delay":
			d, err := time.ParseDuration(v)
			if err != nil || d < 0 {
				return plan, fmt.Errorf("transport: fault delay %q: want a non-negative duration", v)
			}
			plan.SendDelay = d
		default:
			return plan, fmt.Errorf("transport: unknown fault option %q", k)
		}
	}
	return plan, nil
}

// Faulty decorates a Device with the plan's failure triggers;
// everything else passes through by embedding.
type Faulty struct {
	Device
	plan FaultPlan

	sends    atomic.Int64
	dead     atomic.Bool
	killOnce sync.Once
}

// NewFaulty wraps dev with plan. An inert plan, or one pinned to a
// different rank, returns dev unwrapped so the common path costs
// nothing.
func NewFaulty(dev Device, plan FaultPlan) Device {
	if plan.Zero() {
		return dev
	}
	if plan.Rank >= 0 && plan.Rank != dev.Rank() {
		return dev
	}
	return &Faulty{Device: dev, plan: plan}
}

// Killed reports whether the kill trigger has fired.
func (f *Faulty) Killed() bool { return f.dead.Load() }

// deliver charges the plan's triggers for one outbound frame and
// reports whether it should reach the wire.
func (f *Faulty) deliver(dst int) bool {
	if f.dead.Load() {
		return false
	}
	if f.plan.DropPeers[dst] {
		return false
	}
	if n := f.plan.KillAfterSends; n > 0 && f.sends.Add(1) > int64(n) {
		f.kill()
		return false
	}
	if f.plan.SendDelay > 0 {
		time.Sleep(f.plan.SendDelay)
	}
	return true
}

// kill runs the plan's kill action exactly once. The default action
// closes the inner device: peers observe the closed connections (or the
// stale shm segment) as peer loss, and this rank's own engine sees its
// device reach end-of-stream — the closest in-process approximation of
// the process dying.
func (f *Faulty) kill() {
	f.killOnce.Do(func() {
		f.dead.Store(true)
		switch {
		case f.plan.OnKill != nil:
			f.plan.OnKill()
		case f.plan.Exit:
			os.Exit(137) // 128+SIGKILL: look killed to the launcher
		default:
			f.Device.Close() //nolint:errcheck // dying rank has no one to tell
		}
	})
}

// Send applies the plan, then forwards.
func (f *Faulty) Send(dst int, frame []byte) error {
	if !f.deliver(dst) {
		return nil
	}
	return f.Device.Send(dst, frame)
}

// Sendv applies the plan, then forwards. Dropped recycle=true payloads
// are returned to the pool: the caller handed ownership over, and a
// blackholed frame has no downstream consumer to release it.
func (f *Faulty) Sendv(dst int, hdr, payload []byte, recycle bool) error {
	if !f.deliver(dst) {
		PutBuf(hdr)
		if recycle {
			PutBuf(payload)
		}
		return nil
	}
	return f.Device.Sendv(dst, hdr, payload, recycle)
}

// SendvLent applies the plan, then forwards the loan. A dropped frame
// has no consumer, so its loan goes straight back.
func (f *Faulty) SendvLent(dst int, hdr, payload []byte, loan Loan) error {
	if !f.deliver(dst) {
		PutBuf(hdr)
		loan.Returned()
		return nil
	}
	return f.Device.SendvLent(dst, hdr, payload, loan)
}
