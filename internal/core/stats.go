package core

import (
	"gompi/internal/obs"

	"gompi/internal/transport"
)

// Stats are the engine's monotonic counters: the hot path's typed
// handles onto its performance variables. Each field is a counter in
// the engine's obs.Registry under its "core.*" name, and the registry
// is where they are read (Env.PerfVar / Env.PerfVars). All counters
// are updated with atomics and may be read at any time.
type Stats struct {
	// SendsEager counts standard/ready-mode messages shipped eagerly.
	SendsEager *obs.Counter
	// SendsSync counts synchronous-mode eager messages (ack-gated).
	SendsSync *obs.Counter
	// SendsRndv counts messages that took the RTS/CTS/DATA path.
	SendsRndv *obs.Counter
	// SendsLent counts the rendezvous sends (a subset of SendsRndv)
	// whose payload stayed the caller's memory, on loan, instead of
	// travelling as a packed copy; BytesLent totals their payloads.
	SendsLent *obs.Counter
	BytesLent *obs.Counter
	// BytesSent totals payload bytes handed to the device.
	BytesSent *obs.Counter
	// RecvsMatched counts receives satisfied from the posted queue
	// (message arrived after the receive was posted).
	RecvsMatched *obs.Counter
	// RecvsUnexpected counts receives satisfied from the unexpected
	// queue (message arrived first).
	RecvsUnexpected *obs.Counter
	// BytesRecv totals payload bytes delivered to receives.
	BytesRecv *obs.Counter
	// BytesCopied totals payload bytes the engine copied on the
	// receive side: receive-into deposits, and the private copy an
	// ordinary receive gets of a lent payload. Other ordinary receives
	// hand the frame over by reference and copy nothing here, so
	// BytesCopied against BytesRecv measures how much of the traffic
	// pays an engine-side copy — for a lent send met by a receive-into,
	// the only copy the message pays anywhere.
	BytesCopied *obs.Counter
	// BytesLanded totals the rendezvous payload bytes a connection's
	// read loop read off the socket straight into the receive's own
	// buffer (Proc.Land): bytes that were never staged and that the
	// engine never copied. With BytesCopied it says which way every
	// received byte went.
	BytesLanded *obs.Counter
	// BytesInlined totals the eager payload bytes the engine copied on
	// the send side, into the room their header's pooled buffer had
	// left, so that one buffer crosses to the receiver instead of two.
	BytesInlined *obs.Counter
	// RecvsZeroCopy counts receives completed by transferring frame
	// ownership instead of copying the payload.
	RecvsZeroCopy *obs.Counter
	// Cancelled counts operations completed by cancellation.
	Cancelled *obs.Counter
	// PeersLost counts peer processes whose loss the engine has
	// observed and converted into per-operation failures.
	PeersLost *obs.Counter
	// FramesMalformed counts frames a peer put on the wire that
	// parseFrame rejected; each is dropped, so whatever it was meant
	// to complete still waits — a nonzero count is the first thing to
	// look for behind a hang.
	FramesMalformed *obs.Counter
	// ProgressWakes counts the progress goroutine woken by its bell:
	// something reached the mailbox while no caller drove progress.
	ProgressWakes *obs.Counter
	// CallerPolls counts a caller blocked in Wait or Probe, holding the
	// progress role, parking on its bell. With ProgressWakes it is every
	// goroutine the mailbox wakes.
	CallerPolls *obs.Counter
	// AcksSent counts the ACKs this rank owed synchronous senders: one
	// per synchronous message it matched, whichever came first.
	AcksSent *obs.Counter
	// FramesTaken counts the eager frames a rank of the same job ran
	// through this engine itself (Proc.Take), never entering the mailbox.
	FramesTaken *obs.Counter
}

// newStats registers the engine's counters in reg.
func newStats(reg *obs.Registry) Stats {
	return Stats{
		SendsEager:      reg.Counter("core.sends_eager"),
		SendsSync:       reg.Counter("core.sends_sync"),
		SendsRndv:       reg.Counter("core.sends_rndv"),
		SendsLent:       reg.Counter("core.sends_lent"),
		BytesLent:       reg.Counter("core.bytes_lent"),
		BytesSent:       reg.Counter("core.bytes_sent"),
		RecvsMatched:    reg.Counter("core.recvs_matched"),
		RecvsUnexpected: reg.Counter("core.recvs_unexpected"),
		BytesRecv:       reg.Counter("core.bytes_recv"),
		BytesCopied:     reg.Counter("core.bytes_copied"),
		BytesLanded:     reg.Counter("core.bytes_landed"),
		BytesInlined:    reg.Counter("core.bytes_inlined"),
		RecvsZeroCopy:   reg.Counter("core.recvs_zero_copy"),
		Cancelled:       reg.Counter("core.cancelled"),
		PeersLost:       reg.Counter("core.peers_lost"),
		FramesMalformed: reg.Counter("core.frames_malformed"),
		ProgressWakes:   reg.Counter("core.progress_wakes"),
		CallerPolls:     reg.Counter("core.caller_polls"),
		AcksSent:        reg.Counter("core.acks_sent"),
		FramesTaken:     reg.Counter("core.frames_taken"),
	}
}

// transportVars reads what the transport counts as the engine's
// "transport.*" variables: the process-wide frame pool
// ("transport.pool_gets", _hits, _puts, _drops — shared by every
// in-process rank) and one set per medium the endpoint routes over
// ("transport.<medium>.frames_sent", ... — "chan", "tcp", "shm", "dyn"),
// whose pool_gets/pool_hits are the medium's own buffer pool (the
// shared-memory arena for "shm").
func (p *Proc) transportVars() []obs.VarValue {
	var out []obs.VarValue
	add := func(name string, v uint64) {
		out = append(out, obs.VarValue{Name: "transport." + name, Class: "counter", Value: int64(v)})
	}
	pool := transport.PoolStats()
	add("pool_gets", pool.Gets)
	add("pool_hits", pool.Hits)
	add("pool_puts", pool.Puts)
	add("pool_drops", pool.Drops)
	for _, d := range p.mux.DeviceStats() {
		m := d.Name + "."
		add(m+"frames_sent", d.FramesSent)
		add(m+"frames_recv", d.FramesRecv)
		add(m+"bytes_sent", d.BytesSent)
		add(m+"bytes_recv", d.BytesRecv)
		add(m+"send_waits", d.SendWaits)
		add(m+"pool_gets", d.Pool.Gets)
		add(m+"pool_hits", d.Pool.Hits)
	}
	return out
}

// Stats returns the engine's counter set.
func (p *Proc) Stats() *Stats { return &p.stats }

// Obs returns the engine's performance/control-variable registry.
func (p *Proc) Obs() *obs.Registry { return p.reg }

// Recorder returns the engine's flight recorder; nil when tracing is
// disabled (every Recorder method is nil-safe, so callers thread the
// pointer through unconditionally).
func (p *Proc) Recorder() *obs.Recorder { return p.rec }
