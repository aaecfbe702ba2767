package transport

import "sync/atomic"

// DevStats is one medium's traffic counters: the per-device dimension
// of the engine's observability surface. Pool describes the frame-pool
// the medium draws payload buffers from (the process-private pool for
// in-process and socket media, the shared-segment arena for shmipc), so
// hit rates are attributable per medium.
type DevStats struct {
	// Name is the medium ("chan", "tcp", "shm", ...).
	Name string
	// FramesSent/FramesRecv count frames through this endpoint.
	FramesSent, FramesRecv uint64
	// BytesSent/BytesRecv total frame bytes (header + payload).
	BytesSent, BytesRecv uint64
	// SendWaits counts the frames whose producer found the destination
	// mailbox full and had to wait for the engine to drain it: how often
	// the inbox depth engaged as flow control on this medium. Counted on
	// the sending endpoint by reference, on the reading one for a
	// connection.
	SendWaits uint64
	// Pool is the medium's buffer-pool counter snapshot.
	Pool PoolSnapshot
}

// devCounters is the embeddable atomic counter block behind DevStats.
type devCounters struct {
	framesSent, framesRecv atomic.Uint64
	bytesSent, bytesRecv   atomic.Uint64
	sendWaits              atomic.Uint64
}

func (c *devCounters) countSend(n int) {
	c.framesSent.Add(1)
	c.bytesSent.Add(uint64(n))
}

func (c *devCounters) countRecv(n int) {
	c.framesRecv.Add(1)
	c.bytesRecv.Add(uint64(n))
}

func (c *devCounters) stats(name string, pool PoolSnapshot) DevStats {
	return DevStats{
		Name:       name,
		FramesSent: c.framesSent.Load(),
		FramesRecv: c.framesRecv.Load(),
		BytesSent:  c.bytesSent.Load(),
		BytesRecv:  c.bytesRecv.Load(),
		SendWaits:  c.sendWaits.Load(),
		Pool:       pool,
	}
}
