package shmipc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gompi/internal/transport"
)

// Slot record layout, after the slot's 8-byte sequence word:
//
//	+0  kind    u8   kindInline | kindRef
//	+1  flags   u8   (reserved)
//	+2  hdrLen  u16  bytes of frame header stored inline at +16
//	+4  payLen  u32  payload bytes (inline after the header, or in the arena)
//	+8  payOff  u64  kindRef: segment offset of the arena payload
//	+16 header bytes, then (kindInline) the payload
//
// A kindRef record with hdrLen == 0 carries a whole contiguous frame in
// the arena block — the shape used when the header alone exceeds a slot.
const (
	kindInline = 1
	kindRef    = 2
	recHdr     = 16
)

// Device is one rank's endpoint on a shared segment: the "shm" medium.
// It sends by publishing records into the per-pair rings and receives by
// round-robin polling every incoming ring, so per-(sender,receiver) FIFO
// order follows directly from ring order.
type Device struct {
	seg    *Segment
	slot   int
	rank   int
	wsize  int
	world  []int       // slot -> world rank
	slotOf map[int]int // world rank -> slot

	// Per-destination producer state: one process-local tail per ring
	// this rank produces into, serialized per destination.
	sendMu []sync.Mutex
	tails  []uint64

	// Consumer state: heads for every incoming ring plus the rotating
	// scan start, all under recvMu (one logical consumer).
	recvMu   sync.Mutex
	heads    []uint64
	scan     int
	reported []bool // peer-loss already surfaced, per slot

	closed      atomic.Bool
	arenaShared bool

	framesSent, framesRecv atomic.Uint64
	bytesSent, bytesRecv   atomic.Uint64
}

// Attach joins the segment as worldRank. worldSize is the job's world
// size, which the device reports from Size; it may exceed the segment's
// rank count when this device is one island of a hybrid job.
func Attach(seg *Segment, worldRank, worldSize int) (*Device, error) {
	world := seg.WorldRanks()
	slot := -1
	slotOf := make(map[int]int, len(world))
	for i, w := range world {
		slotOf[w] = i
		if w == worldRank {
			slot = i
		}
	}
	if slot < 0 {
		return nil, fmt.Errorf("shmipc: rank %d has no slot in segment %s (ranks %v)", worldRank, seg.Path(), world)
	}
	if worldSize < len(world) {
		worldSize = len(world)
	}
	d := &Device{
		seg: seg, slot: slot, rank: worldRank, wsize: worldSize,
		world: world, slotOf: slotOf,
		sendMu:   make([]sync.Mutex, seg.nranks),
		tails:    make([]uint64, seg.nranks),
		heads:    make([]uint64, seg.nranks),
		reported: make([]bool, seg.nranks),
	}
	seg.attachSlot(slot)
	d.arenaShared = transport.ShareArena(seg)
	return d, nil
}

// Rank returns this endpoint's world rank.
func (d *Device) Rank() int { return d.rank }

// Size returns the job's world size.
func (d *Device) Size() int { return d.wsize }

// Segment returns the underlying segment (diagnostics and tests).
func (d *Device) Segment() *Segment { return d.seg }

func (d *Device) ringBase(from, to int) int {
	return d.seg.ringsOff + (from*d.seg.nranks+to)*d.seg.ringBytes + ringHdrBytes
}

// inlineCap is the largest header+payload a single slot carries.
func (d *Device) inlineCap() int { return d.seg.slotBytes - 8 - recHdr }

// backoff is the spin-then-sleep wait used whenever a ring or the arena
// is momentarily full/empty: a burst of Gosched keeps latency low, then
// sleeps grow to 200µs so an idle rank costs nothing.
type backoff struct{ n int }

func (b *backoff) pause() {
	b.n++
	if b.n < 2000 {
		runtime.Gosched()
		return
	}
	s := time.Duration(b.n-1999) * time.Microsecond
	if s > 200*time.Microsecond {
		s = 200 * time.Microsecond
	}
	time.Sleep(s)
}

// probeTick reports whether this pause iteration should also run the
// (syscall-priced) peer liveness probe.
func (b *backoff) probeTick() bool { return b.n&0x3ff == 0x3ff }

// checkPeer detects an unusable destination while blocked on it: a
// cleanly closed peer yields ErrClosed, a vanished process
// PeerLostError. A slot that was never attached is a peer still
// starting up, which is not an error.
func (d *Device) checkPeer(ds int) error {
	switch atomic.LoadUint32(d.seg.rankStateWord(ds)) {
	case rankClosed:
		return transport.ErrClosed
	case rankAttached:
		pid := int(atomic.LoadUint64(d.seg.rankPIDWord(ds)))
		if !pidAlive(pid) {
			return &transport.PeerLostError{Peer: d.world[ds]}
		}
	}
	return nil
}

// isBlock reports whether b is the full data view of a live arena block
// of this segment, i.e. eligible to be published by reference with no
// copy. The capacity check rejects interior aliases: only a buffer born
// from the arena still carries its class's exact capacity.
func (d *Device) isBlock(b []byte) (off int, ok bool) {
	if len(b) == 0 || cap(b) == 0 {
		return 0, false
	}
	p := dataPtr(b)
	if !d.seg.contains(p) {
		return 0, false
	}
	_, k, ok := d.seg.blockOf(p)
	if !ok || cap(b) != classData(k) {
		return 0, false
	}
	return d.seg.dataOff(p), true
}

// Send delivers a contiguous frame. A frame that already lives in the
// shared arena (GetBuf handed out segment memory) is published by
// reference; small frames travel inline through the ring; anything else
// is copied into a fresh arena block.
func (d *Device) Send(dst int, frame []byte) error {
	if err := d.checkSend(dst); err != nil {
		return err
	}
	ds := d.slotOf[dst]
	if off, ok := d.isBlock(frame); ok {
		return d.publish(ds, kindRef, nil, nil, uint64(off), len(frame))
	}
	if len(frame) <= d.inlineCap() {
		err := d.publish(ds, kindInline, frame, nil, 0, 0)
		transport.PutBuf(frame)
		return err
	}
	blk, err := d.allocWait(len(frame), ds)
	if err != nil {
		return err
	}
	copy(blk, frame)
	err = d.publish(ds, kindRef, nil, nil, uint64(d.seg.dataOff(dataPtr(blk))), len(frame))
	transport.PutBuf(frame)
	return err
}

// Sendv is the scatter-gather send. When the payload is an arena block
// and recycle licenses ownership transfer, the block is published by
// reference — the zero-copy cross-process path: the receiver reads the
// sender's buffer in place and its Release recirculates the block
// through the shared free list. Otherwise the payload is copied inline
// (small) or into an arena block (large).
func (d *Device) Sendv(dst int, hdr, payload []byte, recycle bool) error {
	if err := d.checkSend(dst); err != nil {
		return err
	}
	ds := d.slotOf[dst]
	hdrFits := len(hdr) <= d.inlineCap() && len(hdr) <= 1<<16-1

	if recycle && hdrFits {
		if off, ok := d.isBlock(payload); ok {
			err := d.publish(ds, kindRef, hdr, nil, uint64(off), len(payload))
			transport.PutBuf(hdr)
			return err
		}
	}
	if len(hdr)+len(payload) <= d.inlineCap() && hdrFits {
		err := d.publish(ds, kindInline, hdr, payload, 0, 0)
		d.doneWith(hdr, payload, recycle)
		return err
	}
	if hdrFits && len(payload) > 0 {
		blk, err := d.allocWait(len(payload), ds)
		if err != nil {
			return err
		}
		copy(blk, payload)
		err = d.publish(ds, kindRef, hdr, nil, uint64(d.seg.dataOff(dataPtr(blk))), len(payload))
		d.doneWith(hdr, payload, recycle)
		return err
	}
	// Oversized header (some callers pass the whole message as hdr):
	// ship header+payload as one contiguous arena frame.
	blk, err := d.allocWait(len(hdr)+len(payload), ds)
	if err != nil {
		return err
	}
	copy(blk[copy(blk, hdr):], payload)
	err = d.publish(ds, kindRef, nil, nil, uint64(d.seg.dataOff(dataPtr(blk))), len(hdr)+len(payload))
	d.doneWith(hdr, payload, recycle)
	return err
}

// SendvLent sends a lent payload. Without the recycle licence Sendv
// always copies — inline into the ring slot or into an arena block — so
// the caller's memory is read once and the loan is returned before
// SendvLent does, whether or not the frame was published.
func (d *Device) SendvLent(dst int, hdr, payload []byte, loan transport.Loan) error {
	err := d.Sendv(dst, hdr, payload, false)
	loan.Returned()
	return err
}

func (d *Device) checkSend(dst int) error {
	if d.closed.Load() {
		return transport.ErrClosed
	}
	if dst < 0 || dst >= d.wsize {
		return fmt.Errorf("transport: destination rank %d out of range [0,%d)", dst, d.wsize)
	}
	if _, ok := d.slotOf[dst]; !ok {
		return fmt.Errorf("shmipc: rank %d is not on segment %s", dst, d.seg.Path())
	}
	return nil
}

// doneWith returns the sender-side buffers of a copying path: the
// header always goes back to the pool, the payload only when recycle
// transferred its ownership to us.
func (d *Device) doneWith(hdr, payload []byte, recycle bool) {
	transport.PutBuf(hdr)
	if recycle && payload != nil {
		transport.PutBuf(payload)
	}
}

// publish writes one record into the ring toward slot ds, blocking
// while the ring is full. hdr and inl are copied into the slot; for
// kindRef frames payOff/payLen name the arena block.
func (d *Device) publish(ds int, kind byte, hdr, inl []byte, payOff uint64, payLen int) error {
	d.sendMu[ds].Lock()
	defer d.sendMu[ds].Unlock()
	pos := d.tails[ds]
	sb := d.ringBase(d.slot, ds) + int(pos%uint64(d.seg.slots))*d.seg.slotBytes
	seq := d.seg.word(sb)
	var bo backoff
	for atomic.LoadUint64(seq) != pos {
		if d.closed.Load() {
			return transport.ErrClosed
		}
		if bo.probeTick() {
			if err := d.checkPeer(ds); err != nil {
				return err
			}
		}
		bo.pause()
	}
	rec := sb + 8
	d.seg.b[rec] = kind
	d.seg.b[rec+1] = 0
	binary.LittleEndian.PutUint16(d.seg.b[rec+2:], uint16(len(hdr)))
	if kind == kindInline {
		binary.LittleEndian.PutUint32(d.seg.b[rec+4:], uint32(len(inl)))
		binary.LittleEndian.PutUint64(d.seg.b[rec+8:], 0)
	} else {
		binary.LittleEndian.PutUint32(d.seg.b[rec+4:], uint32(payLen))
		binary.LittleEndian.PutUint64(d.seg.b[rec+8:], payOff)
	}
	copy(d.seg.b[rec+recHdr:], hdr)
	copy(d.seg.b[rec+recHdr+len(hdr):], inl)
	atomic.StoreUint64(seq, pos+1)
	d.tails[ds] = pos + 1
	d.framesSent.Add(1)
	d.bytesSent.Add(uint64(len(hdr) + len(inl) + payLen))
	return nil
}

// Recv returns the next frame from any incoming ring, polling them
// round-robin with backoff. While idle it probes peer liveness and
// surfaces a vanished process as PeerLostError — once per peer, without
// closing the device, so the engine can fail that peer's operations and
// keep serving the rest.
func (d *Device) Recv() (transport.Frame, error) {
	d.recvMu.Lock()
	defer d.recvMu.Unlock()
	n := d.seg.nranks
	var bo backoff
	for {
		if d.closed.Load() {
			return transport.Frame{}, transport.ErrClosed
		}
		for i := 0; i < n; i++ {
			src := d.scan + i
			if src >= n {
				src -= n
			}
			pos := d.heads[src]
			sb := d.ringBase(src, d.slot) + int(pos%uint64(d.seg.slots))*d.seg.slotBytes
			seq := d.seg.word(sb)
			if atomic.LoadUint64(seq) != pos+1 {
				continue
			}
			f := d.consume(sb)
			atomic.StoreUint64(seq, pos+uint64(d.seg.slots))
			d.heads[src] = pos + 1
			d.scan = src + 1
			if d.scan >= n {
				d.scan = 0
			}
			return f, nil
		}
		if bo.probeTick() {
			for s := 0; s < n; s++ {
				if s == d.slot || d.reported[s] {
					continue
				}
				var pl *transport.PeerLostError
				if errors.As(d.checkPeer(s), &pl) {
					d.reported[s] = true
					return transport.Frame{}, pl
				}
			}
		}
		bo.pause()
	}
}

// consume materializes the frame in the slot at sb. Inline bytes are
// copied out (the slot is recycled immediately after); a referenced
// arena block is delivered as a zero-copy view whose Release frees it
// to the shared free list.
func (d *Device) consume(sb int) transport.Frame {
	rec := sb + 8
	kind := d.seg.b[rec]
	hdrLen := int(binary.LittleEndian.Uint16(d.seg.b[rec+2:]))
	payLen := int(binary.LittleEndian.Uint32(d.seg.b[rec+4:]))
	if kind == kindInline {
		data := transport.GetBuf(hdrLen + payLen)
		copy(data, d.seg.b[rec+recHdr:rec+recHdr+hdrLen+payLen])
		d.framesRecv.Add(1)
		d.bytesRecv.Add(uint64(len(data)))
		return transport.PooledFrame(data, nil, true, false)
	}
	payOff := int(binary.LittleEndian.Uint64(d.seg.b[rec+8:]))
	k := int(binary.LittleEndian.Uint32(d.seg.b[payOff-blkHdrBytes+8:]))
	pay := d.seg.b[payOff : payOff+payLen : payOff+classData(k)]
	d.framesRecv.Add(1)
	d.bytesRecv.Add(uint64(hdrLen + payLen))
	if hdrLen == 0 {
		return transport.PooledFrame(pay, nil, true, false)
	}
	data := transport.GetBuf(hdrLen)
	copy(data, d.seg.b[rec+recHdr:rec+recHdr+hdrLen])
	return transport.PooledFrame(data, pay, true, true)
}

// allocWait gets an arena block for a mandatory copy, blocking until
// the shared free lists recirculate one. It fails fast when the frame
// can never fit, and notices a dead/closed destination while waiting.
func (d *Device) allocWait(n, ds int) ([]byte, error) {
	k := classFor(n)
	if k < 0 || blkHdrBytes+classData(k) > d.seg.arenaLen {
		return nil, fmt.Errorf("shmipc: %d-byte frame exceeds arena capacity (%d)", n, d.seg.arenaLen)
	}
	d.seg.arGets.Add(1)
	var bo backoff
	for {
		if b := d.seg.allocBlock(k, n); b != nil {
			return b, nil
		}
		if d.closed.Load() {
			return nil, transport.ErrClosed
		}
		if bo.probeTick() {
			if err := d.checkPeer(ds); err != nil {
				return nil, err
			}
		}
		bo.pause()
	}
}

// Close marks this rank's slot closed (peers blocked on a full ring
// toward it observe ErrClosed) and unblocks local Recv calls. The
// mapping itself stays live until process exit so frames still aliasing
// segment memory remain valid.
func (d *Device) Close() error {
	if d.closed.Swap(true) {
		return nil
	}
	atomic.StoreUint32(d.seg.rankStateWord(d.slot), rankClosed)
	if d.arenaShared {
		transport.ReleaseArena(d.seg)
	}
	return nil
}

// DeviceStats reports this endpoint's traffic with the shared arena's
// counters as its pool dimension.
func (d *Device) DeviceStats() []transport.DevStats {
	return []transport.DevStats{{
		Name:       "shm",
		FramesSent: d.framesSent.Load(),
		FramesRecv: d.framesRecv.Load(),
		BytesSent:  d.bytesSent.Load(),
		BytesRecv:  d.bytesRecv.Load(),
		Pool:       d.seg.ArenaStats(),
	}}
}

// ErrUnsupported is what platforms without a shared mmap report.
var ErrUnsupported = errors.New("shmipc: shared memory transport unsupported on this platform")

var procJobSeq atomic.Uint64

// NewProcJob creates an n-rank job whose devices share one fresh
// segment within this process — the shared-memory analogue of
// NewLoopbackJob, used by tests and benchmarks. The segment file is
// unlinked immediately (the mapping keeps it alive), so even a crashed
// test leaks nothing.
func NewProcJob(n int, cfg Config) ([]transport.Device, error) {
	ranks := make([]int, n)
	for i := range ranks {
		ranks[i] = i
	}
	path := filepath.Join(DefaultDir(),
		fmt.Sprintf("%sproc-%d-%d.seg", SegPrefix, os.Getpid(), procJobSeq.Add(1)))
	seg, err := Create(path, ranks, cfg)
	if err != nil {
		return nil, err
	}
	seg.Unlink() //nolint:errcheck // mapping keeps the memory alive
	devs := make([]transport.Device, n)
	for i := range devs {
		dev, err := Attach(seg, i, n)
		if err != nil {
			for _, d := range devs[:i] {
				d.Close()
			}
			return nil, err
		}
		devs[i] = dev
	}
	return devs, nil
}
