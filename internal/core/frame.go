// Package core implements the message-passing progress engine under the
// public mpi binding: envelope matching with wildcards, the eager and
// rendezvous (RTS/CTS/DATA) wire protocols, send modes, unexpected-message
// queuing, probe, cancel, and request completion. It is the layer that a
// native MPI (MPICH, WMPI) provides in the paper; here it is built from
// scratch over the transport device abstraction.
//
// Matching runs under the engine's lock on whichever goroutine holds
// the progress role (Proc). An eager frame that a rank of the same job
// delivers while the receiver's mailbox is empty is matched on the
// sender's goroutine instead (Take), so it never enters the mailbox and
// nobody is woken to take it out. A hold is a receive posted from
// NoSource, which no frame carries: nothing but Settle, a revocation, a
// peer-loss or close sweep, or Cancel completes it, and it is how a
// member of an in-process island waits for the others (internal/coll).
// A revoked context pair, or a cancelled collective instance, matches
// nothing but recovery-tagged traffic: its pinned operations fail, its
// queued unexpected messages are released, and so is a message that
// arrives on it later.
package core

import (
	"encoding/binary"
	"fmt"

	"gompi/internal/transport"
)

// Frame kinds.
const (
	kEager     byte = iota // complete message, payload inline
	kEagerSync             // eager message requiring a matched ack (Ssend)
	kRts                   // rendezvous request-to-send, payload held at sender
	kCts                   // clear-to-send, receiver matched an RTS
	kData                  // rendezvous payload
	kAck                   // matched-ack for kEagerSync
	kRevoke                // communicator revocation (ULFM MPI_Comm_revoke)
	kWithdrawn             // answer to a CTS whose send is gone: no DATA will follow
)

// Wildcards used in receive matching. The public binding maps its own
// constants onto these.
const (
	AnySource int32 = -111
	AnyTag    int32 = -112
)

// envelope is the matching triple carried by every message-bearing frame,
// plus the sender's world rank for reply routing.
type envelope struct {
	srcWorld int32
	ctx      int32
	srcGroup int32 // sender's rank within the communicator's group
	tag      int32
}

// frame header layout after the kind byte. Headers are built into pooled
// buffers and shipped with Sendv, so the payload is never copied into a
// contiguous frame on the send side. An offer's RTS carries its payload,
// lent and by reference, so only ever scatter-gather:
//
//	kEager/kEagerSync: env(16) id(8) | payload
//	kRts:              env(16) id(8) size(4) [| payload]
//	kCts:              srcWorld(4) id(8) recvID(8)
//	kData:             srcWorld(4) recvID(8) | payload
//	kAck:              srcWorld(4) id(8)
//	kRevoke:           srcWorld(4) ctx(4) tag(4)
//	kWithdrawn:        srcWorld(4) recvID(8)
const envLen = 16

func putEnv(b []byte, e envelope) {
	binary.LittleEndian.PutUint32(b[0:], uint32(e.srcWorld))
	binary.LittleEndian.PutUint32(b[4:], uint32(e.ctx))
	binary.LittleEndian.PutUint32(b[8:], uint32(e.srcGroup))
	binary.LittleEndian.PutUint32(b[12:], uint32(e.tag))
}

func getEnv(b []byte) envelope {
	return envelope{
		srcWorld: int32(binary.LittleEndian.Uint32(b[0:])),
		ctx:      int32(binary.LittleEndian.Uint32(b[4:])),
		srcGroup: int32(binary.LittleEndian.Uint32(b[8:])),
		tag:      int32(binary.LittleEndian.Uint32(b[12:])),
	}
}

// buildEagerHdr builds the header of an eager frame; the payload travels
// separately through the device's scatter-gather send.
func buildEagerHdr(sync bool, e envelope, id uint64) []byte {
	f := transport.GetBuf(1 + envLen + 8)
	f[0] = kEager
	if sync {
		f[0] = kEagerSync
	}
	putEnv(f[1:], e)
	binary.LittleEndian.PutUint64(f[1+envLen:], id)
	return f
}

func buildRts(e envelope, id uint64, size int) []byte {
	f := transport.GetBuf(1 + envLen + 8 + 4)
	f[0] = kRts
	putEnv(f[1:], e)
	binary.LittleEndian.PutUint64(f[1+envLen:], id)
	binary.LittleEndian.PutUint32(f[1+envLen+8:], uint32(size))
	return f
}

func buildCts(srcWorld int32, id, recvID uint64) []byte {
	f := transport.GetBuf(1 + 4 + 8 + 8)
	f[0] = kCts
	binary.LittleEndian.PutUint32(f[1:], uint32(srcWorld))
	binary.LittleEndian.PutUint64(f[5:], id)
	binary.LittleEndian.PutUint64(f[13:], recvID)
	return f
}

// dataHdrLen is the length of a kData header: kind, srcWorld, recvID.
const dataHdrLen = 1 + 4 + 8

// buildDataHdr builds the header of a rendezvous DATA frame; the payload
// travels separately through Sendv.
func buildDataHdr(srcWorld int32, recvID uint64) []byte {
	return buildRecvIDFrame(kData, srcWorld, recvID)
}

// buildWithdrawn builds the answer to a CTS that found its send gone.
func buildWithdrawn(srcWorld int32, recvID uint64) []byte {
	return buildRecvIDFrame(kWithdrawn, srcWorld, recvID)
}

func buildRecvIDFrame(kind byte, srcWorld int32, recvID uint64) []byte {
	f := transport.GetBuf(dataHdrLen)
	f[0] = kind
	binary.LittleEndian.PutUint32(f[1:], uint32(srcWorld))
	binary.LittleEndian.PutUint64(f[5:], recvID)
	return f
}

func buildAck(srcWorld int32, id uint64) []byte {
	f := transport.GetBuf(1 + 4 + 8)
	f[0] = kAck
	binary.LittleEndian.PutUint32(f[1:], uint32(srcWorld))
	binary.LittleEndian.PutUint64(f[5:], id)
	return f
}

// buildRevoke builds a revocation notice: for the communicator whose
// point-to-point context is ctx (the pair base) when tag is wholePair,
// else for the collective instance tag names on ctx.
func buildRevoke(srcWorld, ctx, tag int32) []byte {
	f := transport.GetBuf(1 + 4 + 4 + 4)
	f[0] = kRevoke
	binary.LittleEndian.PutUint32(f[1:], uint32(srcWorld))
	binary.LittleEndian.PutUint32(f[5:], uint32(ctx))
	binary.LittleEndian.PutUint32(f[9:], uint32(tag))
	return f
}

// PatchFrameSource overwrites the sender world rank a frame carries.
// Every frame kind stores it in the same place — the four bytes after
// the kind byte (the envelope's srcWorld for kEager/kEagerSync/kRts,
// the bare srcWorld field for every other kind) — so a boundary
// that renumbers peers (the dynamic-process fabric, where each process
// assigns late-joining peers its own local indices) can rewrite the
// sender's self-assigned rank to the receiver's index for that peer
// with one fixed-offset store, before the engine parses the frame.
func PatchFrameSource(data []byte, src int32) error {
	if len(data) < 5 {
		return fmt.Errorf("core: frame too short to carry a source rank (%d bytes)", len(data))
	}
	binary.LittleEndian.PutUint32(data[1:5], uint32(src))
	return nil
}

// parsed is a decoded incoming frame. payload aliases the transport
// frame's storage (or, over shm, the sender's payload buffer); frame
// retains ownership so the engine can release or transfer it.
type parsed struct {
	kind    byte
	env     envelope
	id      uint64
	recvID  uint64
	size    int
	payload []byte
	frame   transport.Frame
}

func parseFrame(f transport.Frame) (parsed, error) {
	hdr := f.Data
	if len(hdr) < 1 {
		return parsed{frame: f}, fmt.Errorf("core: empty frame")
	}
	p := parsed{kind: hdr[0], frame: f}
	body := hdr[1:]
	// inline returns the payload tail: the separately delivered payload
	// when the frame arrived scatter-gather, else the bytes after the
	// header.
	inline := func(hdrLen int) []byte {
		if f.Payload != nil {
			return f.Payload
		}
		return body[hdrLen:]
	}
	switch p.kind {
	case kEager, kEagerSync:
		if len(body) < envLen+8 {
			return p, fmt.Errorf("core: short eager frame (%d bytes)", len(hdr))
		}
		p.env = getEnv(body)
		p.id = binary.LittleEndian.Uint64(body[envLen:])
		p.payload = inline(envLen + 8)
	case kRts:
		if len(body) < envLen+12 {
			return p, fmt.Errorf("core: short rts frame (%d bytes)", len(hdr))
		}
		p.env = getEnv(body)
		p.id = binary.LittleEndian.Uint64(body[envLen:])
		p.size = int(binary.LittleEndian.Uint32(body[envLen+8:]))
		p.payload = f.Payload
	case kCts:
		if len(body) < 20 {
			return p, fmt.Errorf("core: short cts frame (%d bytes)", len(hdr))
		}
		p.env.srcWorld = int32(binary.LittleEndian.Uint32(body))
		p.id = binary.LittleEndian.Uint64(body[4:])
		p.recvID = binary.LittleEndian.Uint64(body[12:])
	case kData:
		if len(body) < 12 {
			return p, fmt.Errorf("core: short data frame (%d bytes)", len(hdr))
		}
		p.env.srcWorld = int32(binary.LittleEndian.Uint32(body))
		p.recvID = binary.LittleEndian.Uint64(body[4:])
		p.payload = inline(12)
	case kWithdrawn:
		if len(body) < 12 {
			return p, fmt.Errorf("core: short withdrawn frame (%d bytes)", len(hdr))
		}
		p.env.srcWorld = int32(binary.LittleEndian.Uint32(body))
		p.recvID = binary.LittleEndian.Uint64(body[4:])
	case kAck:
		if len(body) < 12 {
			return p, fmt.Errorf("core: short ack frame (%d bytes)", len(hdr))
		}
		p.env.srcWorld = int32(binary.LittleEndian.Uint32(body))
		p.id = binary.LittleEndian.Uint64(body[4:])
	case kRevoke:
		if len(body) < 12 {
			return p, fmt.Errorf("core: short revoke frame (%d bytes)", len(hdr))
		}
		p.env.srcWorld = int32(binary.LittleEndian.Uint32(body))
		p.env.ctx = int32(binary.LittleEndian.Uint32(body[4:]))
		p.env.tag = int32(binary.LittleEndian.Uint32(body[8:]))
	default:
		return p, fmt.Errorf("core: unknown frame kind %d", p.kind)
	}
	return p, nil
}
