package core

import (
	"encoding/binary"
	"runtime"
	"sync"
	"testing"
	"time"

	"gompi/internal/transport"
)

// gatedSends is a member device whose blocking sends wait for a gate to
// open, recording the id of every ACK in the order it was sent.
type gatedSends struct {
	transport.Device
	gate    chan struct{}
	mu      sync.Mutex
	entered int
	acks    []uint64
}

func (g *gatedSends) Sendv(dst int, hdr, payload []byte, recycle bool) error {
	g.mu.Lock()
	g.entered++
	g.mu.Unlock()
	<-g.gate
	if hdr[0] == kAck {
		g.mu.Lock()
		g.acks = append(g.acks, binary.LittleEndian.Uint64(hdr[5:]))
		g.mu.Unlock()
	}
	return g.Device.Sendv(dst, hdr, payload, recycle)
}

// TestControlFramesWaitInOneOutbox: control frames the endpoint will not
// take without waiting queue in one outbox, emptied in post order by one
// sender, not by a goroutine each; Close waits for that sender.
func TestControlFramesWaitInOneOutbox(t *testing.T) {
	const k = 32
	devs := transport.NewShmJob(2, 0)
	gated := &gatedSends{Device: devs[0], gate: make(chan struct{})}
	p0 := NewProc(gated, Config{})
	p1 := NewProc(devs[1], Config{})
	defer p1.Close()

	recvs := make([]*Request, k)
	for i := range recvs {
		recvs[i] = p0.Irecv(0, 1, int32(i))
	}
	base := runtime.NumGoroutine()
	sends := make([]*Request, k)
	for i := range sends {
		var err error
		if sends[i], err = p1.Isend(0, 1, 0, i, []byte{byte(i)}, ModeSync, false); err != nil {
			t.Fatal(err)
		}
	}
	eventually(t, "rank 0 matching every message", func() bool {
		_, done := recvs[k-1].Test()
		return done
	})
	time.Sleep(20 * time.Millisecond)
	if n := runtime.NumGoroutine() - base; n > 1 {
		t.Errorf("%d goroutines more while %d ACKs wait, want at most 1 sender", n, k)
	}
	gated.mu.Lock()
	entered := gated.entered
	gated.mu.Unlock()
	if entered > 1 {
		t.Errorf("%d sends blocked in the device at once, want 1", entered)
	}
	if n := pv(p0, "core.acks_sent"); n != k {
		t.Errorf("core.acks_sent = %d, want %d", n, k)
	}
	for i, s := range sends {
		if _, done := s.Test(); done {
			t.Fatalf("synchronous send %d completed before its ACK left", i)
		}
	}

	closed := make(chan struct{})
	go func() { p0.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned while the outbox still held frames")
	case <-time.After(50 * time.Millisecond):
	}

	close(gated.gate)
	for i, s := range sends {
		if st := waitStatus(t, s); st.Err != nil {
			t.Fatalf("synchronous send %d: %v", i, st.Err)
		}
	}
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close still waiting once the outbox could drain")
	}
	gated.mu.Lock()
	defer gated.mu.Unlock()
	if len(gated.acks) != k {
		t.Fatalf("%d ACKs sent, want %d", len(gated.acks), k)
	}
	for i, id := range gated.acks {
		if id != sends[i].id {
			t.Fatalf("ACK %d answers send id %d, want %d: not in post order", i, id, sends[i].id)
		}
	}
}
