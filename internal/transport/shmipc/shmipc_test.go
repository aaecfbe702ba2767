package shmipc

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gompi/internal/transport"
)

func newPair(t *testing.T, cfg Config) []transport.Device {
	t.Helper()
	devs, err := NewProcJob(2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, d := range devs {
			d.Close()
		}
	})
	return devs
}

// TestFIFOPerPair is the transport contract test: every rank floods
// every other rank with numbered frames; receivers must observe each
// sender's sequence in order.
func TestFIFOPerPair(t *testing.T) {
	devs, err := NewProcJob(3, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, d := range devs {
			d.Close()
		}
	}()
	const n = 500
	var wg sync.WaitGroup
	for i := range devs {
		wg.Add(1)
		go func(d transport.Device) {
			defer wg.Done()
			for k := 0; k < n; k++ {
				for j := range devs {
					if j == d.Rank() {
						continue
					}
					frame := []byte{byte(d.Rank()), byte(k >> 8), byte(k)}
					if err := d.Send(j, frame); err != nil {
						t.Errorf("send: %v", err)
						return
					}
				}
			}
		}(devs[i])
	}
	for i := range devs {
		wg.Add(1)
		go func(d transport.Device) {
			defer wg.Done()
			last := make(map[byte]int)
			total := (len(devs) - 1) * n
			for c := 0; c < total; c++ {
				f, err := d.Recv()
				if err != nil {
					t.Errorf("recv: %v", err)
					return
				}
				src := f.Data[0]
				seq := int(f.Data[1])<<8 | int(f.Data[2])
				f.Release()
				if prev, ok := last[src]; ok && seq != prev+1 {
					t.Errorf("rank %d: from %d got seq %d after %d", d.Rank(), src, seq, prev)
					return
				}
				last[src] = seq
			}
		}(devs[i])
	}
	wg.Wait()
}

func TestSelfSend(t *testing.T) {
	devs := newPair(t, Config{})
	want := []byte("self")
	if err := devs[0].Send(0, want); err != nil {
		t.Fatal(err)
	}
	got, err := devs[0].Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, want) {
		t.Fatalf("got %q", got.Data)
	}
	got.Release()
}

func TestLargeFrameContiguous(t *testing.T) {
	devs := newPair(t, Config{})
	big := make([]byte, 4<<20)
	for i := range big {
		big[i] = byte(i * 31)
	}
	go devs[0].Send(1, append([]byte(nil), big...)) //nolint:errcheck // checked via received bytes
	got, err := devs[1].Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, big) {
		t.Fatal("large frame corrupted")
	}
	got.Release()
}

func TestBadDestination(t *testing.T) {
	devs := newPair(t, Config{})
	if err := devs[0].Send(5, []byte("x")); err == nil {
		t.Fatal("out-of-range destination must error")
	}
	if err := devs[0].Send(-1, []byte("x")); err == nil {
		t.Fatal("negative destination must error")
	}
}

func TestCloseUnblocksRecv(t *testing.T) {
	devs := newPair(t, Config{})
	done := make(chan error, 1)
	go func() {
		_, err := devs[0].Recv()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	devs[0].Close()
	select {
	case err := <-done:
		if !errors.Is(err, transport.ErrClosed) {
			t.Fatalf("got %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock on Close")
	}
}

// TestZeroCopyRecirculation exercises the headline path: a pooled
// payload is packed straight into segment memory (the arena hook),
// published by reference, read in place by the receiver, and freed back
// to the shared free list, so the next send reuses the same block.
func TestZeroCopyRecirculation(t *testing.T) {
	devs := newPair(t, Config{})
	dev0 := devs[0].(*Device)
	seg := dev0.Segment()

	const size = 64 << 10
	for round := 0; round < 8; round++ {
		payload := transport.GetBuf(size)
		if off, ok := dev0.isBlock(payload); !ok {
			t.Fatalf("round %d: GetBuf(%d) not served from the arena", round, size)
		} else if round == 0 && off == 0 {
			t.Fatal("bogus block offset")
		}
		for i := range payload {
			payload[i] = byte(i + round)
		}
		hdr := transport.GetBuf(16)
		if err := devs[0].Sendv(1, hdr, payload, true); err != nil {
			t.Fatal(err)
		}
		f, err := devs[1].Recv()
		if err != nil {
			t.Fatal(err)
		}
		if len(f.Payload) != size || f.Payload[1] != byte(1+round) {
			t.Fatalf("round %d: bad payload", round)
		}
		if !f.PayloadPooled() {
			t.Fatal("referenced payload must be pool-marked")
		}
		f.Release()
	}
	st := seg.ArenaStats()
	if st.Hits == 0 {
		t.Fatalf("no block recirculation: %+v", st)
	}
}

// TestRingBackpressure fills a tiny ring and checks the producer blocks
// until the consumer drains, with no frame lost or reordered.
func TestRingBackpressure(t *testing.T) {
	devs := newPair(t, Config{Slots: 4})
	const total = 32
	var sent atomic.Int32
	go func() {
		for k := 0; k < total; k++ {
			if err := devs[0].Send(1, []byte{byte(k)}); err != nil {
				t.Errorf("send %d: %v", k, err)
				return
			}
			sent.Add(1)
		}
	}()
	time.Sleep(100 * time.Millisecond)
	if got := sent.Load(); got > 4 {
		t.Fatalf("ring of 4 accepted %d frames without a consumer", got)
	}
	for k := 0; k < total; k++ {
		f, err := devs[1].Recv()
		if err != nil {
			t.Fatal(err)
		}
		if f.Data[0] != byte(k) {
			t.Fatalf("frame %d out of order: got %d", k, f.Data[0])
		}
		f.Release()
	}
}

// TestSendToClosedPeer checks a producer blocked on a full ring toward
// a closed rank fails with ErrClosed instead of spinning forever.
func TestSendToClosedPeer(t *testing.T) {
	devs := newPair(t, Config{Slots: 4})
	devs[1].Close()
	var err error
	for k := 0; k < 16; k++ {
		if err = devs[0].Send(1, []byte{byte(k)}); err != nil {
			break
		}
	}
	if !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("got %v, want ErrClosed once the ring filled", err)
	}
}

// TestPeerLost simulates a vanished process by planting a dead pid in
// the peer's rank record: Recv must surface PeerLostError exactly once
// and keep the device open.
func TestPeerLost(t *testing.T) {
	devs := newPair(t, Config{})
	dev0 := devs[0].(*Device)
	seg := dev0.Segment()
	dead := deadPID(t)
	atomic.StoreUint64(seg.rankPIDWord(1), uint64(dead))

	_, err := devs[0].Recv()
	var pl *transport.PeerLostError
	if !errors.As(err, &pl) || pl.Peer != 1 {
		t.Fatalf("got %v, want PeerLostError for rank 1", err)
	}
	// The device still works: self traffic flows after the report.
	if err := devs[0].Send(0, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	f, err := devs[0].Recv()
	if err != nil {
		t.Fatalf("device unusable after peer loss: %v", err)
	}
	f.Release()
}

// TestCleanupStale checks the crash sweep removes a segment whose
// creator died and leaves live ones alone.
func TestCleanupStale(t *testing.T) {
	dir := t.TempDir()
	live, err := Create(filepath.Join(dir, SegPrefix+"live.seg"), []int{0}, Config{ArenaBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Unlink() //nolint:errcheck // best-effort test cleanup
	stale, err := Create(filepath.Join(dir, SegPrefix+"stale.seg"), []int{0}, Config{ArenaBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite the stale segment's owner pid to a dead process's.
	f, err := os.OpenFile(stale.Path(), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var pid [4]byte
	dead := deadPID(t)
	pid[0], pid[1], pid[2], pid[3] = byte(dead), byte(dead>>8), byte(dead>>16), byte(dead>>24)
	if _, err := f.WriteAt(pid[:], offOwnerPID); err != nil {
		t.Fatal(err)
	}
	f.Close()

	removed, err := CleanupStale(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 || filepath.Base(removed[0]) != SegPrefix+"stale.seg" {
		t.Fatalf("removed %v, want just the stale segment", removed)
	}
	if _, err := os.Stat(live.Path()); err != nil {
		t.Fatalf("live segment swept away: %v", err)
	}
}

// deadPID returns a pid with no living process behind it.
func deadPID(t *testing.T) int {
	t.Helper()
	for pid := 1 << 22; pid > 1<<20; pid -= 7919 {
		if !pidAlive(pid) {
			return pid
		}
	}
	t.Fatal("no dead pid found")
	return 0
}

// TestMuxOverShmIslands routes a 4-rank world over two 2-rank shm
// islands bridged per-pair by the in-process channel device — the same
// composition shape launch uses for multi-node jobs, minus sockets.
func TestMuxOverShmIslands(t *testing.T) {
	island0, err := NewProcJob(2, Config{ArenaBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	// World ranks 2,3 on the second island need world-rank slots, so
	// build its segment explicitly.
	dir := t.TempDir()
	seg, err := Create(filepath.Join(dir, SegPrefix+"isl1.seg"), []int{2, 3}, Config{ArenaBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Unlink() //nolint:errcheck // best-effort test cleanup
	island1 := make([]transport.Device, 2)
	for i := 0; i < 2; i++ {
		d, err := Attach(seg, 2+i, 4)
		if err != nil {
			t.Fatal(err)
		}
		island1[i] = d
	}
	bridge := transport.NewShmJob(4, 0)

	hybrids := make([]transport.Device, 4)
	for r := 0; r < 4; r++ {
		route := make([]transport.Device, 4)
		var local transport.Device
		if r < 2 {
			local = island0[r]
		} else {
			local = island1[r-2]
		}
		for p := 0; p < 4; p++ {
			if (r < 2) == (p < 2) {
				route[p] = local
			} else {
				route[p] = bridge[r]
			}
		}
		hybrids[r] = transport.NewMux(r, route)
	}
	defer func() {
		for _, h := range hybrids {
			h.Close()
		}
	}()

	var wg sync.WaitGroup
	for r := range hybrids {
		wg.Add(1)
		go func(d transport.Device) {
			defer wg.Done()
			for p := 0; p < 4; p++ {
				if p == d.Rank() {
					continue
				}
				msg := fmt.Sprintf("%d->%d", d.Rank(), p)
				if err := d.Send(p, []byte(msg)); err != nil {
					t.Errorf("send %s: %v", msg, err)
				}
			}
			got := map[string]bool{}
			for c := 0; c < 3; c++ {
				f, err := d.Recv()
				if err != nil {
					t.Errorf("rank %d recv: %v", d.Rank(), err)
					return
				}
				got[string(f.Data)] = true
				f.Release()
			}
			for p := 0; p < 4; p++ {
				if p != d.Rank() && !got[fmt.Sprintf("%d->%d", p, d.Rank())] {
					t.Errorf("rank %d missing frame from %d (got %v)", d.Rank(), p, got)
				}
			}
		}(hybrids[r])
	}
	wg.Wait()

	st := hybrids[0].DeviceStats()
	names := map[string]bool{}
	for _, s := range st {
		names[s.Name] = true
	}
	if !names["shm"] || !names["chan"] {
		t.Fatalf("hybrid stats missing a medium: %+v", st)
	}
}

// onceLoan counts how often a loan comes back.
type onceLoan struct{ n atomic.Int32 }

func (l *onceLoan) Returned() { l.n.Add(1) }

// TestLoanReturnsAtSendvLentReturn: the segment device copies a lent
// payload — inline into the slot or into an arena block — so the loan
// is back exactly once by the time SendvLent returns, on success and on
// every failure return, and the receiver never sees the lender's
// memory.
func TestLoanReturnsAtSendvLentReturn(t *testing.T) {
	devs := newPair(t, Config{})
	send := func(d transport.Device, dst int, payload []byte) (error, int32) {
		loan := &onceLoan{}
		err := d.SendvLent(dst, transport.GetBuf(8), payload, loan)
		return err, loan.n.Load()
	}
	for _, size := range []int{16, 256 << 10} { // inline slot, arena block
		payload := bytes.Repeat([]byte{0xa5}, size)
		if err, n := send(devs[0], 1, payload); err != nil || n != 1 {
			t.Fatalf("%d-byte lent send: err=%v, loan returned %d times", size, err, n)
		}
		f, err := devs[1].Recv()
		if err != nil {
			t.Fatal(err)
		}
		got := f.Payload
		if got == nil {
			got = f.Data[8:]
		}
		if f.Lent() || !bytes.Equal(got, payload) || &got[0] == &payload[0] {
			t.Fatalf("%d-byte frame: lent=%v, copy intact=%v", size, f.Lent(), bytes.Equal(got, payload))
		}
		f.Release()
	}
	if err, n := send(devs[0], 5, []byte("x")); err == nil || n != 1 {
		t.Fatalf("bad destination: err=%v, loan returned %d times", err, n)
	}
	devs[0].Close()
	if err, n := send(devs[0], 1, []byte("x")); !errors.Is(err, transport.ErrClosed) || n != 1 {
		t.Fatalf("closed device: err=%v, loan returned %d times", err, n)
	}
}
