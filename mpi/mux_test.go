package mpi

import (
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"gompi/internal/core"
	"gompi/internal/transport"
)

// pumps counts the live mux pump goroutines the calling goroutine
// started, by the one place that starts them (a goroutine that has not
// run yet shows only its creator). Naming the creator keeps every other
// test's muxes, live or dying, out of the count.
func pumps() int {
	buf := make([]byte, 1<<20)
	all := string(buf[:runtime.Stack(buf, true)]) // the caller's own stack comes first
	self := all[len("goroutine "):strings.Index(all, " [")]
	return strings.Count(all, "created by gompi/internal/transport.NewMux in goroutine "+self+"\n")
}

// TestEnvAdoptsAMux: an environment over a bare device reads it through
// a mux of its own — one pump — and one handed a device that already is
// a mux (what the hybrid launcher builds) adds none: between any member
// and the engine there is exactly one pump.
func TestEnvAdoptsAMux(t *testing.T) {
	bare := newEnv(transport.NewShmJob(1, 0)[0], core.Config{})
	if got := pumps(); got != 1 {
		t.Fatalf("environment over a bare device runs %d pumps, want 1", got)
	}
	mux := transport.MuxOver(transport.NewShmJob(1, 0)[0])
	adopted := newEnv(mux, core.Config{})
	if got := pumps(); got != 2 {
		t.Fatalf("two environments, one over a ready-made mux, run %d pumps, want 2", got)
	}
	for _, e := range []*Env{bare, adopted} {
		if err := e.Finalize(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := mux.Recv(); err != transport.ErrClosed {
		t.Fatalf("Finalize left the adopted mux open: Recv err %v", err)
	}
	for deadline := time.Now().Add(5 * time.Second); pumps() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d pumps outlived Finalize", pumps())
		}
	}
}

// twoMediaJob builds the endpoints of a 4-rank hybrid job inside one
// process: ranks {0,1} and {2,3} are chan islands, bridged by a partial
// socket mesh over loopback, one Mux per rank — the composition mpirun
// -nodes 2 gives OS-process ranks, minus the shared segment.
func twoMediaJob(t *testing.T) []*transport.Mux {
	t.Helper()
	const n = 4
	// Each island is a whole-world chan job of which only its own two
	// ranks are used, so its endpoints carry their world ranks.
	islands := [][]*transport.ShmDevice{transport.NewShmJob(n, 0), transport.NewShmJob(n, 0)}
	lns, addrs := make([]net.Listener, n), make([]string, n)
	for r := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[r], addrs[r] = ln, ln.Addr().String()
	}
	muxes, errs := make([]*transport.Mux, n), make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			sameIsland := make([]bool, n)
			for p := range sameIsland {
				sameIsland[p] = p/2 == r/2
			}
			mesh, err := transport.ConnectPartialMesh(r, n, addrs, lns[r], true, sameIsland)
			if err != nil {
				errs[r] = err
				return
			}
			route := make([]transport.Device, n)
			for p := range route {
				if sameIsland[p] {
					route[p] = islands[r/2][r]
				} else {
					route[p] = mesh
				}
			}
			muxes[r] = transport.NewMux(r, route)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return muxes
}

// TestTwoMediaJobLendsAcrossEachMedium runs eager and lent ping-pongs
// across the island and across the mesh of a two-media job, each rank's
// environment adopting its ready-made mux. Above the eager limit a send
// must be lent whichever member routes it — the engine's copy counter
// moves only by the one receive-side deposit — and both media must have
// carried frames.
func TestTwoMediaJobLendsAcrossEachMedium(t *testing.T) {
	muxes := twoMediaJob(t)
	const small, big = 8, 256 << 10
	pairs := [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}} // island, mesh, mesh, island
	pingpong := func(w *Intracomm, a, b, size int) error {
		out, in := make([]byte, size), make([]byte, size)
		for i := range out {
			out[i] = byte(i + a + b)
		}
		first, peer := w.Rank() == a, a+b-w.Rank()
		if first {
			if err := w.Send(out, 0, size, BYTE, peer, size); err != nil {
				return err
			}
		}
		if _, err := w.Recv(in, 0, size, BYTE, peer, size); err != nil {
			return err
		}
		if !first {
			if err := w.Send(out, 0, size, BYTE, peer, size); err != nil {
				return err
			}
		}
		if string(in) != string(out) {
			return fmt.Errorf("%d-byte payload from rank %d arrived damaged", size, peer)
		}
		return nil
	}
	stats := make([]EngineStats, len(muxes))
	err := RunWith(RunOptions{
		NP:         len(muxes),
		WrapDevice: func(rank int, _ transport.Device) transport.Device { return muxes[rank] },
	}, func(env *Env) error {
		w := env.CommWorld()
		for _, p := range pairs {
			if w.Rank() != p[0] && w.Rank() != p[1] {
				continue
			}
			for _, size := range []int{small, big} {
				if err := pingpong(w, p[0], p[1], size); err != nil {
					return fmt.Errorf("pair %v: %w", p, err)
				}
			}
		}
		stats[w.Rank()] = env.EngineStats()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for rank, s := range stats {
		// Every rank is in two pairs: two small and two big messages
		// each way.
		if s.SendsLent != 2 || s.BytesLent != 2*big || s.SendsEager != 2 {
			t.Errorf("rank %d: sends_lent=%d bytes_lent=%d sends_eager=%d, want 2 lent sends of %d bytes and 2 eager",
				rank, s.SendsLent, s.BytesLent, s.SendsEager, big)
		}
		if want := uint64(2 * (small + big)); s.BytesCopied != want {
			t.Errorf("rank %d: bytes_copied=%d, want %d (one deposit per message received, no staging of the lent ones)",
				rank, s.BytesCopied, want)
		}
		media := map[string]uint64{}
		for _, d := range s.DeviceStats {
			media[d.Device] += d.FramesSent
		}
		if len(s.DeviceStats) != 2 || media["chan"] == 0 || media["tcp"] == 0 {
			t.Errorf("rank %d: device stats %+v, want one chan and one tcp entry, both used", rank, s.DeviceStats)
		}
	}
}

// TestShapedRunLends: link emulation charges a lent send and forwards
// the loan; it does not fall back to packing.
func TestShapedRunLends(t *testing.T) {
	const size = 256 << 10
	var lent, copied uint64
	err := RunWith(RunOptions{NP: 2, Link: LinkEmulation{PerMessage: time.Microsecond, StagingCopy: true}}, func(env *Env) error {
		w := env.CommWorld()
		buf := make([]byte, size)
		if w.Rank() == 0 {
			if err := w.Send(buf, 0, size, BYTE, 1, 0); err != nil {
				return err
			}
			lent = env.EngineStats().SendsLent
			return nil
		}
		_, err := w.Recv(buf, 0, size, BYTE, 0, 0)
		copied = env.EngineStats().BytesCopied
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if lent != 1 || copied != size {
		t.Fatalf("shaped 256 KiB send: sends_lent=%d, receiver bytes_copied=%d; want 1 and %d", lent, copied, size)
	}
}
