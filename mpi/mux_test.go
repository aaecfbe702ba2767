package mpi

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"gompi/internal/core"
	"gompi/internal/transport"
)

// muxGoroutines counts the live goroutines the transport muxes of this
// process run, by what they are: member-device pumps and connection
// read loops. By-reference routes need neither.
func muxGoroutines() (pumps, readLoops int) {
	buf := make([]byte, 1<<20)
	all := string(buf[:runtime.Stack(buf, true)])
	return strings.Count(all, "transport.(*Mux).pump("), strings.Count(all, "transport.(*Mux).serve(")
}

// awaitMuxGoroutines waits for the counts to settle at what is wanted:
// a goroutine shows its own frames only once it has run, and goes away
// only once it has noticed its mux closing.
func awaitMuxGoroutines(t *testing.T, when string, wantPumps, wantReadLoops int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		pumps, readLoops := muxGoroutines()
		if pumps == wantPumps && readLoops == wantReadLoops {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d pumps and %d read loops, want %d and %d", when, pumps, readLoops, wantPumps, wantReadLoops)
		}
	}
}

// decorated is some decorator: a device that is not a Mux and overrides
// nothing of the one it embeds.
type decorated struct{ transport.Device }

// TestEnvAdoptsAMux: an environment adopts the endpoint it is handed
// when that already is a mux, so between a sender (or a socket) and the
// engine a frame crosses one channel: a chan rank runs no transport
// goroutine at all, a loopback tcp rank one read loop per peer and no
// pump. Only a device that is not a mux — a decorated one — is read
// through a mux of the environment's own, with exactly one pump.
func TestEnvAdoptsAMux(t *testing.T) {
	awaitMuxGoroutines(t, "before", 0, 0)
	var envs []*Env
	for _, d := range transport.NewShmJob(2, 0) {
		envs = append(envs, newEnv(d, core.Config{}))
	}
	awaitMuxGoroutines(t, "two chan ranks", 0, 0)

	const size = 3
	mesh, err := transport.NewLoopbackJob(size)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range mesh {
		envs = append(envs, newEnv(d, core.Config{}))
	}
	awaitMuxGoroutines(t, "three loopback tcp ranks", 0, size*(size-1))

	bare := transport.NewShmJob(2, 0)
	faulty := transport.NewFaulty(bare[1], transport.FaultPlan{Rank: 1, SendDelay: time.Nanosecond})
	envs = append(envs, newEnv(decorated{bare[0]}, core.Config{}), newEnv(faulty, core.Config{}))
	awaitMuxGoroutines(t, "plus two decorated ranks", 2, size*(size-1))

	for _, e := range envs {
		// Not Finalize: its barrier needs every rank of a job at once.
		e.finalized.Store(true)
		e.proc.Close()
		e.fab.Close()
	}
	for _, m := range append(mesh, bare...) {
		if _, err := m.Recv(); err != transport.ErrClosed {
			t.Fatalf("closing the environment left its mux open: Recv err %v", err)
		}
	}
	awaitMuxGoroutines(t, "after closing every environment", 0, 0)
}

// twoMediaJob builds the endpoints of a 4-rank hybrid job inside one
// process: ranks {0,1} and {2,3} are chan islands, bridged by mesh
// connections over loopback, one Mux per rank — the composition mpirun
// -nodes 2 gives OS-process ranks, minus the shared segment.
func twoMediaJob(t *testing.T) []*transport.Mux {
	t.Helper()
	const n = 4
	// Each island is a whole-world chan job of which only its own two
	// ranks are used, so its endpoints carry their world ranks.
	islands := [][]*transport.Mux{transport.NewShmJob(n, 0), transport.NewShmJob(n, 0)}
	lns, addrs := make([]*transport.Listener, n), make([]string, n)
	for r := range lns {
		ln, err := transport.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[r], addrs[r] = ln, ln.Addr()
	}
	muxes, errs := make([]*transport.Mux, n), make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			members := make([]transport.Device, n)
			for p := range members {
				if p/2 == r/2 {
					members[p] = islands[r/2][r]
				}
			}
			muxes[r], errs[r] = transport.ConnectMesh(r, members, addrs, lns[r])
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
// moves only by the one receive-side deposit, and not at all for a long
// frame that lands straight off a mesh connection — and both media must
// have carried frames.
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
	stats := make([]map[string]uint64, len(muxes))
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
		stats[w.Rank()] = perfVars(env)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for rank, s := range stats {
		// Every rank is in two pairs: two small and two big messages
		// each way.
		if s["core.sends_lent"] != 2 || s["core.bytes_lent"] != 2*big || s["core.sends_eager"] != 2 {
			t.Errorf("rank %d: sends_lent=%d bytes_lent=%d sends_eager=%d, want 2 lent sends of %d bytes and 2 eager",
				rank, s["core.sends_lent"], s["core.bytes_lent"], s["core.sends_eager"], big)
		}
		// Of the two big messages one came over the island and was
		// deposited by the engine, the other over the mesh and was read
		// off the socket into the receive buffer.
		if want := uint64(2*small + big); s["core.bytes_copied"] != want || s["core.bytes_landed"] != big {
			t.Errorf("rank %d: bytes_copied=%d bytes_landed=%d, want %d and %d (one deposit per message received, by the engine or by the read loop, no staging of the lent ones)",
				rank, s["core.bytes_copied"], s["core.bytes_landed"], want, big)
		}
		var media []string
		for name := range s {
			if m, ok := strings.CutSuffix(strings.TrimPrefix(name, "transport."), ".frames_sent"); ok {
				media = append(media, m)
			}
		}
		if len(media) != 2 || s["transport.chan.frames_sent"] == 0 || s["transport.tcp.frames_sent"] == 0 {
			t.Errorf("rank %d: frames sent over media %v, want chan and tcp, both used", rank, media)
		}
	}
}

// TestDecoratedRunLends: a decorator that embeds its device forwards a
// lent send with the loan; the run does not fall back to packing. Over
// sockets the undecorated run's long DATA frame lands straight off the
// connection; the decorated one's never does — where frames land is
// deliberately not part of transport.Device, so a decorator (Faulty
// included) keeps seeing every frame it carries — and is deposited by
// the engine as before.
func TestDecoratedRunLends(t *testing.T) {
	const size = 256 << 10
	wrap := func(_ int, dev transport.Device) transport.Device { return decorated{dev} }
	for _, c := range []struct {
		name           string
		opts           RunOptions
		copied, landed uint64
	}{
		{"chan decorated", RunOptions{WrapDevice: wrap}, size, 0},
		{"tcp decorated", RunOptions{Device: "tcp", WrapDevice: wrap}, size, 0},
		{"tcp", RunOptions{Device: "tcp"}, 0, size},
	} {
		var lent uint64
		var recv map[string]uint64
		c.opts.NP = 2
		err := RunWith(c.opts, func(env *Env) error {
			w := env.CommWorld()
			buf := make([]byte, size)
			if w.Rank() == 0 {
				if err := w.Send(buf, 0, size, BYTE, 1, 0); err != nil {
					return err
				}
				lent = perfVars(env)["core.sends_lent"]
				return nil
			}
			_, err := w.Recv(buf, 0, size, BYTE, 0, 0)
			recv = perfVars(env)
			return err
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if lent != 1 || recv["core.bytes_copied"] != c.copied || recv["core.bytes_landed"] != c.landed {
			t.Fatalf("%s 256 KiB send: sends_lent=%d, receiver bytes_copied=%d bytes_landed=%d; want 1, %d and %d",
				c.name, lent, recv["core.bytes_copied"], recv["core.bytes_landed"], c.copied, c.landed)
		}
	}
}
