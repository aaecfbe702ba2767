package mpi_test

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"gompi/internal/core"
	"gompi/mpi"
)

// mallocs reads the process-wide count of heap allocations.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// TestBlockingCollectivesAllocateNothing: a blocking collective that
// re-arms its cached plan pays for its work only — the schedule's own
// request, the result's pointer and the cache key live in the plan or
// on the stack, so a warm 8-byte Allreduce allocates nothing of the
// library's own. The buffers are boxed into any at every call, as the
// paper's API has a caller do: the binding keeps nothing of the box, so
// it stays on the caller's stack.
//
// Allocations per call per rank at the time of writing, over six runs
// (np 4 over chan, 8-byte blocks, island / sealed (NoIsland)):
// Allreduce 0.00–0.02 / 0.00, Barrier 0.00–0.01 / 0.00–0.01, Bcast
// 0.20–0.33 / 0.00–0.01, Gather 0.36–0.74 / 0.00–0.21, Scatter
// 0.01–0.58 / 0.00–0.29, Allgather 0.00–0.01 / 0.00–0.01, Alltoall
// 0.00 / 0.00. A
// block is packed into a pooled frame and unpacked out of one that goes
// back to the pool, where Bcast, Gather, Scatter, Allgather and Alltoall
// made 1.1–1.2, 2.4–2.6, 1.8, 6.0 and 9.0 when each sender packed a
// fresh payload and each reader kept the frame its block arrived in.
// What the island rows still allocate is the fixed root's: with no
// mailbox between them, the rank that runs ahead piles its messages up
// unexpected at the others, and the queues' pools grow. The island
// Allreduce, the benchmark's allreduce.8B.np4, and the sealed Bcast are
// asserted; the others are logged.
func TestBlockingCollectivesAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops items at random")
	}
	const np, calls = 4, 2000
	for _, job := range []struct {
		name string
		opt  mpi.RunOptions
	}{{"island", mpi.RunOptions{NP: np}}, {"sealed", mpi.RunOptions{NP: np, WrapDevice: mpi.NoIsland}}} {
		per := map[string]float64{} // written by rank 0 only
		err := mpi.RunWith(job.opt, func(env *mpi.Env) error {
			w := env.CommWorld()
			send, recv := []float64{float64(w.Rank())}, []float64{0}
			all, spread := make([]float64, np), make([]float64, np)
			ops := []struct {
				name string
				call func() error
			}{
				{"Allreduce", func() error { return w.Allreduce(send, 0, recv, 0, 1, mpi.DOUBLE, mpi.SUM) }},
				{"Barrier", w.Barrier},
				{"Bcast", func() error { return w.Bcast(recv, 0, 1, mpi.DOUBLE, 0) }},
				{"Gather", func() error { return w.Gather(send, 0, 1, mpi.DOUBLE, all, 0, 1, mpi.DOUBLE, 0) }},
				{"Scatter", func() error { return w.Scatter(all, 0, 1, mpi.DOUBLE, send, 0, 1, mpi.DOUBLE, 0) }},
				{"Allgather", func() error { return w.Allgather(send, 0, 1, mpi.DOUBLE, all, 0, 1, mpi.DOUBLE) }},
				{"Alltoall", func() error { return w.Alltoall(all, 0, 1, mpi.DOUBLE, spread, 0, 1, mpi.DOUBLE) }},
			}
			for _, op := range ops {
				for i := 0; i < 10; i++ { // build the plan, warm the pools
					if err := op.call(); err != nil {
						return err
					}
				}
				if err := w.Barrier(); err != nil {
					return err
				}
				var before uint64
				if w.Rank() == 0 {
					before = mallocs()
				}
				if err := w.Barrier(); err != nil {
					return err
				}
				for i := 0; i < calls; i++ {
					if err := op.call(); err != nil {
						return err
					}
				}
				if err := w.Barrier(); err != nil {
					return err
				}
				if w.Rank() == 0 {
					per[op.name] = float64(mallocs()-before) / (calls * np)
				}
			}
			if got := recv[0]; got != np*(np-1)/2 {
				return fmt.Errorf("rank %d: Allreduce left %v", w.Rank(), got)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: allocations per call per rank: Allreduce %.3f, Barrier %.3f, Bcast %.3f, Gather %.3f, Scatter %.3f, Allgather %.3f, Alltoall %.3f",
			job.name, per["Allreduce"], per["Barrier"], per["Bcast"], per["Gather"], per["Scatter"], per["Allgather"], per["Alltoall"])
		if job.name == "island" && per["Allreduce"] > 0.05 {
			t.Errorf("island Allreduce of 8 B: %.3f allocations per call per rank, want <= 0.05", per["Allreduce"])
		}
		if job.name == "sealed" && per["Bcast"] > 0.05 {
			t.Errorf("sealed Bcast of 8 B: %.3f allocations per call per rank, want <= 0.05", per["Bcast"])
		}
	}
}

// TestIrecvReusesCoreRequests pins match.depth256's shape: a window of
// 256 Irecvs reaped by one WaitAll, twice. A completed nonblocking
// receive gives its core request back to the engine's pool, so the
// second window draws its requests from there: it allocates fewer than
// one request-sized object per ten receives.
func TestIrecvReusesCoreRequests(t *testing.T) {
	const depth = 256
	classMallocs := requestClassMallocs(t)
	var perRecv float64
	err := mpi.RunWith(mpi.RunOptions{NP: 2}, func(env *mpi.Env) error {
		w := env.CommWorld()
		vals := make([]int64, depth)
		var buf any = vals
		reqs := make([]*mpi.Request, depth)
		for window := 0; window < 2; window++ {
			if err := w.Barrier(); err != nil {
				return err
			}
			if w.Rank() == 1 {
				for i := range vals {
					if err := w.Send(buf, i, 1, mpi.LONG, 0, i); err != nil {
						return err
					}
				}
				continue
			}
			before := classMallocs()
			for i := range reqs {
				r, err := w.Irecv(buf, i, 1, mpi.LONG, 1, i)
				if err != nil {
					return err
				}
				reqs[i] = r
			}
			if _, err := mpi.WaitAll(reqs); err != nil {
				return err
			}
			perRecv = float64(classMallocs()-before) / depth
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%.3f allocations of core.Request's size class per receive", perRecv)
	if perRecv >= 0.1 {
		t.Errorf("%.3f core.Request-sized allocations per receive in the second window, want < 0.1", perRecv)
	}
}

// requestClassMallocs returns a reader of the process-wide count of
// allocations in core.Request's size class, skipping t where that count
// says nothing.
func requestClassMallocs(t *testing.T) func() uint64 {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops items at random")
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	for i, c := range ms.BySize {
		if c.Size >= uint32(unsafe.Sizeof(core.Request{})) {
			return func() uint64 {
				runtime.ReadMemStats(&ms)
				return ms.BySize[i].Mallocs
			}
		}
	}
	t.Skip("core.Request is above the small size classes")
	return nil
}

// TestSendsReuseCoreRequests is TestIrecvReusesCoreRequests for the send
// side: a SendrecvReplace, eager or rendezvous, and an Isend the engine
// refuses (its communicator is revoked) give the core request they
// built, if any, back to the engine's pool, so a second window of them
// allocates fewer than one request-sized object per ten calls.
func TestSendsReuseCoreRequests(t *testing.T) {
	const calls = 256
	classMallocs := requestClassMallocs(t)
	perCall := map[string]float64{}
	err := mpi.RunWith(mpi.RunOptions{NP: 2}, func(env *mpi.Env) error {
		w := env.CommWorld()
		peer := 1 - w.Rank()
		window := func(name string, call func(i int) error) error {
			for n := 0; n < 2; n++ {
				if err := w.Barrier(); err != nil {
					return err
				}
				before := classMallocs()
				for i := 0; i < calls; i++ {
					if err := call(i); err != nil {
						return fmt.Errorf("%s #%d: %w", name, i, err)
					}
				}
				if w.Rank() == 0 {
					perCall[name] = float64(classMallocs()-before) / calls
				}
			}
			return w.Barrier()
		}
		for _, elems := range []int{1, 16 << 10} { // 8 B and 128 KiB: eager and rendezvous
			var buf any = make([]int64, elems)
			err := window(fmt.Sprintf("SendrecvReplace of %d B", 8*elems), func(i int) error {
				_, err := w.SendrecvReplace(buf, 0, elems, mpi.LONG, peer, i, peer, i)
				return err
			})
			if err != nil {
				return err
			}
		}
		if w.Rank() != 0 {
			return w.Barrier()
		}
		revoked, err := env.CommSelf().Dup()
		if err != nil {
			return err
		}
		if err := revoked.Revoke(); err != nil {
			return err
		}
		var buf any = make([]int64, 1)
		for n := 0; n < 2; n++ {
			before := classMallocs()
			for i := 0; i < calls; i++ {
				if _, err := revoked.Isend(buf, 0, 1, mpi.LONG, 0, i); mpi.ClassOf(err) != mpi.ErrRevoked {
					return fmt.Errorf("Isend on a revoked communicator: %v", err)
				}
			}
			perCall["refused Isend"] = float64(classMallocs()-before) / calls
		}
		return w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, n := range perCall {
		t.Logf("%s: %.3f allocations of core.Request's size class per call", name, n)
		if n >= 0.1 {
			t.Errorf("%s: %.3f core.Request-sized allocations per call in the second window, want < 0.1", name, n)
		}
	}
}
