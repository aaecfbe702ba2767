package mpi_test

import (
	"runtime"
	"testing"

	"gompi/mpi"
)

// The persistent/one-shot benchmark pair prices the two ways to reuse a
// plan: BenchmarkPersistentAllreduce cycles one AllreduceInit through
// Start/Wait, BenchmarkOneShotIallreduce makes an Iallreduce each
// iteration, which re-arms the communicator's cached plan and binds
// the call's buffers to it. The one-shot loop allocates what the
// persistent cycle does plus the call's boxed buffer arguments.

func benchAllreduce(b *testing.B, persistent bool) {
	b.ReportAllocs()
	const count = 256
	err := mpi.Run(2, func(env *mpi.Env) error {
		w := env.CommWorld()
		send := make([]float64, count)
		recv := make([]float64, count)
		for i := range send {
			send[i] = float64(w.Rank() + i)
		}
		if persistent {
			red, err := w.AllreduceInit(send, 0, recv, 0, count, mpi.DOUBLE, mpi.SUM)
			if err != nil {
				return err
			}
			defer red.Free()
			// Warm outside the timed region.
			if err := red.Start(); err != nil {
				return err
			}
			if _, err := red.Wait(); err != nil {
				return err
			}
			if w.Rank() == 0 {
				b.ResetTimer()
			}
			for i := 0; i < b.N; i++ {
				if err := red.Start(); err != nil {
					return err
				}
				if _, err := red.Wait(); err != nil {
					return err
				}
			}
			return nil
		}
		req, err := w.Iallreduce(send, 0, recv, 0, count, mpi.DOUBLE, mpi.SUM)
		if err != nil {
			return err
		}
		if _, err := req.Wait(); err != nil {
			return err
		}
		if w.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			req, err := w.Iallreduce(send, 0, recv, 0, count, mpi.DOUBLE, mpi.SUM)
			if err != nil {
				return err
			}
			if _, err := req.Wait(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkPersistentAllreduce(b *testing.B) { benchAllreduce(b, true) }
func BenchmarkOneShotIallreduce(b *testing.B)   { benchAllreduce(b, false) }

// TestBlockingAllreduceAllocs: a blocking collective runs its
// communicator's cached plan, re-armed, so an 8-byte np2 Allreduce
// allocates, job-wide, what a persistent activation does plus the
// call's own few objects — the boxed buffer arguments — not a schedule.
func TestBlockingAllreduceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled frames at random")
	}
	persistent := testing.Benchmark(BenchmarkPersistentAllreduce).AllocsPerOp()
	const ops = 5000
	var before, after runtime.MemStats
	err := mpi.Run(2, func(env *mpi.Env) error {
		w := env.CommWorld()
		send, recv := []float64{float64(w.Rank())}, make([]float64, 1)
		loop := func(n int) error {
			for i := 0; i < n; i++ {
				if err := w.Allreduce(send, 0, recv, 0, 1, mpi.DOUBLE, mpi.SUM); err != nil {
					return err
				}
			}
			return w.Barrier()
		}
		if err := loop(10); err != nil {
			return err
		}
		if w.Rank() == 0 {
			runtime.ReadMemStats(&before)
		}
		if err := loop(ops); err != nil {
			return err
		}
		if w.Rank() == 0 {
			runtime.ReadMemStats(&after)
		}
		return w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	// Mallocs is process-wide: both ranks' allocations, and one
	// barrier's, land in the delta.
	perOp := int64(after.Mallocs-before.Mallocs) / ops
	t.Logf("blocking Allreduce %d allocs/op, persistent activation %d", perOp, persistent)
	if perOp > persistent+4 {
		t.Fatalf("blocking 8-byte Allreduce allocates %d objects/op over 2 ranks, want <= %d (persistent %d + 4)", perOp, persistent+4, persistent)
	}
}
