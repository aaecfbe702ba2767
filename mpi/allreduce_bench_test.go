package mpi_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	"gompi/internal/coll"
	"gompi/internal/core"
	"gompi/mpi"
)

// BenchmarkAllreduceSwitch prices a blocking DOUBLE SUM Allreduce on
// both sides of the points where the schedule changes. The device rows
// run a plain job at a power-of-two and an odd group size: over chan the
// island fold takes every size, over loopback tcp recursive doubling
// runs below eight eager limits and halving + doubling from there. The
// chan rows by path put the island fold beside the message schedules,
// from 8 bytes to 1 MiB at np 3, 4 and 8: the doubling and halving rows'
// job is sealed before its engines claim their endpoints (NoIsland),
// which leaves the same chan job without islands, and there too the
// switch to halving + doubling is at eight eager limits. The constants
// that place these points (internal/coll's farHalvingFactor, islandChunk
// and islandChunkYields) are read off these rows: µs/op and B/op at each
// size, against the same sizes on the parent commit.
func BenchmarkAllreduceSwitch(b *testing.B) {
	const eager = core.DefaultEagerLimit
	for _, device := range []string{"chan", "tcp"} {
		for _, np := range []int{4, 3} {
			for _, size := range []int{eager / 2, eager, eager + 8, 2 * eager, 4 * eager, 8 * eager, 16 * eager} {
				b.Run(fmt.Sprintf("%s/np%d/%dB", device, np, size), func(b *testing.B) {
					timeAllreduce(b, mpi.RunOptions{NP: np, Device: device}, size, -1)
				})
			}
		}
	}
	for _, island := range []bool{true, false} {
		for _, np := range []int{3, 4, 8} {
			for _, size := range []int{8, 512, 8 << 10, eager, eager + 8, 2 * eager, 4 * eager, 8 * eager, 16 * eager} {
				path, opt, folds := "island", mpi.RunOptions{NP: np}, 1
				if !island {
					path, opt.WrapDevice, folds = "doubling", mpi.NoIsland, 0
					if size >= 8*eager {
						path = "halving"
					}
				}
				b.Run(fmt.Sprintf("chan/%s/np%d/%dB", path, np, size), func(b *testing.B) {
					timeAllreduce(b, opt, size, folds)
				})
			}
		}
	}
}

// timeAllreduce times b.N blocking DOUBLE SUM Allreduces of size bytes
// on a job run with opt, and checks the result; folds, unless negative,
// says whether the calls must have folded through an island (1) or not
// (0).
func timeAllreduce(b *testing.B, opt mpi.RunOptions, size, folds int) {
	b.ReportAllocs()
	b.SetBytes(int64(size))
	np, count := opt.NP, size/8
	var folded atomic.Int64
	err := mpi.RunWith(opt, func(env *mpi.Env) error {
		w := env.CommWorld()
		send, recv := make([]float64, count), make([]float64, count)
		for i := range send {
			send[i] = float64(w.Rank() + i)
		}
		loop := func(n int) error {
			for i := 0; i < n; i++ {
				if err := w.Allreduce(send, 0, recv, 0, count, mpi.DOUBLE, mpi.SUM); err != nil {
					return err
				}
			}
			return w.Barrier()
		}
		if err := loop(3); err != nil { // warm the pools outside the timed region
			return err
		}
		if w.Rank() == 0 {
			b.ResetTimer()
		}
		if err := loop(b.N); err != nil {
			return err
		}
		if w.Rank() == 0 {
			b.StopTimer()
		}
		if want := float64(np*(np-1)/2 + np*(count-1)); recv[count-1] != want {
			return fmt.Errorf("rank %d: last element %v, want %v", w.Rank(), recv[count-1], want)
		}
		n, _ := env.PerfVar("coll.island_folds")
		folded.Add(n)
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	if n := folded.Load(); folds >= 0 && (n > 0) != (folds > 0) {
		b.Fatalf("%d island folds", n)
	}
}

// BenchmarkAllreduceShapes prices the plan cache from both ends: a
// blocking 4-rank DOUBLE SUM Allreduce cycling through one shape (every
// call after the first re-arms the cached plan) and through one shape
// more than the cache holds (least recently used out, so every call
// misses and builds, as every call did before plans were cached). The
// second must cost what a call cost without the cache.
func BenchmarkAllreduceShapes(b *testing.B) {
	for _, shapes := range []int{1, coll.CacheSize + 1} {
		b.Run(fmt.Sprintf("shapes=%d", shapes), func(b *testing.B) {
			b.ReportAllocs()
			const np = 4
			err := mpi.Run(np, func(env *mpi.Env) error {
				w := env.CommWorld()
				send, recv := make([]float64, shapes), make([]float64, shapes)
				for i := range send {
					send[i] = float64(w.Rank())
				}
				loop := func(n int) error {
					for i := 0; i < n; i++ {
						count := 1 + i%shapes
						if err := w.Allreduce(send, 0, recv, 0, count, mpi.DOUBLE, mpi.SUM); err != nil {
							return err
						}
						if want := float64(np * (np - 1) / 2); recv[count-1] != want {
							return fmt.Errorf("rank %d: %v, want %v", w.Rank(), recv[count-1], want)
						}
					}
					return w.Barrier()
				}
				if err := loop(2 * shapes); err != nil {
					return err
				}
				if w.Rank() == 0 {
					b.ResetTimer()
				}
				if err := loop(b.N); err != nil {
					return err
				}
				if w.Rank() == 0 {
					b.StopTimer()
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}
