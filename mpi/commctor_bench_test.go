package mpi_test

import (
	"fmt"
	"testing"

	"gompi/mpi"
)

// BenchmarkCommCtor prices communicator construction at np4: Dup+Free
// (the context-id agreement, an Allreduce re-armed from the parent's
// plan cache) and Split+Free by parity (one Allgather of each member's
// colour, key and context-id candidate), over chan with islands, chan
// sealed without them and loopback tcp. Every new communicator's size
// is checked.
//
// µs/op, rank 0, medians of 3 alternating runs per tree at -benchtime
// 20000x on a 2-vCPU x86-64 VM (Go 1.24): two caches and Split as an
// Allgather followed by an Allreduce agreement → one cache per
// communicator and Split as one Allgather.
//
//	          Dup+Free     Split+Free
//	island    6.9 → 5.9    21.0 → 12.5
//	sealed    11.9 → 9.2   24.2 → 11.8
//	tcp       34.0 → 28.3  77.3 → 38.1
func BenchmarkCommCtor(b *testing.B) {
	for _, job := range []struct {
		name string
		opt  mpi.RunOptions
	}{
		{"island", mpi.RunOptions{NP: 4}},
		{"sealed", mpi.RunOptions{NP: 4, WrapDevice: mpi.NoIsland}},
		{"tcp", mpi.RunOptions{NP: 4, Device: "tcp"}},
	} {
		for _, split := range []bool{false, true} {
			name := map[bool]string{false: "dup", true: "split"}[split]
			b.Run(fmt.Sprintf("%s/%s", name, job.name), func(b *testing.B) {
				timeCommCtor(b, split, job.opt)
			})
		}
	}
}

// timeCommCtor times b.N constructions, each freed at once, on a job
// run with opt.
func timeCommCtor(b *testing.B, split bool, opt mpi.RunOptions) {
	b.ReportAllocs()
	err := mpi.RunWith(opt, func(env *mpi.Env) error {
		w := env.CommWorld()
		me, want := w.Rank(), w.Size()
		if split {
			want = (w.Size() + 1 - me%2) / 2
		}
		loop := func(n int) error {
			for ; n > 0; n-- {
				var c *mpi.Intracomm
				var err error
				if split {
					c, err = w.Split(me%2, me)
				} else {
					c, err = w.Dup()
				}
				if err != nil {
					return err
				}
				if c.Size() != want {
					return fmt.Errorf("rank %d: new communicator of size %d, want %d", me, c.Size(), want)
				}
				if err := c.Free(); err != nil {
					return err
				}
			}
			return w.Barrier()
		}
		if err := loop(3); err != nil { // warm the pools and the cache outside the timed region
			return err
		}
		if me == 0 {
			b.ResetTimer()
		}
		if err := loop(b.N); err != nil {
			return err
		}
		if me == 0 {
			b.StopTimer()
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
