package mpi_test

import (
	"fmt"
	"testing"

	"gompi/internal/core"
	"gompi/mpi"
)

// BenchmarkAllreduceSwitch prices a blocking DOUBLE SUM Allreduce on
// both sides of the points where the schedule changes from recursive
// doubling to halving + doubling — just above the eager limit in
// process, at eight eager limits over loopback tcp — at a power-of-two
// and an odd group size. Those points are constants in
// internal/coll/reduce.go (halves); this is the benchmark that
// says whether they are in the right place: µs/op and B/op at each
// size, against the same sizes on the parent commit.
func BenchmarkAllreduceSwitch(b *testing.B) {
	const eager = core.DefaultEagerLimit
	for _, device := range []string{"chan", "tcp"} {
		for _, np := range []int{4, 3} {
			for _, size := range []int{eager / 2, eager, eager + 8, 2 * eager, 4 * eager, 8 * eager, 16 * eager} {
				b.Run(fmt.Sprintf("%s/np%d/%dB", device, np, size), func(b *testing.B) {
					b.ReportAllocs()
					b.SetBytes(int64(size))
					count := size / 8
					err := mpi.RunWith(mpi.RunOptions{NP: np, Device: device}, func(env *mpi.Env) error {
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
						return nil
					})
					if err != nil {
						b.Fatal(err)
					}
				})
			}
		}
	}
}
