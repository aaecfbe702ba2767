package mpi_test

import (
	"fmt"
	"testing"

	"gompi/mpi"
)

// BenchmarkWinEpoch prices a window epoch of puts Puts and one Get per
// rank at np 4, every rank writing to its right neighbour and reading
// the one element there that no Put touches; every Get and the last
// epoch's Puts are checked. A small epoch pays the Fence's fixed cost (its
// exchange rounds); a large one pays for each operation.
func BenchmarkWinEpoch(b *testing.B) {
	const np = 4
	for _, puts := range []int{1, 64} {
		b.Run(fmt.Sprintf("np%d/puts=%d", np, puts), func(b *testing.B) {
			err := mpi.Run(np, func(env *mpi.Env) error {
				w := env.CommWorld()
				rank := w.Rank()
				right, left := (rank+1)%np, (rank+np-1)%np
				base := make([]float64, puts+1)
				base[puts] = float64(rank)
				win, err := w.CreateWin(base, mpi.DOUBLE)
				if err != nil {
					return err
				}
				val, got := make([]float64, 1), make([]float64, 1)
				if rank == 0 {
					b.ResetTimer()
				}
				for i := 0; i < b.N; i++ {
					for k := 0; k < puts; k++ {
						val[0] = float64(i*puts + k + rank)
						if err := win.Put(val, 0, 1, mpi.DOUBLE, right, k); err != nil {
							return err
						}
					}
					if err := win.Get(got, 0, 1, mpi.DOUBLE, right, puts); err != nil {
						return err
					}
					if err := win.Fence(); err != nil {
						return err
					}
					if got[0] != float64(right) {
						return fmt.Errorf("rank %d epoch %d: Get read %v, want %v", rank, i, got[0], right)
					}
				}
				// The next epoch's Puts may land as soon as a neighbour
				// issues them, so the window is read once the last
				// epoch is over.
				if err := win.Free(); err != nil {
					return err
				}
				last := b.N - 1
				if base[0] != float64(last*puts+left) || base[puts-1] != float64(last*puts+puts-1+left) {
					return fmt.Errorf("rank %d: window %v … %v after %d epochs", rank, base[0], base[puts-1], b.N)
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}
