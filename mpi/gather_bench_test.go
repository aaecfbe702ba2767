package mpi_test

import (
	"fmt"
	"testing"

	"gompi/mpi"
)

// BenchmarkGatherScatter prices a blocking BYTE Gather and Scatter of
// one block per member, over chan at np 4, 8 and 16 and over loopback
// tcp at np 4 and 8, for blocks of 8 B, 8 KiB and 256 KiB (inline,
// eager and rendezvous at the default eager limit). The root moves on
// by one rank every call, and the last call's result is checked.
//
// µs/op, medians of 6 alternating runs per tree at -benchtime 0.4s on a
// 2-vCPU x86-64 VM (Go 1.24): the binomial trees that bundled each
// subtree's blocks into one message → one message per block between its
// owner and the root. The two scatter cells at chan np4 that read
// higher are inside the binomial tree's own quartile spread (42–50 and
// 330–446 µs).
//
//	           gather 8 B   8 KiB        256 KiB      scatter 8 B  8 KiB        256 KiB
//	chan np4   11.8 → 9.1   49.1 → 43.3  480 → 370    12.5 → 9.7   44.6 → 48.7  375 → 409
//	chan np8   29.9 → 16.1  118 → 80.8   1145 → 515   21.3 → 17.1  86.4 → 81.9  1007 → 798
//	chan np16  85.1 → 45.8  216 → 130    2518 → 1337  61.9 → 46.0  168 → 145    2389 → 1840
//	tcp np4    33.3 → 25.8  124 → 69.1   1307 → 655   30.0 → 26.7  107 → 74.1   958 → 699
//	tcp np8    76.0 → 59.9  245 → 158    2760 → 1206  67.6 → 64.8  203 → 139    2018 → 1389
func BenchmarkGatherScatter(b *testing.B) {
	jobs := []mpi.RunOptions{
		{NP: 4, Device: "chan"}, {NP: 8, Device: "chan"}, {NP: 16, Device: "chan"},
		{NP: 4, Device: "tcp"}, {NP: 8, Device: "tcp"},
	}
	for _, gather := range []bool{true, false} {
		name := map[bool]string{true: "gather", false: "scatter"}[gather]
		for _, opt := range jobs {
			for _, size := range []int{8, 8 << 10, 256 << 10} {
				b.Run(fmt.Sprintf("%s/%s/np%d/%dB", name, opt.Device, opt.NP, size), func(b *testing.B) {
					timeGatherScatter(b, gather, opt, size)
				})
			}
		}
	}
}

// timeGatherScatter times b.N blocking Gathers (or Scatters) of size
// bytes per member on a job run with opt. Call i is rooted at rank
// i mod np and stamps the last byte of member r's block with r+i, which
// the last call's receivers check.
func timeGatherScatter(b *testing.B, gather bool, opt mpi.RunOptions, size int) {
	b.ReportAllocs()
	b.SetBytes(int64(size))
	np := opt.NP
	err := mpi.RunWith(opt, func(env *mpi.Env) error {
		w := env.CommWorld()
		me := w.Rank()
		mine, all := make([]byte, size), make([]byte, np*size)
		calls := 0
		loop := func(n int) error {
			for ; n > 0; n-- {
				root, stamp := calls%np, calls
				calls++
				if gather {
					mine[size-1] = byte(me + stamp)
					if err := w.Gather(mine, 0, size, mpi.BYTE, all, 0, size, mpi.BYTE, root); err != nil {
						return err
					}
					continue
				}
				if me == root {
					for r := 0; r < np; r++ {
						all[r*size+size-1] = byte(r + stamp)
					}
				}
				if err := w.Scatter(all, 0, size, mpi.BYTE, mine, 0, size, mpi.BYTE, root); err != nil {
					return err
				}
			}
			return w.Barrier()
		}
		if err := loop(3); err != nil { // warm the pools outside the timed region
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
		last := calls - 1
		if !gather {
			if want := byte(me + last); mine[size-1] != want {
				return fmt.Errorf("rank %d: scattered block ends in %d, want %d", me, mine[size-1], want)
			}
		} else if me == last%np {
			for r := 0; r < np; r++ {
				if got, want := all[r*size+size-1], byte(r+last); got != want {
					return fmt.Errorf("root %d: rank %d's block ends in %d, want %d", me, r, got, want)
				}
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
