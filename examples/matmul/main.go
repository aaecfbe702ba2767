// Matmul: parallel dense matrix multiplication C = A·B with the classic
// master/worker decomposition of early MPI courses — A's rows scattered
// with Scatterv, B broadcast, partial C gathered with Gatherv — then
// checked against a serial product.
//
//	go run ./examples/matmul [-n 192] [-np 4]
package main

import (
	"flag"
	"fmt"
	"log"
	"math"

	"gompi/mpi"
)

func main() {
	n := flag.Int("n", 192, "matrix order")
	np := flag.Int("np", 4, "number of ranks (SM mode)")
	flag.Parse()
	// mpi.Main runs SM mode (np goroutine ranks) stand-alone, or this
	// process's single rank when launched under cmd/mpirun (DM mode).
	if err := mpi.Main(*np, func(env *mpi.Env) error {
		return matmul(env, *n)
	}); err != nil {
		log.Fatal(err)
	}
}

func matmul(env *mpi.Env, n int) error {
	world := env.CommWorld()
	rank, size := world.Rank(), world.Size()

	// Row distribution: the first (n mod size) ranks get one extra row.
	counts := make([]int, size) // in elements (rows * n)
	displs := make([]int, size)
	rows := make([]int, size)
	off := 0
	for r := 0; r < size; r++ {
		rows[r] = n / size
		if r < n%size {
			rows[r]++
		}
		counts[r] = rows[r] * n
		displs[r] = off
		off += counts[r]
	}

	var a, c []float64
	b := make([]float64, n*n)
	if rank == 0 {
		a = make([]float64, n*n)
		c = make([]float64, n*n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a[i*n+j] = float64((i+j)%7) - 3
				b[i*n+j] = float64((i*j)%5) - 2
			}
		}
	}

	start := env.Wtime()
	// B everywhere, A rows to their owners.
	if err := world.Bcast(b, 0, n*n, mpi.DOUBLE, 0); err != nil {
		return err
	}
	myA := make([]float64, counts[rank])
	if err := world.Scatterv(a, 0, counts, displs, mpi.DOUBLE,
		myA, 0, counts[rank], mpi.DOUBLE, 0); err != nil {
		return err
	}

	// Local product: myC = myA · B.
	myC := make([]float64, counts[rank])
	for i := 0; i < rows[rank]; i++ {
		for k := 0; k < n; k++ {
			aik := myA[i*n+k]
			if aik == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				myC[i*n+j] += aik * b[k*n+j]
			}
		}
	}

	if err := world.Gatherv(myC, 0, counts[rank], mpi.DOUBLE,
		c, 0, counts, displs, mpi.DOUBLE, 0); err != nil {
		return err
	}
	elapsed := env.Wtime() - start

	if rank == 0 {
		// Spot-check against a serial product.
		worst := 0.0
		for _, i := range []int{0, n / 2, n - 1} {
			for _, j := range []int{0, n / 3, n - 1} {
				want := 0.0
				for k := 0; k < n; k++ {
					want += a[i*n+k] * b[k*n+j]
				}
				if d := math.Abs(c[i*n+j] - want); d > worst {
					worst = d
				}
			}
		}
		if worst > 1e-9 {
			return fmt.Errorf("matmul: verification failed, max error %g", worst)
		}
		flops := 2 * float64(n) * float64(n) * float64(n)
		fmt.Printf("matmul: %d ranks, %dx%d, %.3fs, %.1f Mflop/s, verified\n",
			size, n, n, elapsed, flops/elapsed/1e6)
	}
	return nil
}
