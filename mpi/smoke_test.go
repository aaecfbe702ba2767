package mpi_test

import (
	"testing"

	"gompi/mpi"
)

// TestSmokeHello is the paper's Fig. 3 program: rank 0 sends a char
// message to rank 1.
func TestSmokeHello(t *testing.T) {
	err := mpi.Run(2, func(env *mpi.Env) error {
		world := env.CommWorld()
		if world.Rank() == 0 {
			message := []rune("Hello, there")
			return world.Send(message, 0, len(message), mpi.CHAR, 1, 99)
		}
		message := make([]rune, 20)
		st, err := world.Recv(message, 0, 20, mpi.CHAR, 0, 99)
		if err != nil {
			return err
		}
		if got := string(message[:st.GetCount(mpi.CHAR)]); got != "Hello, there" {
			t.Errorf("got %q", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSmokeCollectives(t *testing.T) {
	err := mpi.Run(4, func(env *mpi.Env) error {
		world := env.CommWorld()
		rank := world.Rank()
		// Bcast
		buf := []int32{0}
		if rank == 0 {
			buf[0] = 42
		}
		if err := world.Bcast(buf, 0, 1, mpi.INT, 0); err != nil {
			return err
		}
		if buf[0] != 42 {
			t.Errorf("rank %d: bcast got %d", rank, buf[0])
		}
		// Allreduce SUM
		in := []int32{int32(rank + 1)}
		out := []int32{0}
		if err := world.Allreduce(in, 0, out, 0, 1, mpi.INT, mpi.SUM); err != nil {
			return err
		}
		if out[0] != 10 {
			t.Errorf("rank %d: allreduce got %d, want 10", rank, out[0])
		}
		return world.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSmokeTCP(t *testing.T) {
	err := mpi.RunWith(mpi.RunOptions{NP: 3, Device: "tcp"}, func(env *mpi.Env) error {
		world := env.CommWorld()
		rank := world.Rank()
		next := (rank + 1) % world.Size()
		prev := (rank - 1 + world.Size()) % world.Size()
		out := []float64{float64(rank)}
		in := []float64{-1}
		if _, err := world.Sendrecv(out, 0, 1, mpi.DOUBLE, next, 7, in, 0, 1, mpi.DOUBLE, prev, 7); err != nil {
			return err
		}
		if in[0] != float64(prev) {
			t.Errorf("rank %d: got %v want %d", rank, in[0], prev)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
