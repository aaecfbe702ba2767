package typed_test

import (
	"fmt"
	"testing"

	"gompi/mpi"
	"gompi/mpi/typed"
)

// TestTypedAllreduceFoldsThroughTheIsland: the typed layer reaches the
// island through the binding's one plan, like the classic call: an
// in-process allreduce of a few elements folds once per call and sends
// no message.
func TestTypedAllreduceFoldsThroughTheIsland(t *testing.T) {
	const np, rounds = 4, 100
	folds := make([]int64, np)
	err := mpi.Run(np, func(env *mpi.Env) error {
		w := env.CommWorld()
		eager, _ := env.PerfVar("core.sends_eager")
		send, recv := []int64{int64(w.Rank()), 1}, make([]int64, 2)
		for i := 0; i < rounds; i++ {
			if err := typed.Allreduce(w, send, recv, typed.Sum[int64]()); err != nil {
				return err
			}
			if recv[0] != np*(np-1)/2 || recv[1] != np {
				return fmt.Errorf("rank %d round %d: %v", w.Rank(), i, recv)
			}
		}
		if now, _ := env.PerfVar("core.sends_eager"); now != eager {
			return fmt.Errorf("rank %d sent %d messages", w.Rank(), now-eager)
		}
		folds[w.Rank()], _ = env.PerfVar("coll.island_folds")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, f := range folds {
		n += f
	}
	if n != rounds {
		t.Fatalf("%d island folds, want %d", n, rounds)
	}
}
