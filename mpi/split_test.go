package mpi

import (
	"fmt"
	"testing"

	"gompi/internal/core"
)

// TestSplitRunsOneAgreement: a Split is one collective on every member —
// the Allgather that carries each member's colour, key and context-id
// candidate — whichever colour the member passes, Undefined included.
// The last row exhausts rank 0's context ids alone: the agreed base is
// the maximum candidate, so every member fails alike, with ErrComm, and
// the world still carries collectives afterwards.
func TestSplitRunsOneAgreement(t *testing.T) {
	err := Run(4, func(env *Env) error {
		w := env.CommWorld()
		rank, size := w.Rank(), w.Size()
		rows := []func(r int) int{
			func(int) int { return 0 },
			func(r int) int { return r % 2 },
			func(r int) int { return map[bool]int{true: 0, false: Undefined}[r < 2] },
			func(int) int { return 0 },
		}
		for row, colourOf := range rows {
			colour := colourOf(rank)
			if row == 3 && rank == 0 {
				if err := env.proc.CommitContexts(2*core.MaxContextPairs - 2); err != nil {
					return err
				}
			}
			before, _ := env.PerfVar("coll.scheds_started")
			sub, err := w.Split(colour, -rank)
			after, _ := env.PerfVar("coll.scheds_started")
			if after-before != 1 {
				return fmt.Errorf("rank %d, row %d: Split started %d schedules, want 1", rank, row, after-before)
			}
			switch {
			case row == 3:
				if ClassOf(err) != ErrComm {
					return fmt.Errorf("rank %d: Split past the last context pair: %v, want ErrComm", rank, err)
				}
				return w.Barrier()
			case err != nil:
				return err
			case colour == Undefined:
				if sub != nil {
					return fmt.Errorf("rank %d, row %d: a communicator for colour Undefined", rank, row)
				}
				continue
			}
			// Keys order by descending world rank.
			members, above := 0, 0
			for r := 0; r < size; r++ {
				if colourOf(r) == colour {
					members++
					if r > rank {
						above++
					}
				}
			}
			if sub.Size() != members || sub.Rank() != above {
				return fmt.Errorf("rank %d, row %d: rank %d of %d, want %d of %d", rank, row, sub.Rank(), sub.Size(), above, members)
			}
			if err := sub.Free(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
