package mpi_test

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"gompi/mpi"
)

// TestWinUseAfterFree covers the origin-side error paths: Put, Get,
// Accumulate and Fence on a freed window must fail locally with
// MPI_ERR_COMM and leave the communicator usable.
func TestWinUseAfterFree(t *testing.T) {
	err := mpi.Run(2, func(env *mpi.Env) error {
		w := env.CommWorld()
		base := make([]float64, 8)
		win, err := w.CreateWin(base, mpi.DOUBLE)
		if err != nil {
			return err
		}
		if err := win.Free(); err != nil {
			return err
		}
		buf := []float64{1}
		if err := win.Put(buf, 0, 1, mpi.DOUBLE, 0, 0); mpi.ClassOf(err) != mpi.ErrComm {
			return fmt.Errorf("Put after Free: got %v, want MPI_ERR_COMM", err)
		}
		if err := win.Get(buf, 0, 1, mpi.DOUBLE, 0, 0); mpi.ClassOf(err) != mpi.ErrComm {
			return fmt.Errorf("Get after Free: got %v, want MPI_ERR_COMM", err)
		}
		if err := win.Accumulate(buf, 0, 1, mpi.DOUBLE, 0, 0, mpi.SUM); mpi.ClassOf(err) != mpi.ErrComm {
			return fmt.Errorf("Accumulate after Free: got %v, want MPI_ERR_COMM", err)
		}
		if err := win.Free(); mpi.ClassOf(err) != mpi.ErrComm {
			return fmt.Errorf("double Free: got %v, want MPI_ERR_COMM", err)
		}
		// The world communicator is unaffected.
		return w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWinTargetRangeError covers the target-side range check: a Put to
// a displacement outside the target's window is dropped at the target
// and surfaces through the *target's* next Fence as MPI_ERR_BUFFER;
// the origin's Fence stays clean and the window remains usable.
func TestWinTargetRangeError(t *testing.T) {
	err := mpi.Run(2, func(env *mpi.Env) error {
		w := env.CommWorld()
		base := make([]float64, 4)
		win, err := w.CreateWin(base, mpi.DOUBLE)
		if err != nil {
			return err
		}
		if w.Rank() == 0 {
			// Displacement 100 is far outside rank 1's 4-element window.
			if err := win.Put([]float64{7}, 0, 1, mpi.DOUBLE, 1, 100); err != nil {
				return fmt.Errorf("Put itself must not fail at the origin: %v", err)
			}
		}
		err = win.Fence()
		switch w.Rank() {
		case 0:
			if err != nil {
				return fmt.Errorf("origin Fence: %v, want nil", err)
			}
		case 1:
			if mpi.ClassOf(err) != mpi.ErrBuffer {
				return fmt.Errorf("target Fence: got %v, want MPI_ERR_BUFFER", err)
			}
		}
		// The error is consumed by the Fence that reported it; the
		// window keeps working.
		if w.Rank() == 0 {
			if err := win.Put([]float64{7}, 0, 1, mpi.DOUBLE, 1, 3); err != nil {
				return err
			}
		}
		if err := win.Fence(); err != nil {
			return err
		}
		if w.Rank() == 1 && base[3] != 7 {
			return fmt.Errorf("window element 3 = %v after recovery Put, want 7", base[3])
		}
		return win.Free()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWinDatatypeMismatchError covers the target-side datatype check:
// an Accumulate whose payload does not match the window's element
// size (here FLOAT into a DOUBLE window) surfaces through the target's
// Fence as MPI_ERR_TYPE.
func TestWinDatatypeMismatchError(t *testing.T) {
	err := mpi.Run(2, func(env *mpi.Env) error {
		w := env.CommWorld()
		base := make([]float64, 4)
		win, err := w.CreateWin(base, mpi.DOUBLE)
		if err != nil {
			return err
		}
		if w.Rank() == 0 {
			// 2 float32 elements = 8 bytes, claiming 2 window elements
			// (16 bytes expected): a datatype mismatch only the target
			// can detect.
			if err := win.Accumulate([]float32{1, 2}, 0, 2, mpi.FLOAT, 1, 0, mpi.SUM); err != nil {
				return fmt.Errorf("Accumulate itself must not fail at the origin: %v", err)
			}
		}
		err = win.Fence()
		switch w.Rank() {
		case 0:
			if err != nil {
				return fmt.Errorf("origin Fence: %v, want nil", err)
			}
		case 1:
			if mpi.ClassOf(err) != mpi.ErrType {
				return fmt.Errorf("target Fence: got %v, want MPI_ERR_TYPE", err)
			}
			for i, v := range base {
				if v != 0 {
					return fmt.Errorf("mismatched accumulate mutated window: base[%d]=%v", i, v)
				}
			}
		}
		return win.Free()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWinObjectWindow pins down that the target-side datatype check
// does not reject OBJECT windows, whose gob payloads have no fixed
// element size.
func TestWinObjectWindow(t *testing.T) {
	mpi.RegisterObject("")
	err := mpi.Run(2, func(env *mpi.Env) error {
		w := env.CommWorld()
		base := make([]any, 4)
		win, err := w.CreateWin(base, mpi.OBJECT)
		if err != nil {
			return err
		}
		if w.Rank() == 0 {
			if err := win.Put([]any{"hello", "there"}, 0, 2, mpi.OBJECT, 1, 1); err != nil {
				return err
			}
		}
		if err := win.Fence(); err != nil {
			return err
		}
		if w.Rank() == 1 {
			if base[1] != "hello" || base[2] != "there" {
				return fmt.Errorf("object window after Put: %v", base)
			}
		}
		return win.Free()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWinGetRangeError covers the Get direction of the range check.
func TestWinGetRangeError(t *testing.T) {
	err := mpi.Run(2, func(env *mpi.Env) error {
		w := env.CommWorld()
		base := make([]float64, 4)
		win, err := w.CreateWin(base, mpi.DOUBLE)
		if err != nil {
			return err
		}
		if w.Rank() == 0 {
			// Read [2, 6) of a 4-element window.
			buf := make([]float64, 4)
			if err := win.Get(buf, 0, 4, mpi.DOUBLE, 1, 2); err != nil {
				return fmt.Errorf("Get itself must not fail at the origin: %v", err)
			}
		}
		err = win.Fence()
		switch w.Rank() {
		case 0:
			if err != nil {
				return fmt.Errorf("origin Fence: %v, want nil", err)
			}
		case 1:
			if mpi.ClassOf(err) != mpi.ErrBuffer {
				return fmt.Errorf("target Fence: got %v, want MPI_ERR_BUFFER", err)
			}
		}
		return win.Free()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// winOp is one operation of a model epoch: origin applies vals to
// target's window at disp (a Put, or an Accumulate with op), or reads
// len(vals) elements from there (a Get, vals then being what it must
// read).
type winOp struct {
	get            bool
	op             *mpi.Op // nil: Put
	origin, target int
	disp           int
	vals           []int64
}

// winEpoch draws one epoch over np windows of size elements and applies
// it to model, the windows' contents. Each target's window is cut into
// runs of 1–3 elements, and each run gets one access kind: one Put or
// REPLACE, Accumulates of one op (SUM or MAX) from several origins, or
// Gets from several origins — never conflicting accesses, whose result
// MPI leaves undefined. Every target takes a Put from itself. The
// operations come back shuffled, so each origin issues them across
// targets in no particular order.
func winEpoch(rng *rand.Rand, np, size int, model [][]int64) []winOp {
	var ops []winOp
	vals := func(n int) []int64 {
		v := make([]int64, n)
		for i := range v {
			v[i] = rng.Int64N(2001) - 1000
		}
		return v
	}
	for target := 0; target < np; target++ {
		for disp := 0; disp < size; {
			n := min(1+rng.IntN(3), size-disp)
			at := model[target][disp : disp+n]
			kind := rng.IntN(5)
			if disp == 0 {
				kind = 0
			}
			switch kind {
			case 0, 1: // Put, or Accumulate with REPLACE
				o := winOp{origin: rng.IntN(np), target: target, disp: disp, vals: vals(n)}
				if disp == 0 {
					o.origin = target
				}
				if kind == 1 {
					o.op = mpi.REPLACE
				}
				copy(at, o.vals)
				ops = append(ops, o)
			case 2, 3: // Accumulates of one op from several origins
				op := mpi.SUM
				if kind == 3 {
					op = mpi.MAX
				}
				for _, origin := range rng.Perm(np)[:1+rng.IntN(np)] {
					o := winOp{op: op, origin: origin, target: target, disp: disp, vals: vals(n)}
					for i, v := range o.vals {
						if op == mpi.SUM {
							at[i] += v
						} else {
							at[i] = max(at[i], v)
						}
					}
					ops = append(ops, o)
				}
			case 4: // Gets from several origins
				for _, origin := range rng.Perm(np)[:1+rng.IntN(np)] {
					ops = append(ops, winOp{get: true, origin: origin, target: target, disp: disp, vals: slices.Clone(at)})
				}
			}
			disp += n
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// TestWinEpochMatchesModel runs epochs that mix Put, Get and Accumulate
// (SUM, MAX, REPLACE) over several targets, self included, with several
// operations per target, and checks every window and every Get against
// a sequential model of the same epochs. The origin sections sit at an
// offset in their buffers. Two further rows: a Get from an OBJECT
// window, and Puts issued by two goroutines of one rank at once.
func TestWinEpochMatchesModel(t *testing.T) {
	const size, epochs = 12, 6
	mpi.RegisterObject("")
	for _, device := range []string{"chan", "tcp"} {
		for _, np := range []int{3, 4} {
			t.Run(fmt.Sprintf("%s/np%d", device, np), func(t *testing.T) {
				rng := rand.New(rand.NewPCG(uint64(np), 44))
				model := make([][]int64, np)
				for r := range model {
					model[r] = make([]int64, size)
				}
				var plan [][]winOp
				var want [][][]int64
				for e := 0; e < epochs; e++ {
					plan = append(plan, winEpoch(rng, np, size, model))
					var snap [][]int64
					for _, m := range model {
						snap = append(snap, slices.Clone(m))
					}
					want = append(want, snap)
				}
				err := mpi.RunWith(mpi.RunOptions{NP: np, Device: device}, func(env *mpi.Env) error {
					w := env.CommWorld()
					rank := w.Rank()
					base := make([]int64, size)
					win, err := w.CreateWin(base, mpi.LONG)
					if err != nil {
						return err
					}
					for e, ops := range plan {
						var gets []func() error
						for i, o := range ops {
							if o.origin != rank {
								continue
							}
							off := i % 3
							buf := make([]int64, off+len(o.vals))
							switch {
							case o.get:
								err = win.Get(buf, off, len(o.vals), mpi.LONG, o.target, o.disp)
								gets = append(gets, func() error {
									if !slices.Equal(buf[off:], o.vals) {
										return fmt.Errorf("epoch %d: rank %d read %v from rank %d at %d, want %v", e, rank, buf[off:], o.target, o.disp, o.vals)
									}
									return nil
								})
							case o.op == nil:
								copy(buf[off:], o.vals)
								err = win.Put(buf, off, len(o.vals), mpi.LONG, o.target, o.disp)
							default:
								copy(buf[off:], o.vals)
								err = win.Accumulate(buf, off, len(o.vals), mpi.LONG, o.target, o.disp, o.op)
							}
							if err != nil {
								return err
							}
							if !o.get {
								clear(buf) // reusable at once: the call took what it needs
							}
						}
						if err := win.Fence(); err != nil {
							return fmt.Errorf("epoch %d: rank %d: %w", e, rank, err)
						}
						if !slices.Equal(base, want[e][rank]) {
							return fmt.Errorf("epoch %d: rank %d window %v, model %v", e, rank, base, want[e][rank])
						}
						for _, check := range gets {
							if err := check(); err != nil {
								return err
							}
						}
						// Local reads and the next epoch's remote writes
						// must be fence-separated (MPI-2 §6.4).
						if err := win.Fence(); err != nil {
							return err
						}
					}
					if err := win.Free(); err != nil {
						return err
					}

					// A Get from an OBJECT window: every rank reads two
					// elements of its right neighbour's and one of its own.
					objs := make([]any, 4)
					for i := range objs {
						objs[i] = fmt.Sprintf("r%d.%d", rank, i)
					}
					owin, err := w.CreateWin(objs, mpi.OBJECT)
					if err != nil {
						return err
					}
					right := (rank + 1) % np
					got := make([]any, 3)
					if err := owin.Get(got, 0, 2, mpi.OBJECT, right, 1); err != nil {
						return err
					}
					if err := owin.Get(got, 2, 1, mpi.OBJECT, rank, 3); err != nil {
						return err
					}
					if err := owin.Fence(); err != nil {
						return err
					}
					if wantObj := []any{fmt.Sprintf("r%d.1", right), fmt.Sprintf("r%d.2", right), fmt.Sprintf("r%d.3", rank)}; !slices.Equal(got, wantObj) {
						return fmt.Errorf("rank %d: OBJECT Gets read %v, want %v", rank, got, wantObj)
					}
					return owin.Free()
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
	// Two goroutines of every rank Put into every window at once; slot
	// 2·origin+g belongs to goroutine g of origin.
	t.Run("concurrent", func(t *testing.T) {
		const np = 3
		err := mpi.Run(np, func(env *mpi.Env) error {
			w := env.CommWorld()
			rank := w.Rank()
			base := make([]int32, 2*np)
			win, err := w.CreateWin(base, mpi.INT)
			if err != nil {
				return err
			}
			var wg sync.WaitGroup
			errs := make([]error, 2)
			for g := range errs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for target := 0; target < np && errs[g] == nil; target++ {
						errs[g] = win.Put([]int32{int32(10*rank + g)}, 0, 1, mpi.INT, target, 2*rank+g)
					}
				}()
			}
			wg.Wait()
			if err := errors.Join(errs...); err != nil {
				return err
			}
			if err := win.Fence(); err != nil {
				return err
			}
			for slot, v := range base {
				if want := int32(10*(slot/2) + slot%2); v != want {
					return fmt.Errorf("rank %d window %v: slot %d = %d, want %d", rank, base, slot, v, want)
				}
			}
			return win.Free()
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}
