package mpi_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"gompi/mpi"
)

func TestCollectivesOverDerivedTypes(t *testing.T) {
	// Broadcast a strided column through a vector type: the typemap is
	// applied independently at every rank.
	err := mpi.Run(3, func(env *mpi.Env) error {
		w := env.CommWorld()
		col, err := mpi.TypeVector(4, 1, 4, mpi.DOUBLE)
		if err != nil {
			return err
		}
		col.Commit()
		mat := make([]float64, 16)
		if w.Rank() == 1 {
			for i := 0; i < 4; i++ {
				mat[2+4*i] = float64(i + 1)
			}
		}
		if err := w.Bcast(mat, 2, 1, col, 1); err != nil {
			return err
		}
		for i := 0; i < 4; i++ {
			if mat[2+4*i] != float64(i+1) {
				t.Errorf("rank %d: column slot %d = %v", w.Rank(), i, mat[2+4*i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestUserDefinedOp(t *testing.T) {
	// Complex multiplication on (re, im) pairs: commutative but not one
	// of the predefined ops.
	cmul := mpi.NewOp(func(in, inout any) {
		a := in.([]float64)
		b := inout.([]float64)
		for i := 0; i+1 < len(b); i += 2 {
			re := a[i]*b[i] - a[i+1]*b[i+1]
			im := a[i]*b[i+1] + a[i+1]*b[i]
			b[i], b[i+1] = re, im
		}
	}, true)
	err := mpi.Run(4, func(env *mpi.Env) error {
		w := env.CommWorld()
		// Each rank contributes i (the imaginary unit); i^4 = 1.
		in := []float64{0, 1}
		out := []float64{0, 0}
		if err := w.Allreduce(in, 0, out, 0, 1, mpi.DOUBLE2, cmul); err != nil {
			return err
		}
		if out[0] < 0.999 || out[0] > 1.001 || out[1] < -0.001 || out[1] > 0.001 {
			t.Errorf("rank %d: i^4 = (%v, %v), want (1, 0)", w.Rank(), out[0], out[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMinMaxLocPublicAPI(t *testing.T) {
	err := mpi.Run(4, func(env *mpi.Env) error {
		w := env.CommWorld()
		rank := float32(w.Rank())
		in := []float32{42 - rank*rank, rank} // max at rank 0
		out := []float32{0, 0}
		if err := w.Allreduce(in, 0, out, 0, 1, mpi.FLOAT2, mpi.MAXLOC); err != nil {
			return err
		}
		if out[0] != 42 || out[1] != 0 {
			t.Errorf("maxloc: %v", out)
		}
		// MINLOC rejects non-pair types.
		bad := []float32{1}
		err := w.Allreduce(bad, 0, bad, 0, 1, mpi.FLOAT, mpi.MINLOC)
		if mpi.ClassOf(err) != mpi.ErrOp {
			t.Errorf("minloc on non-pair: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceScatterPublicAPI(t *testing.T) {
	// The last four rows give one member, or every member, the whole
	// vector: its receive section is then the accumulator itself.
	for _, counts := range [][]int{{2, 1, 1}, {0, 4, 0}, {4, 0, 0}, {0, 0, 4}, {0, 0, 0}} {
		t.Run(fmt.Sprint(counts), func(t *testing.T) {
			err := mpi.Run(3, func(env *mpi.Env) error {
				w := env.CommWorld()
				send := []int64{1, 2, 3, 4}[:counts[0]+counts[1]+counts[2]] // identical on every rank
				recv := make([]int64, 1+counts[w.Rank()]+1)                 // the section sits between two sentinels
				recv[0], recv[len(recv)-1] = -1, -1
				if err := w.ReduceScatter(send, 0, recv, 1, counts, mpi.LONG, mpi.SUM); err != nil {
					return err
				}
				base := 0
				for r := 0; r < w.Rank(); r++ {
					base += counts[r]
				}
				want := []int64{-1}
				for i := range counts[w.Rank()] {
					want = append(want, int64((base+i+1)*3))
				}
				if want = append(want, -1); !slices.Equal(recv, want) {
					t.Errorf("rank %d: got %v want %v", w.Rank(), recv, want)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestScanNonCommutative(t *testing.T) {
	concat := mpi.NewOp(func(in, inout any) {
		a := in.([]int64)
		b := inout.([]int64)
		for i := range b {
			b[i] = a[i]*10 + b[i]
		}
	}, false)
	err := mpi.Run(4, func(env *mpi.Env) error {
		w := env.CommWorld()
		in := []int64{int64(w.Rank() + 1)}
		out := []int64{0}
		if err := w.Scan(in, 0, out, 0, 1, mpi.LONG, concat); err != nil {
			return err
		}
		var want int64
		for r := 0; r <= w.Rank(); r++ {
			want = want*10 + int64(r+1)
		}
		if out[0] != want {
			t.Errorf("rank %d: scan %d, want %d", w.Rank(), out[0], want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNonCommutativeAllreducePublic(t *testing.T) {
	concat := mpi.NewOp(func(in, inout any) {
		a := in.([]int32)
		b := inout.([]int32)
		for i := range b {
			b[i] = a[i]*10 + b[i]
		}
	}, false)
	err := mpi.Run(5, func(env *mpi.Env) error {
		w := env.CommWorld()
		in := []int32{int32(w.Rank() + 1)}
		out := []int32{0}
		if err := w.Allreduce(in, 0, out, 0, 1, mpi.INT, concat); err != nil {
			return err
		}
		if out[0] != 12345 {
			t.Errorf("rank %d: got %d, want 12345", w.Rank(), out[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAllreduceMatchesSerialProperty: random vectors, random np — the
// collective sum equals the serial sum at every rank.
func TestAllreduceMatchesSerialProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		np := 1 + rng.Intn(5)
		width := 1 + rng.Intn(8)
		inputs := make([][]int64, np)
		for r := range inputs {
			inputs[r] = make([]int64, width)
			for i := range inputs[r] {
				inputs[r][i] = int64(rng.Intn(2001) - 1000)
			}
		}
		want := make([]int64, width)
		for _, in := range inputs {
			for i, v := range in {
				want[i] += v
			}
		}
		ok := true
		err := mpi.Run(np, func(env *mpi.Env) error {
			w := env.CommWorld()
			out := make([]int64, width)
			if err := w.Allreduce(inputs[w.Rank()], 0, out, 0, width, mpi.LONG, mpi.SUM); err != nil {
				return err
			}
			if !reflect.DeepEqual(out, want) {
				ok = false
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestGatherBcastRoundTripProperty: scatter + gather is the identity on
// random data.
func TestScatterGatherRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		np := 1 + rng.Intn(5)
		blk := 1 + rng.Intn(6)
		root := rng.Intn(np)
		data := make([]float64, np*blk)
		for i := range data {
			data[i] = rng.NormFloat64()
		}
		var got []float64
		err := mpi.Run(np, func(env *mpi.Env) error {
			w := env.CommWorld()
			var src []float64
			if w.Rank() == root {
				src = append([]float64(nil), data...)
			}
			mine := make([]float64, blk)
			if err := w.Scatter(src, 0, blk, mpi.DOUBLE, mine, 0, blk, mpi.DOUBLE, root); err != nil {
				return err
			}
			back := make([]float64, np*blk)
			if err := w.Gather(mine, 0, blk, mpi.DOUBLE, back, 0, blk, mpi.DOUBLE, root); err != nil {
				return err
			}
			if w.Rank() == root {
				got = back
			}
			return nil
		})
		return err == nil && reflect.DeepEqual(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCollectiveRootValidation(t *testing.T) {
	err := mpi.Run(2, func(env *mpi.Env) error {
		w := env.CommWorld()
		buf := []int32{0}
		if err := w.Bcast(buf, 0, 1, mpi.INT, 9); mpi.ClassOf(err) != mpi.ErrRoot {
			t.Errorf("bad root: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectivesOnObjectBuffers(t *testing.T) {
	type note struct{ Text string }
	mpi.RegisterObject(note{})
	err := mpi.Run(3, func(env *mpi.Env) error {
		w := env.CommWorld()
		buf := make([]any, 1)
		if w.Rank() == 0 {
			buf[0] = note{Text: "broadcast me"}
		}
		if err := w.Bcast(buf, 0, 1, mpi.OBJECT, 0); err != nil {
			return err
		}
		n, ok := buf[0].(note)
		if !ok || n.Text != "broadcast me" {
			t.Errorf("rank %d: %#v", w.Rank(), buf[0])
		}
		// Gather objects.
		all := make([]any, 3)
		mine := []any{note{Text: string(rune('a' + w.Rank()))}}
		if err := w.Gather(mine, 0, 1, mpi.OBJECT, all, 0, 1, mpi.OBJECT, 0); err != nil {
			return err
		}
		if w.Rank() == 0 {
			for r := 0; r < 3; r++ {
				if all[r].(note).Text != string(rune('a'+r)) {
					t.Errorf("gathered object %d: %#v", r, all[r])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
