package coll

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"gompi/internal/dtype"
	"gompi/internal/transport"
)

// window returns a copy of wire placed off bytes into a fresh
// allocation: off 0 is aligned for every class, an odd off for none
// wider than a byte.
func window(wire []byte, off int) []byte {
	buf := make([]byte, off+len(wire))
	copy(buf[off:], wire)
	return buf[off:]
}

func packDense[T dtype.Fixed](t *testing.T, cls dtype.Class, v []T) []byte {
	t.Helper()
	wire, err := dtype.Pack(nil, v, 0, len(v), dtype.BasicType(cls))
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// sameWire compares two payloads of T elements bit for bit, except that
// any NaN matches any NaN (payload bits are the FPU's business).
func sameWire[T dtype.Fixed](got, want []byte) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d bytes, want %d", len(got), len(want))
	}
	var g, w [1]T
	size := int(reflect.TypeOf(g[0]).Size())
	for i := 0; i+size <= len(got); i += size {
		if bytes.Equal(got[i:i+size], want[i:i+size]) {
			continue
		}
		dtype.WireDecode(g[:], got[i:])
		dtype.WireDecode(w[:], want[i:])
		if g[0] != g[0] && w[0] != w[0] {
			continue
		}
		return fmt.Errorf("element %d: %v (% x), want %v (% x)", i/size, g[0], got[i:i+size], w[0], want[i:i+size])
	}
	return nil
}

// kernelVsOracle checks one class of one operation: the kernel table
// and the oracle must agree on whether the pair is defined, and where
// it is, the kernel's bytes must equal the oracle's for every length,
// window alignment and result side.
func kernelVsOracle[T dtype.Fixed](cls dtype.Class, specials []T, full func(*rand.Rand) T) func(*testing.T, *Op, ApplyFn) {
	return func(t *testing.T, op *Op, ref ApplyFn) {
		k, err := op.Kernel(cls)
		if undefined := ref(make([]T, 2), make([]T, 2)) != nil; undefined != (err != nil) {
			t.Fatalf("oracle undefined=%v but Kernel err=%v", undefined, err)
		}
		if op.DefinedOn(cls) != (err == nil) {
			t.Fatalf("DefinedOn=%v but Kernel err=%v", op.DefinedOn(cls), err)
		}
		if err != nil {
			return
		}
		rng := rand.New(rand.NewSource(int64(cls) + 1))
		// Half the values come from a small set, so MINLOC/MAXLOC see
		// ties, the logical family sees zeros, and MIN/MAX/SUM see
		// NaN, ±0 and ±Inf on either side.
		gen := func(n int) []T {
			v := make([]T, n)
			for i := range v {
				if rng.Intn(2) == 0 {
					v[i] = specials[rng.Intn(len(specials))]
				} else {
					v[i] = full(rng)
				}
			}
			return v
		}
		// Every element size gets runs that are all tail, all 64-byte
		// blocks, and blocks plus a tail.
		lens := []int{0, 1, 7, 8, 9, 15, 16, 17, 31, 33, 63, 65, 64<<10 + 5}
		if op == MaxLoc || op == MinLoc {
			lens = []int{0, 2, 14, 16, 18, 34, 64<<10 + 6} // whole (value, index) pairs
		}
		for _, n := range lens {
			a, b := gen(n), gen(n)
			want := append([]T(nil), b...)
			if err := ref(a, want); err != nil {
				t.Fatal(err)
			}
			wa, wb, ww := packDense(t, cls, a), packDense(t, cls, b), packDense(t, cls, want)
			for _, off := range [][2]int{{0, 0}, {1, 0}, {0, 3}, {1, 1}} {
				// The result goes over either operand or into a third
				// buffer (aligned, then not); what is not the destination
				// is never written.
				for _, into := range []string{"hi", "lo", "third", "third+1"} {
					lo, hi := window(wa, off[0]), window(wb, off[1])
					var dst []byte
					switch into {
					case "hi":
						dst = hi
					case "lo":
						dst = lo
					case "third":
						dst = window(make([]byte, len(wa)), 0)
					default:
						dst = window(make([]byte, len(wa)), 1)
					}
					res, err := k(lo, hi, dst)
					if err != nil {
						t.Fatalf("n=%d off=%v into=%s: %v", n, off, into, err)
					}
					if n > 0 && &res[0] != &dst[0] {
						t.Fatalf("n=%d off=%v into=%s: result is not the destination", n, off, into)
					}
					if err := sameWire[T](res, ww); err != nil {
						t.Fatalf("n=%d off=%v into=%s: %v", n, off, into, err)
					}
					if into != "lo" && !bytes.Equal(lo, wa) || into != "hi" && !bytes.Equal(hi, wb) {
						t.Fatalf("n=%d off=%v into=%s: an operand that is not the destination was written", n, off, into)
					}
				}
			}
		}
		treeVsOracle(t, cls, op, ref, gen)
		walkVsOracle(t, cls, op, ref, gen)
		if _, err := k(make([]byte, 16), make([]byte, 32), make([]byte, 32)); err == nil {
			t.Fatal("operands of different lengths must be refused")
		}
		if _, err := k(make([]byte, 16), make([]byte, 16), make([]byte, 32)); err == nil {
			t.Fatal("a destination of another length must be refused")
		}
	}
}

// treeVsOracle checks operation op's tree step on class cls, where it
// has one, against the oracle's 2-operand tree that it replaces: the step
// on 1–5 blocks of four operands into 1–8 destinations, one of which is
// a source, on views aligned and not, writing nothing past its blocks or
// its destinations.
func treeVsOracle[T dtype.Fixed](t *testing.T, cls dtype.Class, op *Op, ref ApplyFn, gen func(int) []T) {
	t.Helper()
	bf := op.forms[cls]
	if bf.four == nil {
		return
	}
	es := cls.WireSize()
	fold := func(lo, hi []T) []T {
		out := append([]T(nil), hi...)
		if err := ref(lo, out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	zero := func(b []byte) bool { return bytes.Count(b, []byte{0}) == len(b) }
	for nb := 1; nb <= 5; nb++ {
		elems, size := nb*blockBytes/es, nb*blockBytes
		for _, off := range []int{0, 1} {
			for nd := 1; nd <= maxDsts; nd++ {
				var vals [4][]T
				var wires [4][]byte
				var s [4]unsafe.Pointer
				for i := range vals {
					vals[i] = gen(elems)
					wires[i] = window(packDense(t, cls, vals[i]), off)
					s[i] = unsafe.Pointer(&wires[i][0])
				}
				want := packDense(t, cls, fold(fold(vals[0], vals[1]), fold(vals[2], vals[3])))
				// One block past each destination, and the unused slots
				// of d, must stay zero.
				alias := nd % 4
				guard := make([]byte, size)
				var d [maxDsts]unsafe.Pointer
				outs := make([][]byte, nd)
				for k := range d {
					switch {
					case k == nd/2:
						outs[k] = wires[alias]
					case k < nd:
						outs[k] = window(make([]byte, size+blockBytes), off)
					default:
						d[k] = unsafe.Pointer(&guard[0])
						continue
					}
					d[k] = unsafe.Pointer(&outs[k][0])
				}
				bf.four(s, d, nd, nb)
				where := fmt.Sprintf("%d blocks, offset %d, %d destinations", nb, off, nd)
				for k, out := range outs {
					if err := sameWire[T](out[:size], want); err != nil {
						t.Fatalf("%s: destination %d: %v", where, k, err)
					}
					if k != nd/2 && !zero(out[size:]) {
						t.Fatalf("%s: destination %d written past its blocks", where, k)
					}
				}
				for i := range wires {
					if i != alias && !bytes.Equal(wires[i], window(packDense(t, cls, vals[i]), off)) {
						t.Fatalf("%s: source %d written", where, i)
					}
				}
				if !zero(guard) {
					t.Fatalf("%s: a destination past the %d given written", where, nd)
				}
			}
		}
	}
}

// walkVsOracle checks the island's walker on operation op and class cls
// against recursive doubling's association computed serially with the
// oracle: 2–17 operands folded into every other operand's own buffer
// and fresh ones, through the kernel's steps — on whole blocks, on a
// tail under one block, on views one byte off — and through the tree
// steps where the pair has them, on aligned views; at 5 operands, past
// one call of each block loop.
func walkVsOracle[T dtype.Fixed](t *testing.T, cls dtype.Class, op *Op, ref ApplyFn, gen func(int) []T) {
	t.Helper()
	k, err := op.Kernel(cls)
	if err != nil {
		t.Fatal(err)
	}
	f := &folder{k: k, form: op.forms[cls]}
	es := cls.WireSize()
	fold := func(lo, hi []T) []T {
		out := append([]T(nil), hi...)
		if err := ref(lo, out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	type form struct {
		name      string
		fused     bool
		size, off int
	}
	forms := []form{{"kernel steps", false, 3 * blockBytes, 0}, {"kernel steps, a tail", false, 48, 0}, {"kernel steps, one byte off", false, 3 * blockBytes, 1}}
	if f.form.four != nil {
		forms = append(forms, form{"tree steps", true, 3 * blockBytes, 0})
	}
	for _, fm := range forms {
		for n := 2; n <= 17; n++ {
			size := fm.size
			if n == 5 && size%blockBytes == 0 {
				size = (maxBlocks + 1) * blockBytes
			}
			vals := make([][]T, n)
			srcs, dsts := make([]unsafe.Pointer, n), make([]unsafe.Pointer, n)
			outs := make([][]byte, n)
			for j := range vals {
				vals[j] = gen(size / es)
				src := window(packDense(t, cls, vals[j]), fm.off)
				srcs[j] = unsafe.Pointer(&src[0])
				outs[j] = src
				if j%2 == 1 {
					outs[j] = window(make([]byte, size), fm.off)
				}
				dsts[j] = unsafe.Pointer(&outs[j][0])
			}
			// Recursive doubling: the pre-fold pairs, then partners at
			// distance 1, 2, 4 …
			p2 := 1
			for p2*2 <= n {
				p2 *= 2
			}
			level := make([][]T, p2)
			for j := range level {
				if j < n-p2 {
					level[j] = fold(vals[2*j], vals[2*j+1])
				} else {
					level[j] = vals[j+n-p2]
				}
			}
			for len(level) > 1 {
				for i := range len(level) / 2 {
					level[i] = fold(level[2*i], level[2*i+1])
				}
				level = level[:len(level)/2]
			}
			want := packDense(t, cls, level[0])
			io := &islandOp{f: f, t: newTree(n)}
			if err := io.walk(srcs, dsts, make([]byte, io.t.slots(fm.fused)*size), size, fm.fused); err != nil {
				t.Fatalf("%s, %d operands of %d bytes: %v", fm.name, n, size, err)
			}
			for j, out := range outs {
				if err := sameWire[T](out, want); err != nil {
					t.Fatalf("%s, %d operands of %d bytes: destination %d: %v", fm.name, n, size, j, err)
				}
			}
		}
	}
}

func TestKernelsMatchOracle(t *testing.T) {
	nan32, inf32 := float32(math.NaN()), float32(math.Inf(1))
	negZero := math.Copysign(0, -1)
	classes := []struct {
		cls dtype.Class
		run func(*testing.T, *Op, ApplyFn)
	}{
		{dtype.U8, kernelVsOracle(dtype.U8, []byte{0, 1, 2, 255},
			func(r *rand.Rand) byte { return byte(r.Uint32()) })},
		{dtype.I16, kernelVsOracle(dtype.I16, []int16{0, 1, -1, math.MaxInt16, math.MinInt16},
			func(r *rand.Rand) int16 { return int16(r.Uint32()) })},
		{dtype.I32, kernelVsOracle(dtype.I32, []int32{0, 1, -1, math.MaxInt32, math.MinInt32},
			func(r *rand.Rand) int32 { return int32(r.Uint32()) })},
		{dtype.I64, kernelVsOracle(dtype.I64, []int64{0, 1, -1, math.MaxInt64, math.MinInt64},
			func(r *rand.Rand) int64 { return int64(r.Uint64()) })},
		{dtype.F32, kernelVsOracle(dtype.F32, []float32{0, float32(negZero), 1, -1, nan32, inf32, -inf32, math.MaxFloat32, math.SmallestNonzeroFloat32},
			func(r *rand.Rand) float32 { return float32(r.NormFloat64() * 1e6) })},
		{dtype.F64, kernelVsOracle(dtype.F64, []float64{0, negZero, 1, -1, math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64},
			func(r *rand.Rand) float64 { return r.NormFloat64() * 1e12 })},
	}
	trees := 0
	for _, o := range oracle {
		for _, c := range classes {
			if o.op.forms[c.cls].four != nil {
				trees++
			}
			t.Run(fmt.Sprintf("%s/%s", o.op, c.cls), func(t *testing.T) { c.run(t, o.op, o.ref) })
		}
	}
	// The 15 instructions of the block loops, over 24 (operation, class)
	// pairs; off amd64, none.
	want := 0
	if runtime.GOARCH == "amd64" {
		want = 24
	}
	if trees != want {
		t.Fatalf("%d tree steps, want %d on %s", trees, want, runtime.GOARCH)
	}
}

// TestKernelsAllocateNothing: every predefined kernel folds without
// allocating, on operands aligned for their class (typed views, block
// loops) and on operands the staging path copies through stack arrays.
func TestKernelsAllocateNothing(t *testing.T) {
	kernels := 0
	for _, o := range oracle {
		for cls := dtype.U8; cls <= dtype.Obj; cls++ {
			if !o.op.DefinedOn(cls) {
				continue
			}
			k, err := o.op.Kernel(cls)
			if err != nil {
				t.Fatal(err)
			}
			kernels++
			for _, off := range []int{0, 1} {
				lo := window(make([]byte, 16*cls.WireSize()), off)
				hi := window(make([]byte, len(lo)), off)
				if n := testing.AllocsPerRun(10, func() { _, err = k(lo, hi, hi) }); n != 0 || err != nil {
					t.Errorf("%s on %s, offset %d: %v allocations per fold (err %v)", o.op, cls, off, n, err)
				}
			}
		}
	}
	if kernels != 63 {
		t.Fatalf("%d predefined kernels, want 63", kernels)
	}
	// The island's walk of five operands into all five: a pre-fold
	// pair, then two levels of kernel steps, or one tree step.
	const n, nb = 5, 4
	bufs := make([]byte, n*nb*blockBytes)
	ops := make([]unsafe.Pointer, n)
	for j := range ops {
		ops[j] = unsafe.Pointer(&bufs[j*nb*blockBytes])
	}
	walks := 0
	for _, o := range oracle {
		for cls := dtype.U8; cls <= dtype.F64; cls++ {
			k, err := o.op.Kernel(cls)
			if err != nil {
				continue
			}
			io := &islandOp{f: &folder{k: k, form: o.op.forms[cls]}, t: newTree(n)}
			for _, fused := range []bool{false, true} {
				if fused && io.f.form.four == nil {
					continue
				}
				walks++
				scratch := make([]byte, io.t.slots(fused)*nb*blockBytes)
				if a := testing.AllocsPerRun(10, func() { err = io.walk(ops, ops, scratch, nb*blockBytes, fused) }); a != 0 || err != nil {
					t.Errorf("%s on %s, tree steps %v: %v allocations per walk (err %v)", o.op, cls, fused, a, err)
				}
			}
		}
	}
	// Every predefined kernel, and the tree steps of 24 of them on amd64.
	want := 63
	if runtime.GOARCH == "amd64" {
		want += 24
	}
	if walks != want {
		t.Fatalf("%d walks, want %d", walks, want)
	}
}

// BenchmarkKernels prices every (operation, class) pair with an amd64
// block loop, plus MAXLOC on DOUBLE, which has none, at 16 Ki elements
// into a third buffer — on aligned operands and on operands one byte
// off, which every class but the byte one stages. Then one island chunk
// of DOUBLE SUM, 16 KiB from each of 2, 3, 4, 5 and 8 members into every
// member's accumulator: as foldChunk takes it, through the tree steps
// (fused), and through the walker's kernel steps (pairwise), which is
// what tails, misaligned views and operations without block loops take.
func BenchmarkKernels(b *testing.B) {
	type pair struct {
		op  *Op
		cls dtype.Class
	}
	var pairs []pair
	for _, op := range []*Op{Sum, Prod, Max, Min} {
		pairs = append(pairs, pair{op, dtype.F64}, pair{op, dtype.F32})
	}
	for _, cls := range []dtype.Class{dtype.I64, dtype.I32, dtype.I16, dtype.U8} {
		for _, op := range []*Op{Sum, Band, Bor, Bxor} {
			pairs = append(pairs, pair{op, cls})
		}
	}
	pairs = append(pairs, pair{MaxLoc, dtype.F64})
	const elems = 16 << 10
	for _, p := range pairs {
		k, err := p.op.Kernel(p.cls)
		if err != nil {
			b.Fatal(err)
		}
		size := elems * p.cls.WireSize()
		for _, off := range []int{0, 1} {
			name := fmt.Sprintf("%s/%s/aligned", p.op, p.cls)
			if off != 0 {
				name = fmt.Sprintf("%s/%s/unaligned", p.op, p.cls)
			}
			b.Run(name, func(b *testing.B) {
				// Zero operands: nothing drifts into subnormals.
				lo, hi, dst := window(make([]byte, size), off), window(make([]byte, size), off), window(make([]byte, size), off)
				b.SetBytes(int64(size))
				for i := 0; i < b.N; i++ {
					if _, err := k(lo, hi, dst); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	benchChunks(b)
}

func benchChunks(b *testing.B) {
	const size = islandChunk
	k, err := Sum.Kernel(dtype.F64)
	if err != nil {
		b.Fatal(err)
	}
	f := &folder{k: k, form: Sum.forms[dtype.F64]}
	for _, n := range []int{2, 3, 4, 5, 8} {
		in := &instance{ms: make([]member, n), op: &islandOp{f: f, t: newTree(n), wire: size, unit: 8, chunk: size}}
		srcs, dsts := make([]unsafe.Pointer, n), make([]unsafe.Pointer, n)
		for r := range in.ms {
			// Zero operands: nothing drifts into subnormals.
			in.ms[r] = member{mine: make([]byte, size), acc: make([]byte, size)}
			srcs[r], dsts[r] = unsafe.Pointer(&in.ms[r].mine[0]), unsafe.Pointer(&in.ms[r].acc[0])
		}
		for _, form := range []string{"fused", "pairwise"} {
			b.Run(fmt.Sprintf("%s/%s/chunk-of-%d/%s", Sum, dtype.F64, n, form), func(b *testing.B) {
				b.SetBytes(int64(n * size))
				for i := 0; i < b.N; i++ {
					if form == "fused" {
						err = in.foldChunk(0)
					} else {
						// Scratch from the pool, as foldChunk takes it.
						scratch := transport.GetBuf(in.op.t.slots(false) * size)
						err = in.op.walk(srcs, dsts, scratch, size, false)
						transport.PutBuf(scratch)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestKernelsBooleanAndObject covers the two classes with no typed
// view: BOOLEAN rides the byte loops of the logical family only, and
// OBJECT has no predefined operation at all.
func TestKernelsBooleanAndObject(t *testing.T) {
	vals := []bool{false, false, true, true, false}
	other := []bool{false, true, false, true, true}
	pack := func(v []bool) []byte {
		wire, err := dtype.Pack(nil, v, 0, len(v), dtype.BasicType(dtype.Bool))
		if err != nil {
			t.Fatal(err)
		}
		return wire
	}
	for _, o := range oracle {
		if o.op.DefinedOn(dtype.Obj) {
			t.Fatalf("%s must not be defined on OBJECT", o.op)
		}
		want := append([]bool(nil), other...)
		undefined := o.ref(vals, want) != nil
		if undefined == o.op.DefinedOn(dtype.Bool) {
			t.Fatalf("%s: oracle undefined=%v on BOOLEAN, table says defined=%v", o.op, undefined, !undefined)
		}
		if undefined {
			continue
		}
		k, _ := o.op.Kernel(dtype.Bool)
		for _, intoLo := range []bool{false, true} {
			lo, hi := window(pack(vals), 1), window(pack(other), 0)
			res, err := k(lo, hi, pick(intoLo, lo, hi))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(res, pack(want)) {
				t.Fatalf("%s intoLo=%v: % x, want % x", o.op, intoLo, res, pack(want))
			}
		}
	}
}

// TestUserKernelViews: a user function sees typed slices of the right
// type and length on every class — views where the bytes allow, decoded
// copies where they do not — and its result lands on the requested
// side.
func TestUserKernelViews(t *testing.T) {
	// inout = 10*in + inout: order-sensitive, so a swapped operand
	// pair cannot pass.
	digits := NewOp("digits", false, func(in, inout any) error {
		switch io := inout.(type) {
		case []int32:
			for i, a := range in.([]int32) {
				io[i] += 10 * a
			}
		case []float64:
			for i, a := range in.([]float64) {
				io[i] += 10 * a
			}
		case []bool:
			for i, a := range in.([]bool) {
				io[i] = a && !io[i]
			}
		case []any:
			for i, a := range in.([]any) {
				io[i] = a.(string) + io[i].(string)
			}
		default:
			return fmt.Errorf("unexpected operand type %T", inout)
		}
		return nil
	})
	cases := []struct {
		cls          dtype.Class
		lo, hi, want any
	}{
		{dtype.I32, []int32{1, 2, 3}, []int32{4, 5, 6}, []int32{14, 25, 36}},
		{dtype.F64, []float64{1, 2}, []float64{0.5, 0.25}, []float64{10.5, 20.25}},
		{dtype.Bool, []bool{true, true, false}, []bool{false, true, false}, []bool{true, false, false}},
		{dtype.Obj, []any{"a", "b"}, []any{"x", "y"}, []any{"ax", "by"}},
	}
	for _, tc := range cases {
		bt := dtype.BasicType(tc.cls)
		n := reflect.ValueOf(tc.lo).Len()
		k, err := digits.Kernel(tc.cls)
		if err != nil {
			t.Fatal(err)
		}
		for _, off := range []int{0, 1} {
			for _, into := range []string{"hi", "lo", "third"} {
				lo, _ := dtype.Pack(nil, tc.lo, 0, n, bt)
				hi, _ := dtype.Pack(nil, tc.hi, 0, n, bt)
				lo, hi = window(lo, off), window(hi, off)
				dst := pick(into == "lo", lo, hi)
				if into == "third" {
					dst = window(make([]byte, len(hi)), off)
				}
				res, err := k(lo, hi, dst)
				if err != nil {
					t.Fatalf("%s off=%d into=%s: %v", tc.cls, off, into, err)
				}
				got := dtype.MakeDense(tc.cls, n)
				if _, err := dtype.Unpack(res, got, 0, n, bt); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, tc.want) {
					t.Fatalf("%s off=%d into=%s: %v, want %v", tc.cls, off, into, got, tc.want)
				}
			}
		}
	}
}

// pick is the destination operand of the two-operand forms.
func pick(lo bool, a, b []byte) []byte {
	if lo {
		return a
	}
	return b
}
