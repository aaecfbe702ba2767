package coll

import (
	"fmt"
	"unsafe"

	"gompi/internal/dtype"
)

// Kernel folds two reduction operands held in wire format: elementwise
// op(lo, hi), where lo is the contribution of the lower-ranked process
// (the MPI operand order, which non-commutative operations and the
// NaN/±0 behaviour of MIN/MAX depend on). The result is written to dst —
// lo itself, hi itself, or a third buffer of their length — and the
// slice holding it is returned: dst for the fixed-size classes, a fresh
// encoding for OBJECT operands, whose gob size changes with their value.
// The predefined kernels read lo and hi and write dst, nothing else. A
// user operation folds in place, so its kernel may use hi as scratch
// when the result goes elsewhere: hand it only operands the caller owns
// exclusively — which a window borrowed from a partner is, from the
// moment it arrives until it is released.
type Kernel func(lo, hi, dst []byte) ([]byte, error)

// aliases reports whether two equally long operands are the same memory.
func aliases(a, b []byte) bool { return len(a) > 0 && &a[0] == &b[0] }

// Arithmetic reductions accept every fixed-size class (dtype.Fixed);
// integer covers the classes bitwise and logical reductions accept.
type integer interface {
	byte | int16 | int32 | int64
}

// The typed loops: dst[i] = op(a[i], b[i]), dst aliasing a or b. They
// are generic over the element type only, so every (operation, class)
// pair compiles to its own monomorphic loop — no per-element call, no
// interface. MIN and MAX keep b unless a compares strictly better,
// which fixes their result on NaN and ±0 for a given operand order.
//
// On amd64, where a loop is one SSE2 packed instruction per lane (SUM,
// PROD, MAX, MIN on the float classes; SUM, BAND, BOR, BXOR on the
// integer ones), vector gives it block forms: a 2-operand loop, which
// fixed runs over the whole 64-byte blocks of aligned views, and a tree
// step, which the island's fold runs over its chunks' whole blocks to
// store its result straight into every member's accumulator (walk).
// The typed loop folds the tail and everything else. Each lane is the
// same operation on the same operand order, so every form gives the same
// bits. The staged path calls only the typed loop: fixed is inlined
// where its loop is a static function, which keeps its staging arrays
// on the stack, and reaching a block form through a func value there
// would move them to the heap.

func sum[T dtype.Fixed](a, b, dst []T) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

func prod[T dtype.Fixed](a, b, dst []T) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = a[i] * b[i]
	}
}

func maxOf[T dtype.Fixed](a, b, dst []T) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		if a[i] > b[i] {
			dst[i] = a[i]
		} else {
			dst[i] = b[i]
		}
	}
}

func minOf[T dtype.Fixed](a, b, dst []T) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		if a[i] < b[i] {
			dst[i] = a[i]
		} else {
			dst[i] = b[i]
		}
	}
}

// loc folds (value, index) pairs; on equal values MPI selects the
// minimum index.
func loc[T dtype.Fixed](a, b, dst []T, max bool) {
	for i := 0; i+1 < len(dst); i += 2 {
		better := a[i] > b[i]
		if !max {
			better = a[i] < b[i]
		}
		if better || (a[i] == b[i] && a[i+1] < b[i+1]) {
			dst[i], dst[i+1] = a[i], a[i+1]
		} else {
			dst[i], dst[i+1] = b[i], b[i+1]
		}
	}
}

func maxLoc[T dtype.Fixed](a, b, dst []T) { loc(a, b, dst, true) }
func minLoc[T dtype.Fixed](a, b, dst []T) { loc(a, b, dst, false) }

func truth[T integer](v bool) T {
	if v {
		return 1
	}
	return 0
}

func land[T integer](a, b, dst []T) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = truth[T](a[i] != 0 && b[i] != 0)
	}
}

func lor[T integer](a, b, dst []T) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = truth[T](a[i] != 0 || b[i] != 0)
	}
}

func lxor[T integer](a, b, dst []T) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = truth[T]((a[i] != 0) != (b[i] != 0))
	}
}

func band[T integer](a, b, dst []T) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = a[i] & b[i]
	}
}

func bor[T integer](a, b, dst []T) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = a[i] | b[i]
	}
}

func bxor[T integer](a, b, dst []T) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = a[i] ^ b[i]
	}
}

// arith instantiates one of the arithmetic family's loops on T.
func arith[T dtype.Fixed](k kind) Kernel {
	v := vector[T](k).two
	switch k {
	case kSum:
		return fixed(sum[T], v)
	case kProd:
		return fixed(prod[T], v)
	case kMax:
		return fixed(maxOf[T], v)
	case kMin:
		return fixed(minOf[T], v)
	case kMaxLoc:
		return fixed(maxLoc[T], v)
	case kMinLoc:
		return fixed(minLoc[T], v)
	}
	panic(fmt.Sprintf("coll: kind %d is not arithmetic", k))
}

// bits instantiates one of the logical or bitwise loops on T.
func bits[T integer](k kind) Kernel {
	v := vector[T](k).two
	switch k {
	case kLand:
		return fixed(land[T], v)
	case kLor:
		return fixed(lor[T], v)
	case kLxor:
		return fixed(lxor[T], v)
	case kBand:
		return fixed(band[T], v)
	case kBor:
		return fixed(bor[T], v)
	case kBxor:
		return fixed(bxor[T], v)
	}
	panic(fmt.Sprintf("coll: kind %d is not logical or bitwise", k))
}

// checkOperands refuses operands a kernel cannot fold elementwise:
// members that disagree on the count, a destination of another size, or
// a torn trailing element.
func checkOperands(lo, hi, dst []byte, es int) error {
	if len(lo) != len(hi) || len(dst) != len(lo) || len(lo)%es != 0 {
		return fmt.Errorf("coll: reduction operands of %d and %d bytes into %d (element size %d)", len(lo), len(hi), len(dst), es)
	}
	return nil
}

// stageElems is the staged path's chunk, in elements: even, so a chunk
// never splits a MINLOC/MAXLOC pair, and small enough that both staging
// arrays live on the stack.
const stageElems = 64

// A block loop folds n ≥ 1 blocks of blockBytes: dst = a OP b lane by
// lane (kernel_amd64.s). It is not an async preemption point, so one
// call covers at most maxBlocks of them.
type block func(a, b, dst unsafe.Pointer, n int)

// A tree step folds n ≥ 1 blocks of four operands, (s0 OP s1) OP (s2 OP
// s3) lane by lane, and stores the result at d[0] … d[nd-1], 1 ≤ nd ≤
// maxDsts (kernel_amd64.s). Each block is loaded from all four sources
// before it is stored anywhere, so a destination may be a source. The
// operands travel by value, so they stay on the caller's stack.
type treeStep func(s [4]unsafe.Pointer, d [maxDsts]unsafe.Pointer, nd, n int)

const (
	blockBytes = 64
	maxBlocks  = 1024
	maxDsts    = 8
)

// blockForm is an operation's block loops on one class, or none (a zero
// two): its 2-operand loop, its tree step, and the alignment a typed view
// of an operand needs, which the island holds its operands to as fixed
// does.
type blockForm struct {
	two   block
	four  treeStep
	align uintptr
}

// run runs the block loop over nb blocks, maxBlocks per call.
func (v block) run(a, b, dst unsafe.Pointer, nb int) {
	for ; nb > 0; nb -= maxBlocks {
		n := min(nb, maxBlocks)
		raceBlocks(a, b, dst, n*blockBytes)
		v(a, b, dst, n)
		a, b, dst = unsafe.Add(a, n*blockBytes), unsafe.Add(b, n*blockBytes), unsafe.Add(dst, n*blockBytes)
	}
}

// quad runs the tree step over nb blocks of s into every one of dsts,
// maxBlocks blocks and maxDsts destinations per call. Each group of
// destinations after the first re-reads s, so where there is more than
// one group no destination may be a source.
func (bf *blockForm) quad(s [4]unsafe.Pointer, dsts []unsafe.Pointer, nb int) {
	for off := 0; off < nb*blockBytes; off += maxBlocks * blockBytes {
		n := min(nb-off/blockBytes, maxBlocks)
		var at [4]unsafe.Pointer
		for i, p := range s {
			at[i] = unsafe.Add(p, off)
		}
		for k := 0; k < len(dsts); k += maxDsts {
			var d [maxDsts]unsafe.Pointer
			nd := min(len(dsts)-k, maxDsts)
			for i := range nd {
				d[i] = unsafe.Add(dsts[k+i], off)
			}
			raceTree(at, d, nd, n*blockBytes)
			bf.four(at, d, nd, n)
		}
	}
}

// fixed lifts a typed loop to a Kernel over wire bytes. Operands that
// are aligned for T on a little-endian host — the caller's own slices,
// pooled frames — are folded in place through typed views: whole blocks
// by v where the operation has a block loop, the rest by f. Anything
// else (a payload behind a TCP frame header, a big-endian host) is
// staged chunk-wise through aligned stack arrays and folded by f alone.
func fixed[T dtype.Fixed](f func(a, b, dst []T), v block) Kernel {
	var z T
	es := int(unsafe.Sizeof(z))
	return func(lo, hi, dst []byte) ([]byte, error) {
		if err := checkOperands(lo, hi, dst, es); err != nil {
			return nil, err
		}
		a, okA := dtype.WireView[T](lo)
		b, okB := dtype.WireView[T](hi)
		d, okD := dtype.WireView[T](dst)
		if okA && okB && okD {
			if nb := len(d) * es / blockBytes; v != nil && nb > 0 {
				v.run(unsafe.Pointer(&a[0]), unsafe.Pointer(&b[0]), unsafe.Pointer(&d[0]), nb)
				done := nb * blockBytes / es
				a, b, d = a[done:], b[done:], d[done:]
			}
			f(a, b, d)
			return dst, nil
		}
		var x, y [stageElems]T
		for off := 0; off < len(dst); off += stageElems * es {
			n := min(stageElems, (len(dst)-off)/es)
			dtype.WireDecode(x[:n], lo[off:])
			dtype.WireDecode(y[:n], hi[off:])
			f(x[:n], y[:n], y[:n])
			dtype.WireEncode(dst[off:], y[:n])
		}
		return dst, nil
	}
}

// userKernel adapts a user function to the kernel contract: fn sees
// typed views of the two operands (decoded copies where a view is
// impossible: misaligned bytes, BOOLEAN, OBJECT) and folds into the
// second — dst itself, primed with hi, unless dst is lo: then hi takes
// the fold and the result is moved over.
func userKernel(fn ApplyFn, cls dtype.Class) Kernel {
	switch cls {
	case dtype.U8:
		return userFixed[byte](fn)
	case dtype.I16:
		return userFixed[int16](fn)
	case dtype.I32:
		return userFixed[int32](fn)
	case dtype.I64:
		return userFixed[int64](fn)
	case dtype.F32:
		return userFixed[float32](fn)
	case dtype.F64:
		return userFixed[float64](fn)
	case dtype.Bool:
		return userBool(fn)
	}
	return userObj(fn)
}

func userFixed[T dtype.Fixed](fn ApplyFn) Kernel {
	var z T
	es := int(unsafe.Sizeof(z))
	return func(lo, hi, dst []byte) ([]byte, error) {
		if err := checkOperands(lo, hi, dst, es); err != nil {
			return nil, err
		}
		if !aliases(dst, lo) && !aliases(dst, hi) {
			copy(dst, hi)
			hi = dst
		}
		a, okA := dtype.WireView[T](lo)
		if !okA {
			a = make([]T, len(lo)/es)
			dtype.WireDecode(a, lo)
		}
		b, okB := dtype.WireView[T](hi)
		if !okB {
			b = make([]T, len(hi)/es)
			dtype.WireDecode(b, hi)
		}
		if err := fn(a, b); err != nil {
			return nil, err
		}
		if !okB {
			dtype.WireEncode(hi, b)
		}
		if !aliases(dst, hi) {
			copy(dst, hi)
		}
		return dst, nil
	}
}

func userBool(fn ApplyFn) Kernel {
	return func(lo, hi, dst []byte) ([]byte, error) {
		if err := checkOperands(lo, hi, dst, 1); err != nil {
			return nil, err
		}
		a, b := make([]bool, len(lo)), make([]bool, len(hi))
		for i := range a {
			a[i], b[i] = lo[i] != 0, hi[i] != 0
		}
		if err := fn(a, b); err != nil {
			return nil, err
		}
		for i, v := range b {
			dst[i] = truth[byte](v)
		}
		return dst, nil
	}
}

func userObj(fn ApplyFn) Kernel {
	return func(lo, hi, _ []byte) ([]byte, error) {
		a, err := dtype.DecodeObjects(lo)
		if err != nil {
			return nil, err
		}
		b, err := dtype.DecodeObjects(hi)
		if err != nil {
			return nil, err
		}
		if len(a) != len(b) {
			return nil, fmt.Errorf("coll: reduction operands of %d and %d objects", len(a), len(b))
		}
		if err := fn(a, b); err != nil {
			return nil, err
		}
		return dtype.EncodeObjects(b)
	}
}
