package dtype

import (
	"errors"
	"fmt"
	"slices"
)

// ErrTruncate reports that an incoming message held more elements than the
// receive buffer section could accept (MPI_ERR_TRUNCATE). The buffer is
// filled to capacity; the remainder is discarded.
var ErrTruncate = errors.New("dtype: message truncated on receive")

// ErrFormat reports a malformed wire payload.
var ErrFormat = errors.New("dtype: malformed wire payload")

// checkBounds verifies every element access offset+i*extent+d stays in
// [0, bufLen). It compares against offset rather than adding to it, and a
// product or sum that wraps an int is out of bounds, not a small index.
func (t *Type) checkBounds(bufLen, offset, count int) error {
	if count < 0 || offset < 0 {
		return ErrNegative
	}
	if count == 0 || len(t.disps) == 0 {
		return nil
	}
	ext := t.Extent()
	last := (count - 1) * ext
	lo, hi := t.dmin, t.dmax
	if last < 0 {
		lo += last
	} else {
		hi += last
	}
	// The division is skipped for an extent of 1 (every basic type),
	// whose product cannot wrap.
	wrapped := (ext != 0 && ext != 1 && last/ext != count-1) || lo > t.dmin || hi < t.dmax
	if wrapped || lo < -offset || hi >= bufLen-offset {
		return fmt.Errorf("%w: accesses [%d,%d] of buffer len %d", ErrBounds, offset+lo, offset+hi, bufLen)
	}
	return nil
}

// Pack appends to dst the wire encoding of count items of type t taken
// from buf starting at element offset, and returns the extended slice.
func Pack(dst []byte, buf any, offset, count int, t *Type) ([]byte, error) {
	b := BufOf(buf)
	if _, err := b.CheckSection(offset, count, t); err != nil {
		return dst, err
	}
	return b.Pack(dst, offset, count, t)
}

// Unpack decodes data into count items of type t in buf starting at
// element offset. It returns the number of basic elements deposited.
// If data holds more elements than the buffer section accepts, the section
// is filled and ErrTruncate is returned alongside the deposited count.
func Unpack(data []byte, buf any, offset, count int, t *Type) (int, error) {
	b := BufOf(buf)
	if _, err := b.CheckSection(offset, count, t); err != nil {
		return 0, err
	}
	return b.Unpack(data, offset, count, t)
}

// Pack is the package's Pack for a section CheckSection has passed: it
// packs without validating the section again. Every fixed-size class
// copies one run of consecutive elements at a time as its memory image,
// then a big-endian host swaps the copied bytes in place: on a
// little-endian host a contiguous section packs as one memcpy and a
// Vector column as one copy per block.
func (b Buf) Pack(dst []byte, offset, count int, t *Type) ([]byte, error) {
	if t.class == Obj {
		return packObjects(dst, b.value(), offset, count, t)
	}
	es, at := t.class.WireSize(), len(dst)
	mem := b.mem(es)
	dst = slices.Grow(dst, t.WireBytes(count))
	t.walk(offset, count, func(lo, n int) {
		dst = append(dst, mem[lo*es:(lo+n)*es]...)
	})
	if !hostLE {
		swapElems(dst[at:], es)
	}
	return dst, nil
}

// Unpack is the package's Unpack for a section CheckSection has passed:
// it deposits data run by run until either runs out, each run taking
// its memory image's worth of bytes — swapped in place on a big-endian
// host, and a bool's normalised to 0 or 1 — without validating the
// section again.
func (b Buf) Unpack(data []byte, offset, count int, t *Type) (int, error) {
	if t.class == Obj {
		return unpackObjects(data, b.value(), offset, count, t)
	}
	es := t.class.WireSize()
	if len(data)%es != 0 {
		return 0, fmt.Errorf("%w: %d bytes not a multiple of element size %d", ErrFormat, len(data), es)
	}
	avail, capacity := len(data)/es, count*len(t.disps)
	mem, isBool := b.mem(es), t.class == Bool
	t.walk(offset, count, func(lo, n int) {
		run := mem[lo*es : (lo+n)*es]
		run = run[:copy(run, data)]
		data = data[len(run):]
		switch {
		case isBool:
			for i, v := range run {
				run[i] = min(v, 1)
			}
		case !hostLE:
			swapElems(run, es)
		}
	})
	if avail > capacity {
		return capacity, ErrTruncate
	}
	return avail, nil
}

// Elements returns how many basic elements of class c a payload of
// byteLen bytes holds, or -1 if indeterminate (Obj class or misaligned).
func Elements(byteLen int, c Class) int {
	es := c.WireSize()
	if es == 0 || byteLen%es != 0 {
		return -1
	}
	return byteLen / es
}

// MakeDense allocates a dense slice of n elements of class c.
func MakeDense(c Class, n int) any {
	switch c {
	case U8:
		return make([]byte, n)
	case Bool:
		return make([]bool, n)
	case I16:
		return make([]int16, n)
	case I32:
		return make([]int32, n)
	case I64:
		return make([]int64, n)
	case F32:
		return make([]float32, n)
	case F64:
		return make([]float64, n)
	case Obj:
		return make([]any, n)
	}
	return nil
}

// basicOf caches one anonymous basic Type per class.
var basicOf = func() [numClasses]*Type {
	var a [numClasses]*Type
	for c := Class(0); c < numClasses; c++ {
		a[c] = Basic(c, "dense:"+c.String())
	}
	return a
}()

// BasicType returns the cached basic datatype for a storage class
// (used internally for whole-slice transfers).
func BasicType(c Class) *Type { return basicOf[c] }
