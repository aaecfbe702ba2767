package dtype

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
)

// ErrTruncate reports that an incoming message held more elements than the
// receive buffer section could accept (MPI_ERR_TRUNCATE). The buffer is
// filled to capacity; the remainder is discarded.
var ErrTruncate = errors.New("dtype: message truncated on receive")

// ErrFormat reports a malformed wire payload.
var ErrFormat = errors.New("dtype: malformed wire payload")

// CheckBuf verifies that buf is a slice whose element type matches the
// datatype's storage class and returns its length. Named-primitive
// slices ([]Celsius) count as their underlying class.
func CheckBuf(buf any, t *Type) (int, error) {
	buf, _ = NativeView(buf)
	n, c, ok := sliceInfo(buf)
	if !ok {
		return 0, fmt.Errorf("%w: got %T", ErrClassMismatch, buf)
	}
	if c != t.class {
		return 0, fmt.Errorf("%w: buffer %T vs datatype %s", ErrClassMismatch, buf, t)
	}
	return n, nil
}

// CheckSection verifies that count items of t starting at element
// offset lie inside buf — everything Pack and Unpack validate before
// they touch data — so a receive section can be rejected before any
// message is sent. It returns buf's length in elements.
func CheckSection(buf any, offset, count int, t *Type) (int, error) {
	if !t.committed {
		return 0, ErrUncommitted
	}
	n, err := CheckBuf(buf, t)
	if err != nil {
		return 0, err
	}
	return n, t.checkBounds(n, offset, count)
}

func sliceInfo(buf any) (n int, c Class, ok bool) {
	switch s := buf.(type) {
	case []byte:
		return len(s), U8, true
	case []bool:
		return len(s), Bool, true
	case []int16:
		return len(s), I16, true
	case []int32:
		return len(s), I32, true
	case []int64:
		return len(s), I64, true
	case []float32:
		return len(s), F32, true
	case []float64:
		return len(s), F64, true
	case []any:
		return len(s), Obj, true
	}
	// Any other slice is an object buffer (mpiJava's Object[] of any
	// class): its elements travel gob-encoded.
	if v := reflect.ValueOf(buf); v.Kind() == reflect.Slice {
		return v.Len(), Obj, true
	}
	return 0, 0, false
}

// ClassOf reports the storage class of a buffer value. Named-primitive
// slices report their underlying class.
func ClassOf(buf any) (Class, bool) {
	buf, _ = NativeView(buf)
	_, c, ok := sliceInfo(buf)
	return c, ok
}

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
	wrapped := (ext != 0 && last/ext != count-1) || lo > t.dmin || hi < t.dmax
	if wrapped || lo < -offset || hi >= bufLen-offset {
		return fmt.Errorf("%w: accesses [%d,%d] of buffer len %d", ErrBounds, offset+lo, offset+hi, bufLen)
	}
	return nil
}

// Pack appends to dst the wire encoding of count items of type t taken
// from buf starting at element offset, and returns the extended slice.
// Every fixed-size class copies one run of consecutive elements at a time
// through the same walk, then a big-endian host swaps the copied bytes in
// place: on a little-endian host a contiguous section packs as one memcpy
// and a Vector column as one copy per block.
func Pack(dst []byte, buf any, offset, count int, t *Type) ([]byte, error) {
	if _, err := CheckSection(buf, offset, count, t); err != nil {
		return dst, err
	}
	return PackChecked(dst, buf, offset, count, t)
}

// PackChecked is Pack for a section CheckSection has passed: it packs
// without validating the section again.
func PackChecked(dst []byte, buf any, offset, count int, t *Type) ([]byte, error) {
	buf, _ = NativeView(buf)
	if t.class == Obj {
		return packObjects(dst, buf, offset, count, t)
	}
	at := len(dst)
	dst = slices.Grow(dst, t.WireBytes(count))
	switch s := buf.(type) {
	case []byte:
		dst = packFixed(dst, s, offset, count, t)
	case []bool:
		t.walk(offset, count, func(lo, n int) {
			for _, v := range s[lo : lo+n] {
				var b byte
				if v {
					b = 1
				}
				dst = append(dst, b)
			}
		})
	case []int16:
		dst = packFixed(dst, s, offset, count, t)
	case []int32:
		dst = packFixed(dst, s, offset, count, t)
	case []int64:
		dst = packFixed(dst, s, offset, count, t)
	case []float32:
		dst = packFixed(dst, s, offset, count, t)
	case []float64:
		dst = packFixed(dst, s, offset, count, t)
	}
	if !hostLE {
		swapElems(dst[at:], t.class.WireSize())
	}
	return dst, nil
}

// packFixed appends the memory image of every run of the section.
func packFixed[T Fixed](dst []byte, s []T, offset, count int, t *Type) []byte {
	t.walk(offset, count, func(lo, n int) {
		dst = append(dst, rawBytes(s[lo:lo+n])...)
	})
	return dst
}

// Unpack decodes data into count items of type t in buf starting at
// element offset. It returns the number of basic elements deposited.
// If data holds more elements than the buffer section accepts, the section
// is filled and ErrTruncate is returned alongside the deposited count.
func Unpack(data []byte, buf any, offset, count int, t *Type) (int, error) {
	if _, err := CheckSection(buf, offset, count, t); err != nil {
		return 0, err
	}
	return UnpackChecked(data, buf, offset, count, t)
}

// UnpackChecked is Unpack for a section CheckSection has passed: it
// deposits without validating the section again.
func UnpackChecked(data []byte, buf any, offset, count int, t *Type) (int, error) {
	buf, _ = NativeView(buf)
	if t.class == Obj {
		return unpackObjects(data, buf, offset, count, t)
	}
	es := t.class.WireSize()
	if len(data)%es != 0 {
		return 0, fmt.Errorf("%w: %d bytes not a multiple of element size %d", ErrFormat, len(data), es)
	}
	avail, capacity := len(data)/es, count*len(t.disps)
	switch s := buf.(type) {
	case []byte:
		unpackFixed(data, s, offset, count, t)
	case []bool:
		t.walk(offset, count, func(lo, n int) {
			run := data[:min(n, len(data))]
			for i, b := range run {
				s[lo+i] = b != 0
			}
			data = data[len(run):]
		})
	case []int16:
		unpackFixed(data, s, offset, count, t)
	case []int32:
		unpackFixed(data, s, offset, count, t)
	case []int64:
		unpackFixed(data, s, offset, count, t)
	case []float32:
		unpackFixed(data, s, offset, count, t)
	case []float64:
		unpackFixed(data, s, offset, count, t)
	}
	if avail > capacity {
		return capacity, ErrTruncate
	}
	return avail, nil
}

// unpackFixed deposits data run by run until either runs out: each run
// takes its memory image's worth of bytes, swapped in place on a
// big-endian host.
func unpackFixed[T Fixed](data []byte, s []T, offset, count int, t *Type) {
	t.walk(offset, count, func(lo, n int) {
		raw := rawBytes(s[lo : lo+n])
		got := copy(raw, data)
		data = data[got:]
		if !hostLE {
			swapElems(raw[:got], len(raw)/n)
		}
	})
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
