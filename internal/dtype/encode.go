package dtype

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
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
// [0, bufLen).
func (t *Type) checkBounds(bufLen, offset, count int) error {
	if count < 0 || offset < 0 {
		return ErrNegative
	}
	if count == 0 || len(t.disps) == 0 {
		return nil
	}
	minD, maxD := t.disps[0], t.disps[0]
	for _, d := range t.disps {
		if d < minD {
			minD = d
		}
		if d > maxD {
			maxD = d
		}
	}
	ext := t.Extent()
	lo := offset + minD
	hi := offset + maxD
	last := (count - 1) * ext
	if last < 0 {
		lo += last
	} else {
		hi += last
	}
	if lo < 0 || hi >= bufLen {
		return fmt.Errorf("%w: accesses [%d,%d] of buffer len %d", ErrBounds, lo, hi, bufLen)
	}
	return nil
}

// Pack appends to dst the wire encoding of count items of type t taken
// from buf starting at element offset, and returns the extended slice.
// On little-endian hosts a contiguous section of a fixed-size class
// packs as a single memcpy.
func Pack(dst []byte, buf any, offset, count int, t *Type) ([]byte, error) {
	if !t.committed {
		return dst, ErrUncommitted
	}
	buf, _ = NativeView(buf)
	n, err := CheckBuf(buf, t)
	if err != nil {
		return dst, err
	}
	if err := t.checkBounds(n, offset, count); err != nil {
		return dst, err
	}
	if t.class == Obj {
		return packObjects(dst, buf, offset, count, t)
	}
	if hostLE && t.contig {
		if bv, ok := byteView(buf, offset, count*len(t.disps)); ok {
			return append(dst, bv...), nil
		}
	}
	items, ext, runs := t.iterShape(count)
	if es := t.class.WireSize(); cap(dst)-len(dst) < count*len(t.disps)*es {
		grown := make([]byte, len(dst), len(dst)+count*len(t.disps)*es)
		copy(grown, dst)
		dst = grown
	}
	switch s := buf.(type) {
	case []byte:
		for i := 0; i < items; i++ {
			base := offset + i*ext
			for _, r := range runs {
				dst = append(dst, s[base+r.off:base+r.off+r.n]...)
			}
		}
	case []bool:
		for i := 0; i < items; i++ {
			base := offset + i*ext
			for _, r := range runs {
				for _, v := range s[base+r.off : base+r.off+r.n] {
					if v {
						dst = append(dst, 1)
					} else {
						dst = append(dst, 0)
					}
				}
			}
		}
	case []int16:
		for i := 0; i < items; i++ {
			base := offset + i*ext
			for _, r := range runs {
				for _, v := range s[base+r.off : base+r.off+r.n] {
					dst = binary.LittleEndian.AppendUint16(dst, uint16(v))
				}
			}
		}
	case []int32:
		for i := 0; i < items; i++ {
			base := offset + i*ext
			for _, r := range runs {
				for _, v := range s[base+r.off : base+r.off+r.n] {
					dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
				}
			}
		}
	case []int64:
		for i := 0; i < items; i++ {
			base := offset + i*ext
			for _, r := range runs {
				for _, v := range s[base+r.off : base+r.off+r.n] {
					dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
				}
			}
		}
	case []float32:
		for i := 0; i < items; i++ {
			base := offset + i*ext
			for _, r := range runs {
				for _, v := range s[base+r.off : base+r.off+r.n] {
					dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
				}
			}
		}
	case []float64:
		for i := 0; i < items; i++ {
			base := offset + i*ext
			for _, r := range runs {
				for _, v := range s[base+r.off : base+r.off+r.n] {
					dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
				}
			}
		}
	}
	return dst, nil
}

// Unpack decodes data into count items of type t in buf starting at
// element offset. It returns the number of basic elements deposited.
// If data holds more elements than the buffer section accepts, the section
// is filled and ErrTruncate is returned alongside the deposited count.
func Unpack(data []byte, buf any, offset, count int, t *Type) (int, error) {
	if !t.committed {
		return 0, ErrUncommitted
	}
	buf, _ = NativeView(buf)
	n, err := CheckBuf(buf, t)
	if err != nil {
		return 0, err
	}
	if err := t.checkBounds(n, offset, count); err != nil {
		return 0, err
	}
	if t.class == Obj {
		return unpackObjects(data, buf, offset, count, t)
	}
	es := t.class.WireSize()
	if len(data)%es != 0 {
		return 0, fmt.Errorf("%w: %d bytes not a multiple of element size %d", ErrFormat, len(data), es)
	}
	avail := len(data) / es
	capacity := count * len(t.disps)
	todo := avail
	if todo > capacity {
		todo = capacity
	}
	if hostLE && t.contig {
		// Contiguous fixed-size section: deposit as one memcpy.
		if bv, ok := byteView(buf, offset, todo); ok {
			copy(bv, data)
			if avail > capacity {
				return todo, ErrTruncate
			}
			return todo, nil
		}
	}
	items, ext, runs := t.iterShape(count)
	done := 0
	pos := 0
	// Hoist the buffer type switch out of the element loops; each class
	// arm walks items × runs depositing up to todo elements.
	switch s := buf.(type) {
	case []byte:
	byteLoop:
		for i := 0; i < items; i++ {
			base := offset + i*ext
			for _, r := range runs {
				n := r.n
				if done+n > todo {
					n = todo - done
				}
				copy(s[base+r.off:base+r.off+n], data[pos:pos+n])
				pos += n
				done += n
				if done == todo {
					break byteLoop
				}
			}
		}
	case []bool:
	boolLoop:
		for i := 0; i < items; i++ {
			base := offset + i*ext
			for _, r := range runs {
				for k := 0; k < r.n; k++ {
					if done == todo {
						break boolLoop
					}
					s[base+r.off+k] = data[pos] != 0
					pos++
					done++
				}
			}
		}
	case []int16:
	i16Loop:
		for i := 0; i < items; i++ {
			base := offset + i*ext
			for _, r := range runs {
				for k := 0; k < r.n; k++ {
					if done == todo {
						break i16Loop
					}
					s[base+r.off+k] = int16(binary.LittleEndian.Uint16(data[pos:]))
					pos += 2
					done++
				}
			}
		}
	case []int32:
	i32Loop:
		for i := 0; i < items; i++ {
			base := offset + i*ext
			for _, r := range runs {
				for k := 0; k < r.n; k++ {
					if done == todo {
						break i32Loop
					}
					s[base+r.off+k] = int32(binary.LittleEndian.Uint32(data[pos:]))
					pos += 4
					done++
				}
			}
		}
	case []int64:
	i64Loop:
		for i := 0; i < items; i++ {
			base := offset + i*ext
			for _, r := range runs {
				for k := 0; k < r.n; k++ {
					if done == todo {
						break i64Loop
					}
					s[base+r.off+k] = int64(binary.LittleEndian.Uint64(data[pos:]))
					pos += 8
					done++
				}
			}
		}
	case []float32:
	f32Loop:
		for i := 0; i < items; i++ {
			base := offset + i*ext
			for _, r := range runs {
				for k := 0; k < r.n; k++ {
					if done == todo {
						break f32Loop
					}
					s[base+r.off+k] = math.Float32frombits(binary.LittleEndian.Uint32(data[pos:]))
					pos += 4
					done++
				}
			}
		}
	case []float64:
	f64Loop:
		for i := 0; i < items; i++ {
			base := offset + i*ext
			for _, r := range runs {
				for k := 0; k < r.n; k++ {
					if done == todo {
						break f64Loop
					}
					s[base+r.off+k] = math.Float64frombits(binary.LittleEndian.Uint64(data[pos:]))
					pos += 8
					done++
				}
			}
		}
	}
	if avail > capacity {
		return done, ErrTruncate
	}
	return done, nil
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
