package dtype

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"reflect"
)

// Object serialization — the paper's §2.2 extension. A buffer of
// MPI.OBJECT elements is any slice, as mpiJava's is any Object[]: a
// []any, a []Ticket, a []*Ticket. Each element is serialized straight
// from the buffer in the send wrapper and unserialized straight into it
// at the destination (setObject). Go's encoding/gob plays the role of
// Java object serialization; concrete element types must be registered
// via Register (the analogue of implementing Serializable). The wire
// bytes depend on the element values only, not on the slice type, so a
// []Ticket sender and a []any receiver interoperate.
//
// Wire layout of an Obj payload:
//
//	u32 object count
//	per object: u32 length, gob bytes
//
// Each object is encoded with a fresh gob stream so payloads can be
// decoded element-by-element through arbitrary typemaps.

// box wraps an interface value so gob carries its concrete type.
type box struct{ V any }

// Register records a concrete type for object-buffer serialization,
// mirroring gob.Register. Values of unregistered concrete types cannot
// travel in OBJECT buffers.
func Register(v any) { gob.Register(v) }

// EncodeObject serializes a single value.
func EncodeObject(v any) ([]byte, error) {
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(box{V: v}); err != nil {
		return nil, fmt.Errorf("dtype: object encode: %w", err)
	}
	return b.Bytes(), nil
}

// DecodeObject deserializes a single value.
func DecodeObject(data []byte) (any, error) {
	var b box
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&b); err != nil {
		return nil, fmt.Errorf("dtype: object decode: %w", err)
	}
	return b.V, nil
}

// packObjects encodes the section's elements straight from buf, which
// may be any slice.
func packObjects(dst []byte, buf any, offset, count int, t *Type) ([]byte, error) {
	v := reflect.ValueOf(buf)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(count*len(t.disps)))
	var err error
	t.walk(offset, count, func(lo, n int) {
		for i := lo; i < lo+n && err == nil; i++ {
			var blob []byte
			if blob, err = EncodeObject(v.Index(i).Interface()); err == nil {
				dst = binary.LittleEndian.AppendUint32(dst, uint32(len(blob)))
				dst = append(dst, blob...)
			}
		}
	})
	return dst, err
}

// objectCount reads the object count header of an Obj payload. The
// count is bounded by the payload size (each object costs at least its
// length word), so a corrupt header can neither force a large
// allocation nor wrap negative on a 32-bit host.
func objectCount(data []byte) (int, error) {
	if len(data) < 4 {
		return 0, ErrFormat
	}
	n := binary.LittleEndian.Uint32(data)
	if uint64(n) > uint64(len(data)-4)/4 {
		return 0, ErrFormat
	}
	return int(n), nil
}

// nextObject splits the length-prefixed object at the front of data from
// what follows it. The length word is compared unsigned: as an int it may
// wrap negative on a 32-bit host.
func nextObject(data []byte) (obj, rest []byte, err error) {
	if len(data) < 4 {
		return nil, nil, ErrFormat
	}
	n := binary.LittleEndian.Uint32(data)
	if uint64(len(data)-4) < uint64(n) {
		return nil, nil, ErrFormat
	}
	return data[4 : 4+int(n)], data[4+int(n):], nil
}

// ObjectsLen returns the byte length of the Obj payload at the front of
// data — its count word and every length-prefixed object — so that a
// caller holding several packed sections back to back can step past
// one.
func ObjectsLen(data []byte) (int, error) {
	n, err := objectCount(data)
	if err != nil {
		return 0, err
	}
	rest := data[4:]
	for ; n > 0; n-- {
		if _, rest, err = nextObject(rest); err != nil {
			return 0, err
		}
	}
	return len(data) - len(rest), nil
}

// EncodeObjects serializes a whole object slice to an Obj payload.
func EncodeObjects(objs []any) ([]byte, error) {
	return packObjects(nil, objs, 0, len(objs), basicOf[Obj])
}

// DecodeObjects deserializes every object of an Obj payload; the count
// comes from the payload header.
func DecodeObjects(data []byte) ([]any, error) {
	n, err := objectCount(data)
	if err != nil {
		return nil, err
	}
	objs := make([]any, n)
	if _, err := unpackObjects(data, objs, 0, n, basicOf[Obj]); err != nil {
		return nil, err
	}
	return objs, nil
}

// unpackObjects decodes the payload's elements straight into buf, which
// may be any slice (see setObject).
func unpackObjects(data []byte, buf any, offset, count int, t *Type) (int, error) {
	avail, err := objectCount(data)
	if err != nil {
		return 0, err
	}
	data = data[4:]
	capacity := count * len(t.disps)
	todo, done := min(avail, capacity), 0
	t.walk(offset, count, func(lo, n int) {
		for i := lo; i < lo+n && done < todo && err == nil; i++ {
			var blob []byte
			var x any
			if blob, data, err = nextObject(data); err != nil {
				return
			}
			if x, err = DecodeObject(blob); err == nil {
				if err = setObject(buf, i, x); err == nil {
					done++
				}
			}
		}
	})
	if err == nil && avail > capacity {
		err = ErrTruncate
	}
	return done, err
}

// setObject stores decoded element x at buf[i]: as is when it is
// assignable to the element type, behind a fresh pointer when the
// element type is *E and x an E (gob flattens pointers on the wire), and
// as the zero value when x is nil. Any other x is a class mismatch.
func setObject(buf any, i int, x any) error {
	slot := reflect.ValueOf(buf).Index(i)
	et := slot.Type()
	v := reflect.ValueOf(x)
	switch {
	case x == nil:
		slot.SetZero()
	case v.Type().AssignableTo(et):
		slot.Set(v)
	case et.Kind() == reflect.Pointer && v.Type() == et.Elem():
		p := reflect.New(et.Elem())
		p.Elem().Set(v)
		slot.Set(p)
	default:
		return fmt.Errorf("%w: element %d arrived as %T, want %s", ErrClassMismatch, i, x, et)
	}
	return nil
}
