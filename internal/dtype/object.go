package dtype

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
)

// Object serialization — the paper's §2.2 extension. A buffer of
// MPI.OBJECT elements is a []any; each element is serialized in the send
// wrapper and unserialized at the destination. Go's encoding/gob plays
// the role of Java object serialization; concrete element types must be
// registered via Register (the analogue of implementing Serializable).
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

func packObjects(dst []byte, s []any, offset, count int, t *Type) ([]byte, error) {
	total := count * len(t.disps)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(total))
	ext := t.Extent()
	for i := 0; i < count; i++ {
		base := offset + i*ext
		for _, d := range t.disps {
			blob, err := EncodeObject(s[base+d])
			if err != nil {
				return dst, err
			}
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(blob)))
			dst = append(dst, blob...)
		}
	}
	return dst, nil
}

// objectCount reads the object count header of an Obj payload.
func objectCount(data []byte) (int, error) {
	if len(data) < 4 {
		return 0, ErrFormat
	}
	return int(binary.LittleEndian.Uint32(data)), nil
}

// EncodeObjects serializes a whole object slice to an Obj payload.
func EncodeObjects(objs []any) ([]byte, error) {
	return packObjects(nil, objs, 0, len(objs), basicOf[Obj])
}

// DecodeObjects deserializes every object of an Obj payload; the count
// comes from the payload header. The count is bounded by the payload
// size (each object costs at least its length word), so a corrupt
// header cannot force a large allocation.
func DecodeObjects(data []byte) ([]any, error) {
	n, err := objectCount(data)
	if err != nil {
		return nil, err
	}
	if n > (len(data)-4)/4 {
		return nil, ErrFormat
	}
	objs := make([]any, n)
	if _, err := unpackObjects(data, objs, 0, n, basicOf[Obj]); err != nil {
		return nil, err
	}
	return objs, nil
}

func unpackObjects(data []byte, s []any, offset, count int, t *Type) (int, error) {
	avail, err := objectCount(data)
	if err != nil {
		return 0, err
	}
	data = data[4:]
	capacity := count * len(t.disps)
	todo := avail
	if todo > capacity {
		todo = capacity
	}
	ext := t.Extent()
	done := 0
objLoop:
	for i := 0; i < count; i++ {
		base := offset + i*ext
		for _, d := range t.disps {
			if done == todo {
				break objLoop
			}
			if len(data) < 4 {
				return done, ErrFormat
			}
			n := int(binary.LittleEndian.Uint32(data))
			data = data[4:]
			if len(data) < n {
				return done, ErrFormat
			}
			v, err := DecodeObject(data[:n])
			if err != nil {
				return done, err
			}
			data = data[n:]
			s[base+d] = v
			done++
		}
	}
	if avail > capacity {
		return done, ErrTruncate
	}
	return done, nil
}
