package element

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Value implements encoding.BinaryAppender / BinaryUnmarshaler, so
// facts can be persisted in the WAL
// (internal/state) and segment frames (internal/state/segment) without
// a per-value allocation. The format is one kind byte followed by the
// payload: 8 bytes little endian for numeric kinds, a uvarint length
// plus bytes for strings.

// AppendBinary appends the value's binary encoding to b.
func (v Value) AppendBinary(b []byte) ([]byte, error) {
	switch v.kind {
	case KindNull:
		return append(b, byte(KindNull)), nil
	case KindBool, KindInt, KindTime:
		b = append(b, byte(v.kind))
		return binary.LittleEndian.AppendUint64(b, uint64(v.num)), nil
	case KindFloat:
		b = append(b, byte(v.kind))
		return binary.LittleEndian.AppendUint64(b, floatBits(v.flt)), nil
	case KindString:
		b = append(b, byte(v.kind))
		b = binary.AppendUvarint(b, uint64(len(v.str)))
		return append(b, v.str...), nil
	}
	return b, fmt.Errorf("element: cannot marshal value of kind %s", v.kind)
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (v *Value) UnmarshalBinary(data []byte) error {
	if len(data) == 0 {
		return errors.New("element: empty value encoding")
	}
	k := Kind(data[0])
	body := data[1:]
	switch k {
	case KindNull:
		*v = Null
		return nil
	case KindBool, KindInt, KindTime:
		if len(body) != 8 {
			return fmt.Errorf("element: %s payload has %d bytes, want 8", k, len(body))
		}
		*v = Value{kind: k, num: int64(binary.LittleEndian.Uint64(body))}
		return nil
	case KindFloat:
		if len(body) != 8 {
			return fmt.Errorf("element: float payload has %d bytes, want 8", len(body))
		}
		*v = Value{kind: k, flt: bitsFloat(binary.LittleEndian.Uint64(body))}
		return nil
	case KindString:
		n, read := binary.Uvarint(body)
		if read <= 0 || uint64(len(body)-read) != n {
			return errors.New("element: corrupt string encoding")
		}
		*v = Value{kind: k, str: string(body[read:])}
		return nil
	}
	return fmt.Errorf("element: unknown value kind %d", data[0])
}

func floatBits(f float64) uint64 { return math.Float64bits(f) }

func bitsFloat(u uint64) float64 { return math.Float64frombits(u) }
