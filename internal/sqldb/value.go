// Package sqldb is an embedded relational database engine with ACID
// semantics: the SQLite substitute of the paper's §3.2 state abstraction.
// It stores all data in a single database "file" accessed through a VFS
// layer (Fig. 3), uses a rollback journal for atomicity and durability,
// organizes rows in B+trees keyed by rowid, and exposes a SQL subset
// (CREATE/DROP TABLE, INSERT, SELECT, UPDATE, DELETE, BEGIN/COMMIT/
// ROLLBACK) sufficient for the paper's e-voting workload and well beyond.
//
// Mounted over the PBFT state region (package sqlstate), the VFS routes
// page writes through the region's modify notifications and sources time
// and randomness from the agreed non-determinism values, exactly the
// architecture of Fig. 3.
package sqldb

import (
	"fmt"
	"math"
	"strconv"
)

// Type identifies a column or value type.
type Type uint8

// Value types. NULL is the zero value's type.
const (
	TNull Type = iota
	TInt
	TReal
	TText
	TBlob
)

// String returns the SQL name of the type.
func (t Type) String() string {
	switch t {
	case TNull:
		return "NULL"
	case TInt:
		return "INTEGER"
	case TReal:
		return "REAL"
	case TText:
		return "TEXT"
	case TBlob:
		return "BLOB"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Value is one dynamically typed SQL value.
type Value struct {
	T    Type
	I    int64
	F    float64
	S    string
	Blob []byte
}

// Null returns the SQL NULL value.
func Null() Value { return Value{} }

// Int builds an INTEGER value.
func Int(v int64) Value { return Value{T: TInt, I: v} }

// Real builds a REAL value.
func Real(v float64) Value { return Value{T: TReal, F: v} }

// Text builds a TEXT value.
func Text(s string) Value { return Value{T: TText, S: s} }

// Bytes builds a BLOB value.
func Bytes(b []byte) Value { return Value{T: TBlob, Blob: b} }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.T == TNull }

// AsInt coerces the value to an integer (SQLite-style affinity).
func (v Value) AsInt() int64 {
	switch v.T {
	case TInt:
		return v.I
	case TReal:
		return int64(v.F)
	case TText:
		n, _ := strconv.ParseInt(v.S, 10, 64)
		return n
	default:
		return 0
	}
}

// AsReal coerces the value to a float.
func (v Value) AsReal() float64 {
	switch v.T {
	case TInt:
		return float64(v.I)
	case TReal:
		return v.F
	case TText:
		f, _ := strconv.ParseFloat(v.S, 64)
		return f
	default:
		return 0
	}
}

// AsText renders the value as text.
func (v Value) AsText() string {
	switch v.T {
	case TNull:
		return ""
	case TInt:
		return strconv.FormatInt(v.I, 10)
	case TReal:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case TText:
		return v.S
	case TBlob:
		return string(v.Blob)
	default:
		return ""
	}
}

// Truthy reports whether the value counts as true in a WHERE clause.
func (v Value) Truthy() bool {
	switch v.T {
	case TNull:
		return false
	case TInt:
		return v.I != 0
	case TReal:
		return v.F != 0
	case TText:
		return v.S != ""
	case TBlob:
		return len(v.Blob) > 0
	default:
		return false
	}
}

// Compare orders two values: NULL < numbers < text < blob, numbers by
// numeric value across INTEGER/REAL (SQLite's cross-type ordering).
func Compare(a, b Value) int {
	ra, rb := typeRank(a.T), typeRank(b.T)
	if ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	switch ra {
	case 0: // both NULL
		return 0
	case 1: // numeric
		fa, fb := a.AsReal(), b.AsReal()
		if a.T == TInt && b.T == TInt {
			switch {
			case a.I < b.I:
				return -1
			case a.I > b.I:
				return 1
			default:
				return 0
			}
		}
		switch {
		case fa < fb:
			return -1
		case fa > fb:
			return 1
		default:
			return 0
		}
	case 2: // text
		switch {
		case a.S < b.S:
			return -1
		case a.S > b.S:
			return 1
		default:
			return 0
		}
	default: // blob
		sa, sb := string(a.Blob), string(b.Blob)
		switch {
		case sa < sb:
			return -1
		case sa > sb:
			return 1
		default:
			return 0
		}
	}
}

func typeRank(t Type) int {
	switch t {
	case TNull:
		return 0
	case TInt, TReal:
		return 1
	case TText:
		return 2
	default:
		return 3
	}
}

// Equal reports value equality under Compare semantics, with NULL never
// equal to anything (including NULL), per SQL.
func Equal(a, b Value) bool {
	if a.IsNull() || b.IsNull() {
		return false
	}
	return Compare(a, b) == 0
}

// String renders the value for debugging.
func (v Value) String() string {
	switch v.T {
	case TNull:
		return "NULL"
	case TText:
		return strconv.Quote(v.S)
	case TBlob:
		return fmt.Sprintf("x'%x'", v.Blob)
	default:
		return v.AsText()
	}
}

// encodeValue appends the storage form of v.
func encodeValue(dst []byte, v Value) []byte {
	dst = append(dst, byte(v.T))
	switch v.T {
	case TNull:
	case TInt:
		dst = appendU64(dst, uint64(v.I))
	case TReal:
		dst = appendU64(dst, math.Float64bits(v.F))
	case TText:
		dst = appendU32(dst, uint32(len(v.S)))
		dst = append(dst, v.S...)
	case TBlob:
		dst = appendU32(dst, uint32(len(v.Blob)))
		dst = append(dst, v.Blob...)
	}
	return dst
}

// decodeValue parses one value, returning it and the bytes consumed.
func decodeValue(b []byte) (Value, int, error) {
	if len(b) < 1 {
		return Value{}, 0, fmt.Errorf("sqldb: truncated value")
	}
	t := Type(b[0])
	switch t {
	case TNull:
		return Value{}, 1, nil
	case TInt:
		if len(b) < 9 {
			return Value{}, 0, fmt.Errorf("sqldb: truncated integer")
		}
		return Int(int64(getU64(b[1:]))), 9, nil
	case TReal:
		if len(b) < 9 {
			return Value{}, 0, fmt.Errorf("sqldb: truncated real")
		}
		return Real(math.Float64frombits(getU64(b[1:]))), 9, nil
	case TText, TBlob:
		if len(b) < 5 {
			return Value{}, 0, fmt.Errorf("sqldb: truncated string header")
		}
		n := int(getU32(b[1:]))
		if len(b) < 5+n {
			return Value{}, 0, fmt.Errorf("sqldb: truncated string body")
		}
		if t == TText {
			return Text(string(b[5 : 5+n])), 5 + n, nil
		}
		blob := make([]byte, n)
		copy(blob, b[5:5+n])
		return Bytes(blob), 5 + n, nil
	default:
		return Value{}, 0, fmt.Errorf("sqldb: unknown value type %d", t)
	}
}

// EncodeRow serializes a row of values.
func EncodeRow(vals []Value) []byte {
	return appendRow(make([]byte, 0, rowSize(vals)), vals)
}

// appendRow appends the serialized row to dst.
func appendRow(dst []byte, vals []Value) []byte {
	dst = appendU32(dst, uint32(len(vals)))
	for _, v := range vals {
		dst = encodeValue(dst, v)
	}
	return dst
}

// rowSize is the length of the row's serialization.
func rowSize(vals []Value) int {
	n := 4
	for _, v := range vals {
		switch v.T {
		case TInt, TReal:
			n += 9
		case TText:
			n += 5 + len(v.S)
		case TBlob:
			n += 5 + len(v.Blob)
		default:
			n++
		}
	}
	return n
}

// DecodeRow parses a serialized row.
func DecodeRow(b []byte) ([]Value, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("sqldb: truncated row")
	}
	n := int(getU32(b))
	if n > len(b) {
		return nil, fmt.Errorf("sqldb: implausible row arity %d", n)
	}
	off := 4
	out := make([]Value, 0, n)
	for i := 0; i < n; i++ {
		v, sz, err := decodeValue(b[off:])
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		off += sz
	}
	return out, nil
}

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendU64(b []byte, v uint64) []byte {
	return append(b, byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32), byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func getU32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

func getU64(b []byte) uint64 {
	return uint64(getU32(b))<<32 | uint64(getU32(b[4:]))
}
