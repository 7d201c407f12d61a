// Package wire defines the binary wire format for every message exchanged
// by the PBFT middleware: client requests and replies, the three-phase
// agreement messages, checkpointing, view changes, state transfer, and the
// dynamic-membership extension of the paper (§3.1).
//
// All messages travel inside an Envelope that carries the message type, the
// sender identity and an authentication trailer (a signature, an
// authenticator of per-replica MACs, or nothing). Encoding is explicit
// big-endian with length prefixes; there is no reflection and no external
// dependency.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// MsgType identifies the kind of protocol message inside an Envelope.
type MsgType uint8

// Message types. The numbering is part of the wire format.
const (
	MTInvalid      MsgType = 0
	MTRequest      MsgType = 1
	MTReply        MsgType = 2
	MTPrePrepare   MsgType = 3
	MTPrepare      MsgType = 4
	MTCommit       MsgType = 5
	MTCheckpoint   MsgType = 6
	MTViewChange   MsgType = 7
	MTNewView      MsgType = 8
	MTJoinChall    MsgType = 9
	MTSessionHello MsgType = 10
	MTFetch        MsgType = 11
	MTStateNode    MsgType = 12
	MTStatePage    MsgType = 13
	MTStatus       MsgType = 14

	// mtLimit is one past the highest defined type; the envelope decoder
	// rejects it and everything above. A new type takes its number and
	// moves it up.
	mtLimit MsgType = 15
)

// String returns the conventional PBFT name of the message type.
func (t MsgType) String() string {
	switch t {
	case MTRequest:
		return "request"
	case MTReply:
		return "reply"
	case MTPrePrepare:
		return "pre-prepare"
	case MTPrepare:
		return "prepare"
	case MTCommit:
		return "commit"
	case MTCheckpoint:
		return "checkpoint"
	case MTViewChange:
		return "view-change"
	case MTNewView:
		return "new-view"
	case MTJoinChall:
		return "join-challenge"
	case MTSessionHello:
		return "session-hello"
	case MTFetch:
		return "fetch"
	case MTStateNode:
		return "state-node"
	case MTStatePage:
		return "state-page"
	case MTStatus:
		return "status"
	default:
		return fmt.Sprintf("msgtype(%d)", uint8(t))
	}
}

// ErrTruncated is returned when a buffer ends before a complete message.
var ErrTruncated = errors.New("wire: truncated message")

// ErrOversized is returned when a length prefix exceeds sane bounds.
var ErrOversized = errors.New("wire: oversized field")

// maxFieldLen bounds any single variable-length field. It protects decoders
// from hostile length prefixes; legitimate messages (state pages, batched
// requests) stay well under it.
const maxFieldLen = 16 << 20

// Writer is an append-only encoder. Methods never fail; the caller takes
// the accumulated buffer with Bytes.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer with the given initial capacity hint.
func NewWriter(capacity int) *Writer {
	return &Writer{buf: make([]byte, 0, capacity)}
}

// Bytes returns the encoded buffer.
func (w *Writer) Bytes() []byte { return w.buf }

// U8 appends a byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// U16 appends a big-endian uint16.
func (w *Writer) U16(v uint16) { w.buf = binary.BigEndian.AppendUint16(w.buf, v) }

// U32 appends a big-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }

// U64 appends a big-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }

// Bytes32 appends a 4-byte length prefix followed by b.
func (w *Writer) Bytes32(b []byte) {
	if len(b) > math.MaxUint32 {
		panic("wire: field too large")
	}
	w.U32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// String32 appends a length-prefixed string.
func (w *Writer) String32(s string) { w.Bytes32([]byte(s)) }

// Raw appends b with no prefix.
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// AppendWith hands the accumulated buffer to f, which appends to it and
// returns the result (the append-style idiom). It lets encoders outside
// this package (crypto.Authenticator) write into the Writer without an
// intermediate allocation.
func (w *Writer) AppendWith(f func([]byte) []byte) { w.buf = f(w.buf) }

// Reader is a sticky-error decoder over a byte slice.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Offset returns the number of bytes consumed so far.
func (r *Reader) Offset() int { return r.off }

// Done returns nil only if the reader consumed the whole buffer cleanly.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("wire: %d trailing bytes", len(r.buf)-r.off)
	}
	return nil
}

func (r *Reader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if len(r.buf)-r.off < n {
		r.err = ErrTruncated
		return false
	}
	return true
}

// U8 reads a byte.
func (r *Reader) U8() uint8 {
	if !r.need(1) {
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

// U16 reads a big-endian uint16.
func (r *Reader) U16() uint16 {
	if !r.need(2) {
		return 0
	}
	v := binary.BigEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.BigEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// Bytes32 reads a 4-byte length prefix and the following bytes. The result
// is a copy, safe to retain after the underlying buffer is reused.
func (r *Reader) Bytes32() []byte {
	n := int(r.U32())
	if r.err != nil {
		return nil
	}
	if n > maxFieldLen {
		r.err = ErrOversized
		return nil
	}
	if n == 0 {
		return nil
	}
	if !r.need(n) {
		return nil
	}
	out := make([]byte, n)
	copy(out, r.buf[r.off:])
	r.off += n
	return out
}

// String32 reads a length-prefixed string.
func (r *Reader) String32() string { return string(r.Bytes32()) }

// Bytes32Ref reads a 4-byte length prefix and returns the following bytes
// as a sub-slice of the underlying buffer — no copy. The result is only
// valid while the underlying buffer is; callers that retain it must own
// the buffer for at least as long (the envelope decoder does: an Envelope
// retains its raw wire form anyway).
func (r *Reader) Bytes32Ref() []byte {
	n := int(r.U32())
	if r.err != nil {
		return nil
	}
	if n > maxFieldLen {
		r.err = ErrOversized
		return nil
	}
	if n == 0 {
		return nil
	}
	if !r.need(n) {
		return nil
	}
	out := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return out
}

// Skip advances the reader past n bytes without reading them.
func (r *Reader) Skip(n int) {
	if n < 0 {
		if r.err == nil {
			r.err = ErrTruncated
		}
		return
	}
	if !r.need(n) {
		return
	}
	r.off += n
}

// Fixed reads exactly n bytes into dst.
func (r *Reader) Fixed(dst []byte) {
	if !r.need(len(dst)) {
		return
	}
	copy(dst, r.buf[r.off:])
	r.off += len(dst)
}
