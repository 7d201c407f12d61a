package wire

import (
	"repro/internal/crypto"
)

// Request flag bits.
const (
	// FlagReadOnly marks requests the client asks to execute without
	// running agreement (§2.1, read-only optimization).
	FlagReadOnly uint8 = 1 << 0
	// FlagSystem marks middleware-internal requests (Join/Leave, §3.1);
	// they are ordered like application requests but never reach the
	// application's Execute upcall.
	FlagSystem uint8 = 1 << 1
	// FlagBig marks requests whose body was multicast directly to all
	// replicas by the client, so the primary forwards only a digest.
	FlagBig uint8 = 1 << 2
)

// Request is a client operation submitted for total ordering.
//
// A Request is not safe for concurrent use: Digest memoizes its result, so
// the identifying fields must not change after the first Digest call. The
// memo travels with value copies, letting the ingress pipeline compute big
// request digests once, off the protocol loop.
type Request struct {
	ClientID  uint32
	Timestamp uint64 // client-local, strictly increasing request identifier
	Flags     uint8
	Op        []byte

	digest    crypto.Digest // memoized Digest
	hasDigest bool
}

// ReadOnly reports whether the read-only flag is set.
func (m *Request) ReadOnly() bool { return m.Flags&FlagReadOnly != 0 }

// System reports whether the request is middleware-internal.
func (m *Request) System() bool { return m.Flags&FlagSystem != 0 }

// Big reports whether the request body was multicast by the client.
func (m *Request) Big() bool { return m.Flags&FlagBig != 0 }

// Digest returns the content digest identifying the request in agreement
// messages and batch digests. The result is memoized; see the Request
// concurrency note.
func (m *Request) Digest() crypto.Digest {
	if !m.hasDigest {
		w := GetWriter(16 + len(m.Op))
		w.U32(m.ClientID)
		w.U64(m.Timestamp)
		w.U8(m.Flags)
		w.Raw(m.Op)
		m.digest = crypto.DigestOf(w.Bytes())
		w.Free()
		m.hasDigest = true
	}
	return m.digest
}

// Encode appends the wire form to w.
func (m *Request) Encode(w *Writer) {
	w.U32(m.ClientID)
	w.U64(m.Timestamp)
	w.U8(m.Flags)
	w.Bytes32(m.Op)
}

// Decode parses the wire form from r.
func (m *Request) Decode(r *Reader) {
	m.ClientID = r.U32()
	m.Timestamp = r.U64()
	m.Flags = r.U8()
	m.Op = r.Bytes32()
}

// Marshal returns the standalone wire form.
func (m *Request) Marshal() []byte {
	w := NewWriter(32 + len(m.Op))
	m.Encode(w)
	return w.Bytes()
}

// UnmarshalRequest parses a standalone Request.
func UnmarshalRequest(b []byte) (*Request, error) {
	r := NewReader(b)
	var m Request
	m.Decode(r)
	if err := r.Done(); err != nil {
		return nil, err
	}
	return &m, nil
}

// Reply flag bits.
const (
	// FlagTentative marks replies produced by tentative execution
	// (before commit); clients need 2f+1 of these instead of f+1.
	FlagTentative uint8 = 1 << 0
)

// Reply is a replica's response to an executed request.
type Reply struct {
	View      uint64
	Timestamp uint64
	ClientID  uint32
	Replica   uint32
	Flags     uint8
	Result    []byte
}

// Tentative reports whether the reply is from tentative execution.
func (m *Reply) Tentative() bool { return m.Flags&FlagTentative != 0 }

// Encode appends the wire form to w.
func (m *Reply) Encode(w *Writer) {
	w.U64(m.View)
	w.U64(m.Timestamp)
	w.U32(m.ClientID)
	w.U32(m.Replica)
	w.U8(m.Flags)
	w.Bytes32(m.Result)
}

// Decode parses the wire form from r.
func (m *Reply) Decode(r *Reader) {
	m.View = r.U64()
	m.Timestamp = r.U64()
	m.ClientID = r.U32()
	m.Replica = r.U32()
	m.Flags = r.U8()
	m.Result = r.Bytes32()
}

// Marshal returns the standalone wire form.
func (m *Reply) Marshal() []byte {
	w := NewWriter(40 + len(m.Result))
	m.Encode(w)
	return w.Bytes()
}

// UnmarshalReply parses a standalone Reply.
func UnmarshalReply(b []byte) (*Reply, error) {
	r := NewReader(b)
	var m Reply
	m.Decode(r)
	if err := r.Done(); err != nil {
		return nil, err
	}
	return &m, nil
}

// replyFixedSize is the length of a Reply's wire form without its Result:
// View, Timestamp, ClientID, Replica, Flags and the Result length prefix.
const replyFixedSize = 8 + 8 + 4 + 4 + 1 + 4

// EncodedSize returns the length of the Reply's wire form.
func (m *Reply) EncodedSize() int { return replyFixedSize + len(m.Result) }

// An MTReply payload is a reply list: a 4-byte count, then that many Reply
// records. A replica's signed replies to one client from one execution
// span travel as one list under one signature; every other reply is a
// list of one.

// ReplyListHeaderSize is the length of a reply list's count prefix.
const ReplyListHeaderSize = 4

// BeginReplyList starts a reply list of n records in w; the caller then
// encodes exactly n replies with Reply.Encode.
func BeginReplyList(w *Writer, n int) { w.U32(uint32(n)) }

// MarshalReplyList returns the reply list carrying reps, in order.
func MarshalReplyList(reps ...*Reply) []byte {
	size := ReplyListHeaderSize
	for _, rep := range reps {
		size += rep.EncodedSize()
	}
	w := NewWriter(size)
	BeginReplyList(w, len(reps))
	for _, rep := range reps {
		rep.Encode(w)
	}
	return w.Bytes()
}

// UnmarshalReplyList parses a reply list. Every Result is a copy, so the
// replies outlive b. A count the remaining bytes cannot hold is rejected
// before anything is allocated for it.
func UnmarshalReplyList(b []byte) ([]Reply, error) {
	r := NewReader(b)
	n := int(r.U32())
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n > r.Remaining()/replyFixedSize {
		return nil, ErrTruncated
	}
	reps := make([]Reply, n)
	for i := range reps {
		reps[i].Decode(r)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return reps, nil
}

// BatchEntry is one request inside a pre-prepare. For "big" requests the
// primary forwards only identifying metadata plus the digest; otherwise it
// embeds the full request body.
type BatchEntry struct {
	Full      bool
	Req       Request // set when Full
	ClientID  uint32  // the following identify the request when !Full
	Timestamp uint64
	Digest    crypto.Digest
}

// RequestDigest returns the digest of the underlying request regardless of
// whether the body is embedded.
func (e *BatchEntry) RequestDigest() crypto.Digest {
	if e.Full {
		return e.Req.Digest()
	}
	return e.Digest
}

// RequestID returns the (client, timestamp) pair identifying the request.
func (e *BatchEntry) RequestID() (uint32, uint64) {
	if e.Full {
		return e.Req.ClientID, e.Req.Timestamp
	}
	return e.ClientID, e.Timestamp
}

func (e *BatchEntry) encode(w *Writer) {
	if e.Full {
		w.U8(1)
		e.Req.Encode(w)
		return
	}
	w.U8(0)
	w.U32(e.ClientID)
	w.U64(e.Timestamp)
	w.Raw(e.Digest[:])
}

func (e *BatchEntry) decode(r *Reader) {
	switch r.U8() {
	case 1:
		e.Full = true
		e.Req.Decode(r)
	default:
		e.Full = false
		e.ClientID = r.U32()
		e.Timestamp = r.U64()
		r.Fixed(e.Digest[:])
	}
}

// PrePrepare is the primary's sequence-number assignment for a batch of
// requests, carrying the non-deterministic choices for their execution.
//
// A PrePrepare is not safe for concurrent use: BatchDigest memoizes its
// result, so NonDet and Entries must not change after the first
// BatchDigest call.
type PrePrepare struct {
	View    uint64
	Seq     uint64
	NonDet  []byte
	Entries []BatchEntry

	batchDigest    crypto.Digest // memoized BatchDigest
	hasBatchDigest bool
}

// BatchDigest returns the digest that prepares and commits agree on: the
// digest of the sequence of request digests plus the non-deterministic
// payload. The result is memoized; see the PrePrepare concurrency note.
func (m *PrePrepare) BatchDigest() crypto.Digest {
	if !m.hasBatchDigest {
		w := GetWriter(len(m.Entries)*crypto.DigestSize + len(m.NonDet) + 8)
		w.Bytes32(m.NonDet)
		for i := range m.Entries {
			d := m.Entries[i].RequestDigest()
			w.Raw(d[:])
		}
		m.batchDigest = crypto.DigestOf(w.Bytes())
		w.Free()
		m.hasBatchDigest = true
	}
	return m.batchDigest
}

// Encode appends the wire form to w.
func (m *PrePrepare) Encode(w *Writer) {
	w.U64(m.View)
	w.U64(m.Seq)
	w.Bytes32(m.NonDet)
	w.U32(uint32(len(m.Entries)))
	for i := range m.Entries {
		m.Entries[i].encode(w)
	}
}

// Decode parses the wire form from r.
func (m *PrePrepare) Decode(r *Reader) {
	m.View = r.U64()
	m.Seq = r.U64()
	m.NonDet = r.Bytes32()
	n := int(r.U32())
	if r.Err() != nil {
		return
	}
	if n > maxFieldLen/8 {
		r.err = ErrOversized
		return
	}
	if n > 0 {
		m.Entries = make([]BatchEntry, 0, n)
	}
	for i := 0; i < n && r.Err() == nil; i++ {
		var e BatchEntry
		e.decode(r)
		m.Entries = append(m.Entries, e)
	}
}

// Marshal returns the standalone wire form.
func (m *PrePrepare) Marshal() []byte {
	w := NewWriter(64)
	m.Encode(w)
	return w.Bytes()
}

// UnmarshalPrePrepare parses a standalone PrePrepare.
func UnmarshalPrePrepare(b []byte) (*PrePrepare, error) {
	r := NewReader(b)
	var m PrePrepare
	m.Decode(r)
	if err := r.Done(); err != nil {
		return nil, err
	}
	return &m, nil
}

// Prepare is a backup's agreement to the primary's sequence assignment.
type Prepare struct {
	View    uint64
	Seq     uint64
	Digest  crypto.Digest
	Replica uint32
}

// Encode appends the wire form to w.
func (m *Prepare) Encode(w *Writer) {
	w.U64(m.View)
	w.U64(m.Seq)
	w.Raw(m.Digest[:])
	w.U32(m.Replica)
}

// Decode parses the wire form from r.
func (m *Prepare) Decode(r *Reader) {
	m.View = r.U64()
	m.Seq = r.U64()
	r.Fixed(m.Digest[:])
	m.Replica = r.U32()
}

// Marshal returns the standalone wire form.
func (m *Prepare) Marshal() []byte {
	w := NewWriter(52)
	m.Encode(w)
	return w.Bytes()
}

// UnmarshalPrepare parses a standalone Prepare.
func UnmarshalPrepare(b []byte) (*Prepare, error) {
	r := NewReader(b)
	var m Prepare
	m.Decode(r)
	if err := r.Done(); err != nil {
		return nil, err
	}
	return &m, nil
}

// Commit certifies total order across views for a sequence number.
type Commit struct {
	View    uint64
	Seq     uint64
	Digest  crypto.Digest
	Replica uint32
}

// Encode appends the wire form to w.
func (m *Commit) Encode(w *Writer) {
	w.U64(m.View)
	w.U64(m.Seq)
	w.Raw(m.Digest[:])
	w.U32(m.Replica)
}

// Decode parses the wire form from r.
func (m *Commit) Decode(r *Reader) {
	m.View = r.U64()
	m.Seq = r.U64()
	r.Fixed(m.Digest[:])
	m.Replica = r.U32()
}

// Marshal returns the standalone wire form.
func (m *Commit) Marshal() []byte {
	w := NewWriter(52)
	m.Encode(w)
	return w.Bytes()
}

// UnmarshalCommit parses a standalone Commit.
func UnmarshalCommit(b []byte) (*Commit, error) {
	r := NewReader(b)
	var m Commit
	m.Decode(r)
	if err := r.Done(); err != nil {
		return nil, err
	}
	return &m, nil
}

// Checkpoint announces the digest of a replica's state after executing all
// requests up to and including Seq. StateDigest is the composite digest
// replicas agree on; Root and MetaDigest are its two inputs (the state
// region's Merkle root and the digest of the middleware metadata blob:
// reply cache, client table, membership), carried so a lagging replica can
// verify both halves of a state transfer against the agreed StateDigest.
type Checkpoint struct {
	Seq         uint64
	StateDigest crypto.Digest
	Root        crypto.Digest
	MetaDigest  crypto.Digest
	Replica     uint32
}

// CompositeStateDigest combines a region root and a metadata digest into
// the digest checkpoint agreement runs on.
func CompositeStateDigest(root, meta crypto.Digest) crypto.Digest {
	return crypto.DigestOf(root[:], meta[:])
}

// Consistent reports whether StateDigest matches its claimed components.
func (m *Checkpoint) Consistent() bool {
	return m.StateDigest == CompositeStateDigest(m.Root, m.MetaDigest)
}

// Encode appends the wire form to w.
func (m *Checkpoint) Encode(w *Writer) {
	w.U64(m.Seq)
	w.Raw(m.StateDigest[:])
	w.Raw(m.Root[:])
	w.Raw(m.MetaDigest[:])
	w.U32(m.Replica)
}

// Decode parses the wire form from r.
func (m *Checkpoint) Decode(r *Reader) {
	m.Seq = r.U64()
	r.Fixed(m.StateDigest[:])
	r.Fixed(m.Root[:])
	r.Fixed(m.MetaDigest[:])
	m.Replica = r.U32()
}

// Marshal returns the standalone wire form.
func (m *Checkpoint) Marshal() []byte {
	w := NewWriter(108)
	m.Encode(w)
	return w.Bytes()
}

// UnmarshalCheckpoint parses a standalone Checkpoint.
func UnmarshalCheckpoint(b []byte) (*Checkpoint, error) {
	r := NewReader(b)
	var m Checkpoint
	m.Decode(r)
	if err := r.Done(); err != nil {
		return nil, err
	}
	return &m, nil
}
