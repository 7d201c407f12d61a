package wire

import (
	"fmt"

	"repro/internal/crypto"
)

// AuthKind says how an Envelope is authenticated.
type AuthKind uint8

// Authentication kinds.
const (
	// AuthNone marks unauthenticated envelopes (only used for messages
	// whose payload carries its own proof, e.g. state pages verified
	// against an agreed Merkle root).
	AuthNone AuthKind = 0
	// AuthSig marks envelopes signed with the sender's private key.
	AuthSig AuthKind = 1
	// AuthMAC marks envelopes carrying an authenticator (one MAC per
	// replica) — the optimization of §2.1 of the paper.
	AuthMAC AuthKind = 2
)

// Envelope frames every message on the wire: type, sender identity, opaque
// payload, and the authentication trailer.
//
// An Envelope is not safe for concurrent use: Raw memoizes the marshaled
// form, so no field may change after the first Raw call. The pipeline
// stages rely on single ownership: a verifier worker decodes and
// authenticates an envelope before handing it to the protocol loop, and
// egress paths seal an envelope completely before broadcasting its Raw
// form.
//
// Memory discipline: a decoded Envelope's Payload aliases the raw input
// buffer (no copy), so the envelope and its payload live exactly as long
// as the buffer. A marshaled envelope's Raw form comes from the buffer
// arena; egress paths that do not retain it (agreement votes, status
// gossip, replies) release it after the send with ReleaseRaw.
type Envelope struct {
	Type   MsgType
	Sender uint32
	// Payload is the marshaled message body. On decoded envelopes it is a
	// sub-slice of the raw wire form, not a copy.
	Payload []byte
	// Kind selects which trailer field is meaningful.
	Kind AuthKind
	// Sig is the signature over SignedBytes when Kind == AuthSig.
	Sig []byte
	// Auth is the authenticator over SignedBytes when Kind == AuthMAC.
	Auth crypto.Authenticator

	raw       []byte // memoized Marshal (via Raw)
	rawPooled bool   // raw came from the buffer arena (ReleaseRaw eligible)
}

// signedSize is the length of the byte string covered by the signature or
// authenticator.
func (e *Envelope) signedSize() int { return 5 + len(e.Payload) }

// appendSigned appends the covered byte string: type, sender, payload.
func (e *Envelope) appendSigned(dst []byte) []byte {
	dst = append(dst, uint8(e.Type))
	dst = append(dst, byte(e.Sender>>24), byte(e.Sender>>16), byte(e.Sender>>8), byte(e.Sender))
	return append(dst, e.Payload...)
}

// SignedBytes returns the byte string covered by the signature or
// authenticator: type, sender, and payload. The slice is freshly
// allocated; the pooled Seal*/Verify* methods below avoid that on the hot
// path.
func (e *Envelope) SignedBytes() []byte {
	return e.appendSigned(make([]byte, 0, e.signedSize()))
}

// withSignedBytes runs f over the covered byte string built in a pooled
// scratch buffer. f must not retain the slice.
func (e *Envelope) withSignedBytes(f func(msg []byte) bool) bool {
	w := GetWriter(e.signedSize())
	w.AppendWith(e.appendSigned)
	ok := f(w.Bytes())
	w.Free()
	return ok
}

// SealMAC authenticates the envelope with one MAC per session key
// (Kind = AuthMAC), building the covered bytes in pooled scratch.
func (e *Envelope) SealMAC(keys []crypto.SessionKey) {
	e.Kind = AuthMAC
	e.withSignedBytes(func(msg []byte) bool {
		e.Auth = crypto.ComputeAuthenticator(keys, msg)
		return true
	})
}

// SealMAC1 is SealMAC for the single-receiver case (replies to one
// client): one tag, no key-slice detour.
func (e *Envelope) SealMAC1(key crypto.SessionKey) {
	e.Kind = AuthMAC
	e.withSignedBytes(func(msg []byte) bool {
		e.Auth = crypto.Authenticator{Tags: []crypto.MAC{key.MAC(msg)}}
		return true
	})
}

// SealSig authenticates the envelope with a signature by kp
// (Kind = AuthSig), building the covered bytes in pooled scratch.
func (e *Envelope) SealSig(kp *crypto.KeyPair) {
	e.Kind = AuthSig
	e.withSignedBytes(func(msg []byte) bool {
		e.Sig = kp.Sign(msg)
		return true
	})
}

// VerifyMACEntry checks the authenticator entry for receiver id under key,
// building the covered bytes in pooled scratch.
func (e *Envelope) VerifyMACEntry(id int, key crypto.SessionKey) bool {
	return e.withSignedBytes(func(msg []byte) bool {
		return e.Auth.VerifyEntry(id, key, msg)
	})
}

// VerifySig checks the envelope signature under pub, building the covered
// bytes in pooled scratch.
func (e *Envelope) VerifySig(pub crypto.PublicKey) bool {
	return e.withSignedBytes(func(msg []byte) bool {
		return crypto.Verify(pub, msg, e.Sig)
	})
}

// Raw returns the memoized wire form of a fully sealed envelope. Egress
// paths use it to marshal-and-authenticate once and fan the same byte
// slice out to every destination; callers must not mutate the envelope
// (or the returned slice) afterwards. The buffer comes from the arena;
// egress paths that do not retain it call ReleaseRaw after the send.
func (e *Envelope) Raw() []byte {
	if e.raw == nil {
		w := GetWriter(e.marshaledSize())
		e.encode(w)
		e.raw = w.Detach()
		e.rawPooled = true
	}
	return e.raw
}

// ReleaseRaw returns the memoized wire form to the buffer arena. Only
// valid when the envelope and every alias of Raw's result are dead to the
// caller: transports consume the bytes before Send/Broadcast return, so
// the idiomatic sequence is seal → send → ReleaseRaw. Decoded envelopes
// (whose raw is the receive buffer, owned by the transport) are a no-op.
func (e *Envelope) ReleaseRaw() {
	if e.rawPooled {
		PutBuf(e.raw)
		e.raw = nil
		e.rawPooled = false
	}
}

// marshaledSize bounds the envelope's wire form.
func (e *Envelope) marshaledSize() int {
	return 16 + len(e.Payload) + len(e.Sig) + e.Auth.MarshaledSize()
}

// encode writes the wire form into w.
func (e *Envelope) encode(w *Writer) {
	w.U8(uint8(e.Type))
	w.U32(e.Sender)
	w.Bytes32(e.Payload)
	w.U8(uint8(e.Kind))
	switch e.Kind {
	case AuthSig:
		w.Bytes32(e.Sig)
	case AuthMAC:
		w.AppendWith(e.Auth.AppendMarshal)
	}
}

// Marshal flattens the envelope for transmission.
func (e *Envelope) Marshal() []byte {
	w := NewWriter(e.marshaledSize())
	e.encode(w)
	return w.Bytes()
}

// UnmarshalEnvelope parses a transmitted envelope. The envelope's Payload
// (and memoized raw form) alias b: the caller must keep b alive and
// unmodified for as long as the envelope or anything decoded by reference
// from it is in use.
func UnmarshalEnvelope(b []byte) (*Envelope, error) {
	e := new(Envelope)
	if err := UnmarshalEnvelopeInto(e, b); err != nil {
		return nil, err
	}
	return e, nil
}

// Reset clears the envelope for reuse, keeping the Auth.Tags backing
// array so a following UnmarshalEnvelopeInto decodes without allocating.
// The caller must own the envelope exclusively (nothing may still alias
// its previous contents).
func (e *Envelope) Reset() {
	tags := e.Auth.Tags[:0]
	*e = Envelope{}
	e.Auth.Tags = tags
}

// UnmarshalEnvelopeInto is UnmarshalEnvelope decoding into a caller-owned
// (typically pooled) envelope: no Envelope and no Auth.Tags allocation in
// steady state. On error the envelope is left reset. The same aliasing
// contract applies: Payload, Sig and the memoized raw form alias b.
func UnmarshalEnvelopeInto(e *Envelope, b []byte) error {
	e.Reset()
	r := NewReader(b)
	e.Type = MsgType(r.U8())
	e.Sender = r.U32()
	e.Payload = r.Bytes32Ref()
	e.Kind = AuthKind(r.U8())
	switch e.Kind {
	case AuthNone:
	case AuthSig:
		e.Sig = r.Bytes32Ref()
	case AuthMAC:
		if r.Err() == nil {
			n, ok := crypto.UnmarshalAuthenticatorInto(&e.Auth, b[r.Offset():])
			if !ok {
				e.Reset()
				return ErrTruncated
			}
			r.Skip(n)
		}
	default:
		kind := e.Kind
		e.Reset()
		return fmt.Errorf("wire: unknown auth kind %d", kind)
	}
	if err := r.Done(); err != nil {
		e.Reset()
		return err
	}
	if e.Type == MTInvalid || e.Type >= mtLimit {
		t := e.Type
		e.Reset()
		return fmt.Errorf("wire: unknown message type %d", t)
	}
	// The input buffer IS the wire form; callers that relay or store the
	// envelope (Raw) reuse it instead of re-marshaling.
	e.raw = b
	return nil
}
