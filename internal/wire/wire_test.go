package wire

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/crypto"
)

func TestRequestRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		req  Request
	}{
		{"empty op", Request{ClientID: 4, Timestamp: 1}},
		{"flags", Request{ClientID: 9, Timestamp: 77, Flags: FlagReadOnly | FlagBig, Op: []byte("get x")}},
		{"system", Request{ClientID: 1, Timestamp: 2, Flags: FlagSystem, Op: []byte{OpLeave}}},
		{"large op", Request{ClientID: 2, Timestamp: 3, Op: bytes.Repeat([]byte("v"), 4096)}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := UnmarshalRequest(tt.req.Marshal())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(*got, tt.req) {
				t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", *got, tt.req)
			}
			if got.Digest() != tt.req.Digest() {
				t.Fatal("digest must be stable across round trip")
			}
		})
	}
}

func TestRequestFlagAccessors(t *testing.T) {
	r := Request{Flags: FlagReadOnly}
	if !r.ReadOnly() || r.System() || r.Big() {
		t.Fatalf("flag accessors wrong for %08b", r.Flags)
	}
	r = Request{Flags: FlagSystem | FlagBig}
	if r.ReadOnly() || !r.System() || !r.Big() {
		t.Fatalf("flag accessors wrong for %08b", r.Flags)
	}
}

func TestRequestDigestDistinguishesFields(t *testing.T) {
	base := Request{ClientID: 1, Timestamp: 2, Flags: 0, Op: []byte("op")}
	variants := []Request{
		{ClientID: 2, Timestamp: 2, Flags: 0, Op: []byte("op")},
		{ClientID: 1, Timestamp: 3, Flags: 0, Op: []byte("op")},
		{ClientID: 1, Timestamp: 2, Flags: FlagReadOnly, Op: []byte("op")},
		{ClientID: 1, Timestamp: 2, Flags: 0, Op: []byte("oq")},
	}
	for i, v := range variants {
		if v.Digest() == base.Digest() {
			t.Fatalf("variant %d must have a different digest", i)
		}
	}
}

func TestReplyRoundTrip(t *testing.T) {
	m := Reply{View: 3, Timestamp: 9, ClientID: 12, Replica: 2, Flags: FlagTentative, Result: []byte("ok")}
	got, err := UnmarshalReply(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*got, m) {
		t.Fatalf("round trip mismatch: got %+v want %+v", *got, m)
	}
	if !got.Tentative() {
		t.Fatal("tentative flag lost")
	}
}

// TestReplyListRoundTrip: a reply list is a count followed by the replies'
// standalone wire forms, unchanged — the checkpoint metadata's canonical
// reply form is built from Reply.Marshal, so a list must not alter it.
func TestReplyListRoundTrip(t *testing.T) {
	a := Reply{View: 3, Timestamp: 9, ClientID: 12, Replica: 2, Flags: FlagTentative, Result: []byte("ok")}
	b := Reply{View: 3, Timestamp: 10, ClientID: 12, Replica: 2}
	one := MarshalReplyList(&a)
	if want := append([]byte{0, 0, 0, 1}, a.Marshal()...); !bytes.Equal(one, want) {
		t.Fatalf("list of one = %x, want count 1 + Reply.Marshal = %x", one, want)
	}
	if a.EncodedSize() != len(a.Marshal()) {
		t.Fatalf("EncodedSize %d, Marshal %d bytes", a.EncodedSize(), len(a.Marshal()))
	}
	for _, reps := range [][]*Reply{{}, {&a}, {&a, &b}, {&b, &a, &b}} {
		got, err := UnmarshalReplyList(MarshalReplyList(reps...))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(reps) {
			t.Fatalf("%d replies back, want %d", len(got), len(reps))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], *reps[i]) {
				t.Fatalf("reply %d: got %+v want %+v", i, got[i], *reps[i])
			}
		}
	}
	two := MarshalReplyList(&a, &b)
	for i := 0; i < len(two); i++ {
		if _, err := UnmarshalReplyList(two[:i]); err == nil {
			t.Fatalf("truncation to %d bytes must fail", i)
		}
	}
	if _, err := UnmarshalReplyList(append(two, 0)); err == nil {
		t.Fatal("trailing bytes must fail")
	}
}

// TestMsgTypesDecodeAndName: every defined message type survives an
// envelope round trip and has a name, and the first number above them is
// rejected and unnamed — so a type added without moving the decoder's
// bound fails here instead of being dropped on the wire.
func TestMsgTypesDecodeAndName(t *testing.T) {
	for mt := MTRequest; mt < mtLimit; mt++ {
		raw := (&Envelope{Type: mt, Sender: 1, Payload: []byte("p"), Kind: AuthNone}).Marshal()
		got, err := UnmarshalEnvelope(raw)
		if err != nil || got.Type != mt {
			t.Fatalf("type %d: decoded %+v, err %v", mt, got, err)
		}
		if name := mt.String(); strings.HasPrefix(name, "msgtype(") {
			t.Fatalf("type %d has no name (%s)", mt, name)
		}
	}
	if name := mtLimit.String(); !strings.HasPrefix(name, "msgtype(") {
		t.Fatalf("type %d is named %q but lies at the decoder's bound", mtLimit, name)
	}
	raw := (&Envelope{Type: mtLimit, Sender: 1, Kind: AuthNone}).Marshal()
	if _, err := UnmarshalEnvelope(raw); err == nil {
		t.Fatalf("type %d must be rejected", mtLimit)
	}
}

func TestPrePrepareRoundTrip(t *testing.T) {
	full := Request{ClientID: 7, Timestamp: 11, Op: []byte("write a=1")}
	m := PrePrepare{
		View:   2,
		Seq:    100,
		NonDet: (&NonDet{Time: 123456789}).Marshal(),
		Entries: []BatchEntry{
			{Full: true, Req: full},
			{Full: false, ClientID: 8, Timestamp: 12, Digest: crypto.DigestOf([]byte("big body"))},
		},
	}
	got, err := UnmarshalPrePrepare(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*got, m) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", *got, m)
	}
	if got.BatchDigest() != m.BatchDigest() {
		t.Fatal("batch digest must be stable across round trip")
	}
}

func TestBatchDigestDependsOnNonDetAndOrder(t *testing.T) {
	e1 := BatchEntry{Full: true, Req: Request{ClientID: 1, Timestamp: 1, Op: []byte("a")}}
	e2 := BatchEntry{Full: true, Req: Request{ClientID: 2, Timestamp: 1, Op: []byte("b")}}
	a := PrePrepare{View: 1, Seq: 1, Entries: []BatchEntry{e1, e2}}
	b := PrePrepare{View: 1, Seq: 1, Entries: []BatchEntry{e2, e1}}
	if a.BatchDigest() == b.BatchDigest() {
		t.Fatal("batch digest must depend on request order")
	}
	c := PrePrepare{View: 1, Seq: 1, NonDet: []byte{1}, Entries: []BatchEntry{e1, e2}}
	if a.BatchDigest() == c.BatchDigest() {
		t.Fatal("batch digest must depend on the non-deterministic payload")
	}
}

func TestBatchEntryDigestAgreesAcrossForms(t *testing.T) {
	req := Request{ClientID: 5, Timestamp: 6, Flags: FlagBig, Op: []byte("payload")}
	full := BatchEntry{Full: true, Req: req}
	thin := BatchEntry{ClientID: 5, Timestamp: 6, Digest: req.Digest()}
	if full.RequestDigest() != thin.RequestDigest() {
		t.Fatal("digest-only and full entries must agree on the request digest")
	}
	c1, t1 := full.RequestID()
	c2, t2 := thin.RequestID()
	if c1 != c2 || t1 != t2 {
		t.Fatal("request identity must agree across entry forms")
	}
}

func TestPrepareCommitCheckpointRoundTrip(t *testing.T) {
	d := crypto.DigestOf([]byte("batch"))
	p := Prepare{View: 1, Seq: 2, Digest: d, Replica: 3}
	gp, err := UnmarshalPrepare(p.Marshal())
	if err != nil || !reflect.DeepEqual(*gp, p) {
		t.Fatalf("prepare round trip: %v %+v", err, gp)
	}
	c := Commit{View: 1, Seq: 2, Digest: d, Replica: 3}
	gc, err := UnmarshalCommit(c.Marshal())
	if err != nil || !reflect.DeepEqual(*gc, c) {
		t.Fatalf("commit round trip: %v %+v", err, gc)
	}
	ck := Checkpoint{Seq: 128, StateDigest: d, Replica: 1}
	gck, err := UnmarshalCheckpoint(ck.Marshal())
	if err != nil || !reflect.DeepEqual(*gck, ck) {
		t.Fatalf("checkpoint round trip: %v %+v", err, gck)
	}
}

func TestViewChangeRoundTrip(t *testing.T) {
	m := ViewChange{
		NewView:      4,
		LastStable:   256,
		StableDigest: crypto.DigestOf([]byte("state")),
		Prepared: []PreparedInfo{
			{Seq: 257, View: 3, Digest: crypto.DigestOf([]byte("b1"))},
			{Seq: 258, View: 2, Digest: crypto.DigestOf([]byte("b2"))},
		},
		Replica: 2,
	}
	got, err := UnmarshalViewChange(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*got, m) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", *got, m)
	}
}

func TestNewViewRoundTrip(t *testing.T) {
	vc := ViewChange{NewView: 2, Replica: 1}
	env := Envelope{Type: MTViewChange, Sender: 1, Payload: vc.Marshal(), Kind: AuthSig, Sig: []byte("sig")}
	m := NewView{
		View:        2,
		ViewChanges: [][]byte{env.Marshal()},
		PrePrepares: []PrePrepare{
			{View: 2, Seq: 9, Entries: []BatchEntry{{Full: true, Req: Request{ClientID: 1, Timestamp: 5, Op: []byte("x")}}}},
			{View: 2, Seq: 10}, // null request fills the gap
		},
	}
	got, err := UnmarshalNewView(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*got, m) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", *got, m)
	}
}

func TestMembershipRoundTrip(t *testing.T) {
	j := JoinOp{
		Phase:    JoinPhaseHello,
		Addr:     "10.0.0.8:7001",
		PubKey:   bytes.Repeat([]byte{7}, crypto.PublicKeySize),
		Nonce:    0xDEADBEEF,
		AppAuth:  []byte("user:alice"),
		Response: crypto.DigestOf([]byte("resp")),
	}
	gj, err := UnmarshalJoinOp(j.Marshal())
	if err != nil || !reflect.DeepEqual(*gj, j) {
		t.Fatalf("join op round trip: %v\n got %+v\nwant %+v", err, gj, j)
	}

	ch := JoinChallenge{Replica: 3, Seq: 42, Challenge: crypto.DigestOf([]byte("ch"))}
	gch, err := UnmarshalJoinChallenge(ch.Marshal())
	if err != nil || !reflect.DeepEqual(*gch, ch) {
		t.Fatalf("join challenge round trip: %v %+v", err, gch)
	}

	h := SessionHello{ClientID: 900, Addr: "127.0.0.1:9", PubKey: []byte("pk")}
	gh, err := UnmarshalSessionHello(h.Marshal())
	if err != nil || !reflect.DeepEqual(*gh, h) {
		t.Fatalf("session hello round trip: %v %+v", err, gh)
	}

	jr := JoinResult{ClientID: 900, Accepted: true, Reason: ""}
	gjr, err := UnmarshalJoinResult(jr.Marshal())
	if err != nil || !reflect.DeepEqual(*gjr, jr) {
		t.Fatalf("join result round trip: %v %+v", err, gjr)
	}
	jr2 := JoinResult{Accepted: false, Reason: "node table full"}
	gjr2, err := UnmarshalJoinResult(jr2.Marshal())
	if err != nil || !reflect.DeepEqual(*gjr2, jr2) {
		t.Fatalf("join result round trip: %v %+v", err, gjr2)
	}
}

func TestSysOpSplit(t *testing.T) {
	op := MarshalSysOp(OpJoin, []byte("body"))
	code, body, ok := SplitSysOp(op)
	if !ok || code != OpJoin || string(body) != "body" {
		t.Fatalf("split sys op: %v %d %q", ok, code, body)
	}
	if _, _, ok := SplitSysOp(nil); ok {
		t.Fatal("empty sys op must not split")
	}
}

func TestStateTransferRoundTrip(t *testing.T) {
	f := Fetch{Seq: 128, Level: 2, Index: 5, Replica: 1}
	gf, err := UnmarshalFetch(f.Marshal())
	if err != nil || !reflect.DeepEqual(*gf, f) {
		t.Fatalf("fetch round trip: %v %+v", err, gf)
	}
	n := StateNode{Seq: 128, Level: 1, Index: 0, Children: []crypto.Digest{
		crypto.DigestOf([]byte("c0")), crypto.DigestOf([]byte("c1")),
	}}
	gn, err := UnmarshalStateNode(n.Marshal())
	if err != nil || !reflect.DeepEqual(*gn, n) {
		t.Fatalf("state node round trip: %v %+v", err, gn)
	}
	p := StatePage{Seq: 128, Index: 7, Data: bytes.Repeat([]byte{0xAB}, 4096)}
	gp, err := UnmarshalStatePage(p.Marshal())
	if err != nil || !reflect.DeepEqual(*gp, p) {
		t.Fatalf("state page round trip: %v", err)
	}
}

func TestStatusAndNonDetRoundTrip(t *testing.T) {
	s := Status{View: 1, LastExec: 99, LastStable: 64, Replica: 2}
	gs, err := UnmarshalStatus(s.Marshal())
	if err != nil || !reflect.DeepEqual(*gs, s) {
		t.Fatalf("status round trip: %v %+v", err, gs)
	}
	nd := NonDet{Time: 424242}
	copy(nd.Rand[:], bytes.Repeat([]byte{9}, 32))
	gnd, err := UnmarshalNonDet(nd.Marshal())
	if err != nil || !reflect.DeepEqual(*gnd, nd) {
		t.Fatalf("nondet round trip: %v %+v", err, gnd)
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		env  Envelope
	}{
		{"unauthenticated", Envelope{Type: MTStatePage, Sender: 2, Payload: []byte("page"), Kind: AuthNone}},
		{"signed", Envelope{Type: MTRequest, Sender: 7, Payload: []byte("req"), Kind: AuthSig, Sig: bytes.Repeat([]byte{1}, crypto.SignatureSize)}},
		{"mac", Envelope{Type: MTPrepare, Sender: 1, Payload: []byte("prep"), Kind: AuthMAC,
			Auth: crypto.ComputeAuthenticator([]crypto.SessionKey{crypto.NewSessionKey([]byte("a")), crypto.NewSessionKey([]byte("b"))}, []byte("prep"))}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := UnmarshalEnvelope(tt.env.Marshal())
			if err != nil {
				t.Fatal(err)
			}
			if got.Type != tt.env.Type || got.Sender != tt.env.Sender || !bytes.Equal(got.Payload, tt.env.Payload) || got.Kind != tt.env.Kind {
				t.Fatalf("round trip mismatch: got %+v want %+v", got, tt.env)
			}
			if tt.env.Kind == AuthSig && !bytes.Equal(got.Sig, tt.env.Sig) {
				t.Fatal("signature lost")
			}
			if tt.env.Kind == AuthMAC && !reflect.DeepEqual(got.Auth, tt.env.Auth) {
				t.Fatal("authenticator lost")
			}
			if !bytes.Equal(got.SignedBytes(), tt.env.SignedBytes()) {
				t.Fatal("signed bytes must be stable across round trip")
			}
		})
	}
}

func TestEnvelopeRejectsGarbage(t *testing.T) {
	good := (&Envelope{Type: MTRequest, Sender: 1, Payload: []byte("p"), Kind: AuthSig, Sig: []byte("s")}).Marshal()
	for i := 0; i < len(good); i++ {
		if _, err := UnmarshalEnvelope(good[:i]); err == nil {
			t.Fatalf("truncation to %d bytes must fail", i)
		}
	}
	bad := append([]byte(nil), good...)
	bad[0] = 250 // unknown type
	if _, err := UnmarshalEnvelope(bad); err == nil {
		t.Fatal("unknown message type must be rejected")
	}
	badKind := append([]byte(nil), good...)
	// Locate auth kind byte: 1 type + 4 sender + 4 len + 1 payload.
	badKind[10] = 99
	if _, err := UnmarshalEnvelope(badKind); err == nil {
		t.Fatal("unknown auth kind must be rejected")
	}
}

func TestDecodersRejectHostileLengths(t *testing.T) {
	// A pre-prepare claiming 2^31 entries must fail fast, not allocate.
	w := NewWriter(32)
	w.U64(1) // view
	w.U64(1) // seq
	w.Bytes32(nil)
	w.U32(0x7FFFFFFF)
	if _, err := UnmarshalPrePrepare(w.Bytes()); err == nil {
		t.Fatal("hostile entry count must be rejected")
	}

	w2 := NewWriter(16)
	w2.U32(0xFFFFFFFF)
	r := NewReader(w2.Bytes())
	if r.Bytes32() != nil || r.Err() == nil {
		t.Fatal("hostile byte length must be rejected")
	}

	// A reply list claiming more records than its bytes could hold.
	w3 := NewWriter(64)
	w3.U32(0xFFFFFFFF)
	(&Reply{Result: []byte("x")}).Encode(w3)
	if _, err := UnmarshalReplyList(w3.Bytes()); err == nil {
		t.Fatal("hostile reply count must be rejected")
	}
}

func quickRequest(rnd *rand.Rand) Request {
	var op []byte
	if n := rnd.Intn(256); n > 0 {
		op = make([]byte, n)
		rnd.Read(op)
	}
	return Request{
		ClientID:  rnd.Uint32(),
		Timestamp: rnd.Uint64(),
		Flags:     uint8(rnd.Intn(8)),
		Op:        op,
	}
}

func TestQuickRequestRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		req := quickRequest(rnd)
		if len(req.Op) == 0 {
			req.Op = nil // decoders return nil for empty fields
		}
		got, err := UnmarshalRequest(req.Marshal())
		return err == nil && reflect.DeepEqual(*got, req)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPrePrepareRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 100}
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		m := PrePrepare{View: rnd.Uint64(), Seq: rnd.Uint64()}
		nd := make([]byte, rnd.Intn(64))
		rnd.Read(nd)
		m.NonDet = nd
		for i := 0; i < rnd.Intn(5); i++ {
			if rnd.Intn(2) == 0 {
				m.Entries = append(m.Entries, BatchEntry{Full: true, Req: quickRequest(rnd)})
			} else {
				var d crypto.Digest
				rnd.Read(d[:])
				m.Entries = append(m.Entries, BatchEntry{ClientID: rnd.Uint32(), Timestamp: rnd.Uint64(), Digest: d})
			}
		}
		got, err := UnmarshalPrePrepare(m.Marshal())
		if err != nil {
			return false
		}
		// Normalize: decoders return nil for empty variable-length fields.
		if len(m.NonDet) == 0 {
			m.NonDet = nil
		}
		return reflect.DeepEqual(*got, m)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickEnvelopeNeverPanics(t *testing.T) {
	cfg := &quick.Config{MaxCount: 2000}
	f := func(b []byte) bool {
		// Hostile input must return an error or a message, never panic.
		_, _ = UnmarshalEnvelope(b)
		_, _ = UnmarshalPrePrepare(b)
		_, _ = UnmarshalViewChange(b)
		_, _ = UnmarshalNewView(b)
		_, _ = UnmarshalJoinOp(b)
		_, _ = UnmarshalStateNode(b)
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMarshalPrePrepareBatch64(b *testing.B) {
	m := PrePrepare{View: 1, Seq: 1}
	for i := 0; i < 64; i++ {
		m.Entries = append(m.Entries, BatchEntry{Full: true, Req: Request{ClientID: uint32(i), Timestamp: 1, Op: make([]byte, 1024)}})
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Marshal()
	}
}

func BenchmarkUnmarshalPrePrepareBatch64(b *testing.B) {
	m := PrePrepare{View: 1, Seq: 1}
	for i := 0; i < 64; i++ {
		m.Entries = append(m.Entries, BatchEntry{Full: true, Req: Request{ClientID: uint32(i), Timestamp: 1, Op: make([]byte, 1024)}})
	}
	raw := m.Marshal()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := UnmarshalPrePrepare(raw); err != nil {
			b.Fatal(err)
		}
	}
}
