package core

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/crypto"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// replyRig is one unstarted replica whose three static clients (ids 4, 5,
// 6) listen on the same in-memory network. The test submits requests and
// reaps the span directly; with zero link delay every reply envelope is in
// its client's queue by the time reapApplies returns.
type replyRig struct {
	t       *testing.T
	r       *Replica
	pub     crypto.PublicKey
	clients map[uint32]transport.Conn
}

func newReplyRig(t *testing.T, configure func(*Options)) *replyRig {
	t.Helper()
	cfg, rkeys, _ := testConfig(t, 1, 3)
	cfg.Opts.UseMACs = false
	if configure != nil {
		configure(&cfg.Opts)
	}
	net := transport.NewNetwork(1)
	t.Cleanup(func() { net.Close() })
	conn, err := net.Listen(cfg.Replicas[0].Addr)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReplica(cfg, 0, rkeys[0], conn, nopApp{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.Shutdown(context.Background()) })
	g := &replyRig{t: t, r: r, pub: rkeys[0].Public(), clients: make(map[uint32]transport.Conn)}
	for _, ci := range cfg.Clients {
		c, err := net.Listen(ci.Addr)
		if err != nil {
			t.Fatal(err)
		}
		g.clients[ci.ID] = c
	}
	return g
}

// opFor is the operation of timestamp ts, padded to n bytes; nopApp echoes
// it as the result.
func opFor(ts uint64, n int) []byte {
	op := []byte(fmt.Sprintf("op-%d", ts))
	return append(op, make([]byte, max(0, n-len(op)))...)
}

func req(client uint32, ts uint64) *wire.Request {
	return &wire.Request{ClientID: client, Timestamp: ts, Op: opFor(ts, 0)}
}

// span executes the requests, in order, as one span.
func (g *replyRig) span(reqs ...*wire.Request) {
	e := newEntry(1)
	for _, req := range reqs {
		g.r.submitRequest(req, NonDetValues{}, false, e)
	}
	g.r.reapApplies()
}

// envelope is one reply envelope a client received.
type envelope struct {
	kind    wire.AuthKind
	payload int      // bytes
	tss     []uint64 // the replies' timestamps, in list order
}

// received drains the reply envelopes waiting at a client, checking each
// one's authentication and that its replies are this client's, from
// replica 0, carrying their own results.
func (g *replyRig) received(client uint32) []envelope {
	g.t.Helper()
	var got []envelope
	for {
		var pkt transport.Packet
		select {
		case pkt = <-g.clients[client].Recv():
		default:
			return got
		}
		env, err := wire.UnmarshalEnvelope(pkt.Data)
		if err != nil || env.Type != wire.MTReply {
			g.t.Fatalf("client %d received %v (%v), want a reply", client, env, err)
		}
		switch env.Kind {
		case wire.AuthSig:
			if !env.VerifySig(g.pub) {
				g.t.Fatalf("client %d: reply signature does not verify", client)
			}
		case wire.AuthMAC:
			if !env.VerifyMACEntry(0, g.r.nodes.get(client).Session) {
				g.t.Fatalf("client %d: reply MAC does not verify", client)
			}
		}
		reps, err := wire.UnmarshalReplyList(env.Payload)
		if err != nil {
			g.t.Fatal(err)
		}
		e := envelope{kind: env.Kind, payload: len(env.Payload)}
		for _, rep := range reps {
			if rep.ClientID != client || rep.Replica != 0 || !bytes.HasPrefix(rep.Result, opFor(rep.Timestamp, 0)) {
				g.t.Fatalf("client %d received %+v", client, rep)
			}
			e.tss = append(e.tss, rep.Timestamp)
		}
		got = append(got, e)
	}
}

// lists formats the envelopes' timestamp lists, e.g. "[[1 2] [3]]".
func lists(envs []envelope) string {
	out := make([][]uint64, len(envs))
	for i, e := range envs {
		out[i] = e.tss
	}
	return fmt.Sprint(out)
}

// TestSignedSpanRepliesGroupPerClient: in signature mode a span's replies
// to one client leave in one signed envelope, in the order the client's
// requests were submitted, however the clients interleave.
func TestSignedSpanRepliesGroupPerClient(t *testing.T) {
	g := newReplyRig(t, nil)
	g.span(req(4, 1), req(5, 1), req(4, 2), req(6, 1), req(5, 2), req(4, 3), req(6, 2))
	for client, want := range map[uint32]string{4: "[[1 2 3]]", 5: "[[1 2]]", 6: "[[1 2]]"} {
		envs := g.received(client)
		if lists(envs) != want || envs[0].kind != wire.AuthSig {
			t.Fatalf("client %d received %s (%+v), want one signed envelope %s", client, lists(envs), envs, want)
		}
	}
	// The next span starts new groups.
	g.span(req(4, 4))
	if got := lists(g.received(4)); got != "[[4]]" {
		t.Fatalf("next span: client 4 received %s, want [[4]]", got)
	}
}

// TestSignedReplyGroupSplitsAtMaxBatchBytes: a group is cut before the
// reply that would take its list past MaxBatchBytes, and a reply larger
// than the bound leaves alone.
func TestSignedReplyGroupSplitsAtMaxBatchBytes(t *testing.T) {
	const result = 100
	rep := wire.Reply{Result: make([]byte, result)}
	bound := wire.ReplyListHeaderSize + 3*rep.EncodedSize() // three fit exactly
	g := newReplyRig(t, func(o *Options) { o.MaxBatchBytes = bound })
	var reqs []*wire.Request
	for ts := uint64(1); ts <= 7; ts++ {
		n := result
		if ts == 3 {
			n = bound // too big to share an envelope
		}
		reqs = append(reqs, &wire.Request{ClientID: 4, Timestamp: ts, Op: opFor(ts, n)})
	}
	g.span(reqs...)
	envs := g.received(4)
	if got, want := lists(envs), "[[1 2] [3] [4 5 6] [7]]"; got != want {
		t.Fatalf("envelopes %s, want %s", got, want)
	}
	for _, e := range envs {
		if len(e.tss) > 1 && e.payload > bound {
			t.Fatalf("a %d-byte list of %d replies exceeds the %d-byte bound", e.payload, len(e.tss), bound)
		}
	}
}

// TestMACSpanRepliesOnePerEnvelope: MAC replies are not held back for
// their siblings — each leaves alone, a list of one.
func TestMACSpanRepliesOnePerEnvelope(t *testing.T) {
	g := newReplyRig(t, func(o *Options) { o.UseMACs = true })
	c := g.r.nodes.get(4)
	c.Session, c.HasSession = crypto.NewSessionKey([]byte("client 4")), true
	g.span(req(4, 1), req(5, 1), req(4, 2), req(4, 3))
	envs := g.received(4)
	if got := lists(envs); got != "[[1] [2] [3]]" {
		t.Fatalf("client 4 received %s, want [[1] [2] [3]]", got)
	}
	for _, e := range envs {
		if e.kind != wire.AuthMAC {
			t.Fatalf("client 4 received %+v, want MACs", envs)
		}
	}
	// Client 5 has no session: its reply is signed, even in MAC mode.
	if envs := g.received(5); len(envs) != 1 || envs[0].kind != wire.AuthSig {
		t.Fatalf("client 5 received %+v, want one signed envelope", envs)
	}
}

// TestGroupedRepliesStampedPerRequest: every request of a group gets its
// own reply_sealed and reply_sent marks, so its timeline is finished.
func TestGroupedRepliesStampedPerRequest(t *testing.T) {
	rec := trace.New(trace.Config{})
	g := newReplyRig(t, func(o *Options) { o.Recorder = rec })
	g.span(req(4, 1), req(5, 1), req(4, 2), req(4, 3))
	for _, id := range []struct {
		client uint32
		ts     uint64
	}{{4, 1}, {5, 1}, {4, 2}, {4, 3}} {
		tl, ok := rec.Lookup(id.client, id.ts)
		if !ok {
			t.Fatalf("request %v: no finished timeline", id)
		}
		marks := map[string]bool{}
		for _, p := range tl.Phases {
			marks[p.Phase] = true
		}
		if !marks[trace.ReplySealed.String()] || !marks[trace.ReplySent.String()] {
			t.Fatalf("request %v: phases %+v lack reply_sealed or reply_sent", id, tl.Phases)
		}
	}
}
