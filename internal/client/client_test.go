package client

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/transport"
	"repro/internal/wire"
)

// testSetup builds a config (no live replicas) and a client over the mem
// network for white-box protocol tests.
func testSetup(t *testing.T, useMACs bool, opts ...Option) (*core.Config, *Client, []*crypto.KeyPair) {
	t.Helper()
	o := core.DefaultOptions()
	o.UseMACs = useMACs
	o.StateSize = 1 << 20
	o.RequestTimeout = 20 * time.Millisecond
	cfg := &core.Config{Opts: o}
	rkeys := make([]*crypto.KeyPair, 4)
	for i := 0; i < 4; i++ {
		kp, err := crypto.GenerateKeyPair(nil)
		if err != nil {
			t.Fatal(err)
		}
		rkeys[i] = kp
		cfg.Replicas = append(cfg.Replicas, core.NodeInfo{ID: uint32(i), Addr: fmt.Sprintf("r%d", i), PubKey: kp.Public()})
	}
	ckp, err := crypto.GenerateKeyPair(nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Clients = append(cfg.Clients, core.NodeInfo{ID: 4, Addr: "c0", PubKey: ckp.Public()})

	net := transport.NewNetwork(1)
	t.Cleanup(func() { net.Close() })
	conn, err := net.Listen("c0")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := New(cfg, 4, ckp, conn, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cfg, cl, rkeys
}

// sealReply builds a reply envelope as replica id would.
func sealReply(t *testing.T, cfg *core.Config, cl *Client, rkeys []*crypto.KeyPair, id uint32, rep *wire.Reply, mac bool) []byte {
	t.Helper()
	return sealReplies(cl, rkeys, id, mac, rep)
}

// sealReplies builds a reply envelope carrying a list, as replica id would
// for one span's replies.
func sealReplies(cl *Client, rkeys []*crypto.KeyPair, id uint32, mac bool, reps ...*wire.Reply) []byte {
	env := &wire.Envelope{Type: wire.MTReply, Sender: id, Payload: wire.MarshalReplyList(reps...)}
	if mac {
		env.Kind = wire.AuthMAC
		env.Auth = crypto.ComputeAuthenticator([]crypto.SessionKey{cl.sessionKeys[id]}, env.SignedBytes())
	} else {
		env.Kind = wire.AuthSig
		env.Sig = rkeys[id].Sign(env.SignedBytes())
	}
	return env.Marshal()
}

// pendingCall registers a bare in-flight call for dispatch tests.
func pendingCall(cl *Client, ts uint64) *Call {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	env := cl.seal(cl.id, wire.MTRequest, (&wire.Request{ClientID: cl.id, Timestamp: ts}).Marshal(), false)
	return cl.register(context.Background(), cl.id, ts, env, false, false)
}

func mkReply(ts uint64, replica uint32, result string, tentative bool) *wire.Reply {
	rep := &wire.Reply{Timestamp: ts, ClientID: 4, Replica: replica, Result: []byte(result)}
	if tentative {
		rep.Flags |= wire.FlagTentative
	}
	return rep
}

func TestRecordReplyQuorums(t *testing.T) {
	const f, quorum = 1, 3
	rec := func(q map[crypto.Digest]*replyQuorum, rep *wire.Reply) ([]byte, bool) {
		return recordReply(q, rep, f, quorum)
	}

	t.Run("f+1 stable suffices", func(t *testing.T) {
		q := make(map[crypto.Digest]*replyQuorum)
		if _, ok := rec(q, mkReply(1, 0, "ok", false)); ok {
			t.Fatal("one stable reply must not suffice")
		}
		if got, ok := rec(q, mkReply(1, 1, "ok", false)); !ok || string(got) != "ok" {
			t.Fatalf("two stable matching replies (f+1) must be accepted, got %v", got)
		}
	})

	t.Run("tentative needs 2f+1", func(t *testing.T) {
		q := make(map[crypto.Digest]*replyQuorum)
		if _, ok := rec(q, mkReply(1, 0, "ok", true)); ok {
			t.Fatal("one tentative reply")
		}
		if _, ok := rec(q, mkReply(1, 1, "ok", true)); ok {
			t.Fatal("two tentative replies are below the 2f+1 quorum")
		}
		if got, ok := rec(q, mkReply(1, 2, "ok", true)); !ok || string(got) != "ok" {
			t.Fatal("three matching tentative replies (2f+1) must be accepted")
		}
	})

	t.Run("mismatching results never combine", func(t *testing.T) {
		q := make(map[crypto.Digest]*replyQuorum)
		rec(q, mkReply(1, 0, "a", false))
		if _, ok := rec(q, mkReply(1, 1, "b", false)); ok {
			t.Fatal("divergent results must not form a quorum")
		}
		if got, ok := rec(q, mkReply(1, 2, "a", false)); !ok || string(got) != "a" {
			t.Fatal("the matching pair must win")
		}
	})

	t.Run("duplicate replica does not double count", func(t *testing.T) {
		q := make(map[crypto.Digest]*replyQuorum)
		rec(q, mkReply(1, 0, "ok", false))
		if _, ok := rec(q, mkReply(1, 0, "ok", false)); ok {
			t.Fatal("the same replica retransmitting must count once")
		}
	})

	t.Run("stable upgrade replaces tentative vote", func(t *testing.T) {
		q := make(map[crypto.Digest]*replyQuorum)
		rec(q, mkReply(1, 0, "ok", true))
		rec(q, mkReply(1, 1, "ok", true))
		// Replica 0 resends as stable: now 1 stable + 1 tentative = 2
		// total, still below both quorums.
		if _, ok := rec(q, mkReply(1, 0, "ok", false)); ok {
			t.Fatal("1 stable + 1 tentative must not be accepted")
		}
		if got, ok := rec(q, mkReply(1, 1, "ok", false)); !ok || string(got) != "ok" {
			t.Fatal("2 stable must be accepted")
		}
	})
}

func TestDispatchAuthentication(t *testing.T) {
	for _, mac := range []bool{true, false} {
		name := "signatures"
		if mac {
			name = "macs"
		}
		t.Run(name, func(t *testing.T) {
			cfg, cl, rkeys := testSetup(t, mac)
			call := pendingCall(cl, 9)

			// A reply for another timestamp must not touch this call.
			cl.dispatch(sealReply(t, cfg, cl, rkeys, 2, mkReply(8, 2, "r", false), mac))
			// Claimed sender != signer.
			lying := &wire.Envelope{Type: wire.MTReply, Sender: 1, Payload: wire.MarshalReplyList(mkReply(9, 1, "r", false)), Kind: wire.AuthSig}
			lying.Sig = rkeys[2].Sign(lying.SignedBytes())
			cl.dispatch(lying.Marshal())
			// Replica id out of range.
			badID := &wire.Envelope{Type: wire.MTReply, Sender: 99, Payload: wire.MarshalReplyList(mkReply(9, 99, "r", false)), Kind: wire.AuthSig}
			badID.Sig = rkeys[2].Sign(badID.SignedBytes())
			cl.dispatch(badID.Marshal())
			// Garbage bytes.
			cl.dispatch([]byte("garbage"))
			// Reply body whose Replica field disagrees with the envelope.
			cl.dispatch(sealReply(t, cfg, cl, rkeys, 2, mkReply(9, 3, "r", false), mac))
			if call.Err() != nil || len(call.byDigest) != 0 {
				t.Fatal("unauthentic or misrouted replies must not reach the call")
			}

			// Two authentic replies complete the call (f+1 stable).
			cl.dispatch(sealReply(t, cfg, cl, rkeys, 2, mkReply(9, 2, "r", false), mac))
			cl.dispatch(sealReply(t, cfg, cl, rkeys, 3, mkReply(9, 3, "r", false), mac))
			result, err := call.Result()
			if err != nil || string(result) != "r" {
				t.Fatalf("authentic quorum must complete the call, got %q/%v", result, err)
			}
		})
	}
}

// TestDispatchDropsCorruptReplies: replies whose authenticator or
// signature fails verification are dropped wholesale — they must not
// count toward a reply quorum, complete a call early, or contribute view
// votes — and a lying replica's divergent result must not reach the f+1
// acceptance bar.
func TestDispatchDropsCorruptReplies(t *testing.T) {
	for _, mac := range []bool{true, false} {
		name := "signatures"
		if mac {
			name = "macs"
		}
		t.Run(name, func(t *testing.T) {
			cfg, cl, rkeys := testSetup(t, mac)
			call := pendingCall(cl, 5)

			// f+1 matching replies with broken auth, all claiming a
			// far-future view: every one must be dropped before the view
			// votes or the reply quorum are touched.
			for _, id := range []uint32{0, 1} {
				rep := &wire.Reply{View: 9, Timestamp: 5, ClientID: 4, Replica: id, Result: []byte("ok")}
				raw := sealReply(t, cfg, cl, rkeys, id, rep, mac)
				raw[len(raw)-1] ^= 0xFF // break the auth tail, keep the framing
				cl.dispatch(raw)
			}
			select {
			case <-call.Done():
				t.Fatal("corrupt replies completed the call")
			default:
			}
			if v := cl.viewEstimate(); v != 0 {
				t.Fatalf("corrupt replies moved the view estimate to %d, want 0", v)
			}
			if len(call.byDigest) != 0 {
				t.Fatal("corrupt replies must not enter the reply quorum")
			}

			// One honest reply plus one lying (authentic but divergent
			// result) reply: two votes, no matching pair, no completion.
			cl.dispatch(sealReply(t, cfg, cl, rkeys, 0, mkReply(5, 0, "ok", false), mac))
			cl.dispatch(sealReply(t, cfg, cl, rkeys, 2, mkReply(5, 2, "evil", false), mac))
			select {
			case <-call.Done():
				t.Fatal("a lying replica's divergent result completed the call")
			default:
			}

			// The second honest reply forms the f+1 matching quorum; the
			// lie is outvoted.
			cl.dispatch(sealReply(t, cfg, cl, rkeys, 1, mkReply(5, 1, "ok", false), mac))
			result, err := call.Result()
			if err != nil || string(result) != "ok" {
				t.Fatalf("honest quorum must win, got %q/%v", result, err)
			}
		})
	}
}

func TestDispatchUpdatesViewEstimate(t *testing.T) {
	cfg, cl, rkeys := testSetup(t, false)
	pendingCall(cl, 1)
	// A single replica reporting a high view must not move the estimate:
	// one Byzantine replica could otherwise steer retransmissions at a
	// primary of its choosing.
	cl.dispatch(sealReply(t, cfg, cl, rkeys, 1, &wire.Reply{View: 5, Timestamp: 1, ClientID: 4, Replica: 1, Result: []byte("x")}, false))
	if cl.view != 0 {
		t.Fatalf("view estimate = %d after one vote, want 0 (needs f+1 support)", cl.view)
	}
	// A second distinct replica reporting >= 5 gives view 5 its f+1
	// support (f=1): the estimate is the highest view f+1 replicas back.
	cl.dispatch(sealReply(t, cfg, cl, rkeys, 2, &wire.Reply{View: 6, Timestamp: 1, ClientID: 4, Replica: 2, Result: []byte("x")}, false))
	if cl.view != 5 {
		t.Fatalf("view estimate = %d, want 5 (f+1-supported)", cl.view)
	}
	// Older view does not regress the estimate.
	cl.dispatch(sealReply(t, cfg, cl, rkeys, 3, &wire.Reply{View: 3, Timestamp: 1, ClientID: 4, Replica: 3, Result: []byte("x")}, false))
	if cl.view != 5 {
		t.Fatalf("view estimate regressed to %d", cl.view)
	}
}

// TestDispatchSkipsFinishedCalls: the reply that arrives after its call's
// quorum assembled is dropped without being authenticated.
func TestDispatchSkipsFinishedCalls(t *testing.T) {
	for _, mac := range []bool{true, false} {
		t.Run(fmt.Sprintf("mac=%v", mac), func(t *testing.T) {
			cfg, cl, rkeys := testSetup(t, mac)
			call := pendingCall(cl, 5)
			// Tentative replies: the quorum is 2f+1 = 3 of the 4.
			for id := uint32(0); id < 3; id++ {
				cl.dispatch(sealReply(t, cfg, cl, rkeys, id, mkReply(5, id, "ok", true), mac))
			}
			if result, err := call.Result(); err != nil || string(result) != "ok" {
				t.Fatalf("three tentative replies: %q/%v", result, err)
			}
			if got := cl.verifies.Load(); got != 3 {
				t.Fatalf("%d verifications for the quorum's replies, want 3", got)
			}
			cl.dispatch(sealReply(t, cfg, cl, rkeys, 3, mkReply(5, 3, "ok", true), mac))
			if got := cl.verifies.Load(); got != 3 {
				t.Fatalf("the fourth reply was verified (%d verifications, want 3)", got)
			}
		})
	}
}

// TestDispatchVerifiesViewReports: a reply no call waits for is still
// authenticated when it reports a view above its sender's recorded vote —
// and then moves that vote — but not when it repeats the vote.
func TestDispatchVerifiesViewReports(t *testing.T) {
	cfg, cl, rkeys := testSetup(t, false)
	report := func(id uint32, view uint64) {
		rep := &wire.Reply{View: view, Timestamp: 999, ClientID: 4, Replica: id, Result: []byte("x")}
		cl.dispatch(sealReply(t, cfg, cl, rkeys, id, rep, false))
	}
	report(1, 2)
	if got := cl.verifies.Load(); got != 1 {
		t.Fatalf("%d verifications, want 1", got)
	}
	if cl.viewVotes[1] != 2 {
		t.Fatalf("replica 1's vote = %d, want 2", cl.viewVotes[1])
	}
	report(1, 2)
	if got := cl.verifies.Load(); got != 1 {
		t.Fatalf("a repeated view report was verified (%d verifications, want 1)", got)
	}
	report(3, 2)
	if v := cl.viewEstimate(); v != 2 {
		t.Fatalf("view estimate = %d after two reports, want 2", v)
	}
}

// TestDispatchDropsMixedReplyLists: a list is one replica's replies to one
// client; a record naming another replica or another client condemns the
// whole list, the valid records in it included, before any verification.
func TestDispatchDropsMixedReplyLists(t *testing.T) {
	_, cl, rkeys := testSetup(t, false)
	call := pendingCall(cl, 5)
	other := mkReply(6, 2, "ok", false)
	other.ClientID = 5
	for name, reps := range map[string][]*wire.Reply{
		"foreign replica": {mkReply(5, 2, "ok", false), mkReply(6, 3, "ok", false)},
		"mixed clients":   {mkReply(5, 2, "ok", false), other},
	} {
		cl.dispatch(sealReplies(cl, rkeys, 2, false, reps...))
		if got := cl.verifies.Load(); got != 0 {
			t.Fatalf("%s: list was verified", name)
		}
		if len(call.byDigest) != 0 {
			t.Fatalf("%s: a record of the list reached the call", name)
		}
	}
}

// TestDispatchGroupCompletesEveryCall: one verification admits every reply
// of a list, so two replicas' lists complete both calls they answer.
func TestDispatchGroupCompletesEveryCall(t *testing.T) {
	_, cl, rkeys := testSetup(t, false)
	first, second := pendingCall(cl, 7), pendingCall(cl, 8)
	for _, id := range []uint32{0, 1} {
		cl.dispatch(sealReplies(cl, rkeys, id, false, mkReply(7, id, "a", false), mkReply(8, id, "b", false)))
	}
	for _, c := range []struct {
		call *Call
		want string
	}{{first, "a"}, {second, "b"}} {
		if result, err := c.call.Result(); err != nil || string(result) != c.want {
			t.Fatalf("call %d: %q/%v, want %q", c.call.timestamp, result, err, c.want)
		}
	}
	if got := cl.verifies.Load(); got != 2 {
		t.Fatalf("%d verifications for two lists, want 2", got)
	}
}

func TestInvokeOnClosedClient(t *testing.T) {
	_, cl, _ := testSetup(t, false)
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Invoke(context.Background(), []byte("x")); err != ErrClosed {
		t.Fatalf("got %v, want ErrClosed", err)
	}
	if err := cl.Close(); err != nil {
		t.Fatal("double close must be nil")
	}
}

func TestDynamicClientMustJoinFirst(t *testing.T) {
	opts := core.DefaultOptions()
	opts.DynamicClients = true
	opts.StateSize = 1 << 20
	cfg := &core.Config{Opts: opts}
	for i := 0; i < 4; i++ {
		kp, err := crypto.GenerateKeyPair(nil)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Replicas = append(cfg.Replicas, core.NodeInfo{ID: uint32(i), Addr: fmt.Sprintf("r%d", i), PubKey: kp.Public()})
	}
	net := transport.NewNetwork(1)
	defer net.Close()
	conn, err := net.Listen("dyn")
	if err != nil {
		t.Fatal(err)
	}
	kp, err := crypto.GenerateKeyPair(nil)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewDynamic(cfg, kp, conn)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Invoke(context.Background(), []byte("x")); err != ErrNotJoined {
		t.Fatalf("invoke before join: got %v, want ErrNotJoined", err)
	}
	if err := cl.Leave(context.Background()); err != ErrNotJoined {
		t.Fatalf("leave before join: got %v, want ErrNotJoined", err)
	}
}

func TestClientTimestampsMonotonicAcrossInstances(t *testing.T) {
	cfg, cl, _ := testSetup(t, false)
	first := cl.timestamp
	net2 := transport.NewNetwork(2)
	defer net2.Close()
	conn, err := net2.Listen("c0")
	if err != nil {
		t.Fatal(err)
	}
	kp, err := crypto.GenerateKeyPair(nil)
	if err != nil {
		t.Fatal(err)
	}
	cl2, err := New(cfg, 4, kp, conn)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	if cl2.timestamp < first {
		t.Fatal("a later client instance must not reuse earlier timestamps")
	}
}

// TestSubmitContextCancellation: a call against unreachable replicas must
// complete promptly when its context is cancelled mid-quorum.
func TestSubmitContextCancellation(t *testing.T) {
	_, cl, _ := testSetup(t, false, WithMaxRetries(1000))
	ctx, cancel := context.WithCancel(context.Background())
	call := cl.Submit(ctx, []byte("never-answered"))
	select {
	case <-call.Done():
		t.Fatal("call must still be in flight")
	case <-time.After(5 * time.Millisecond):
	}
	cancel()
	select {
	case <-call.Done():
	case <-time.After(time.Second):
		t.Fatal("cancellation must complete the call promptly")
	}
	if _, err := call.Result(); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestSubmitWindowBackpressure: the pipeline window bounds in-flight
// calls; a blocked Submit honors context cancellation.
func TestSubmitWindowBackpressure(t *testing.T) {
	_, cl, _ := testSetup(t, false, WithPipelineDepth(2), WithMaxRetries(1000))
	ctx := context.Background()
	c1 := cl.Submit(ctx, []byte("a"))
	c2 := cl.Submit(ctx, []byte("b"))
	if c1.Err() != nil || c2.Err() != nil {
		t.Fatal("first two calls fill the window")
	}
	cctx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	c3 := cl.Submit(cctx, []byte("c"))
	if _, err := c3.Result(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked submit must fail with the context: %v", err)
	}
}

// TestSubmitTimestampSpanGate: the pipeline must cap the in-flight
// timestamp span at the replica window W, or a stalled oldest request
// would slide below the replicas' dedup floor and never execute. With
// the oldest call stuck, fast siblings completing and resubmitting may
// advance the timestamp to stuck+W-1 but no further.
func TestSubmitTimestampSpanGate(t *testing.T) {
	const w = 4
	opts := []Option{WithPipelineDepth(2), WithMaxRetries(1000)}
	cfg, cl, rkeys := testSetup(t, false, opts...)
	cfg.Opts.ClientWindow = w
	cl.window = w // testSetup built the client before the override

	stuck := cl.Submit(context.Background(), []byte("stuck"))
	base := stuck.timestamp
	// Complete sibling calls by quorum so their slots recycle; each
	// resubmission takes a fresh, higher timestamp — up to base+w-1,
	// the last one inside the window.
	for i := 0; i < w-1; i++ {
		sib := cl.Submit(context.Background(), []byte("fast"))
		if got := sib.timestamp - base; got >= w {
			t.Fatalf("timestamp span %d breached window %d", got, w)
		}
		rep := &wire.Reply{Timestamp: sib.timestamp, ClientID: 4, Result: []byte("ok")}
		cl.dispatch(sealReply(t, cfg, cl, rkeys, 0, withReplica(rep, 0), false))
		cl.dispatch(sealReply(t, cfg, cl, rkeys, 1, withReplica(rep, 1), false))
		if _, err := sib.Result(); err != nil {
			t.Fatalf("sibling %d: %v", i, err)
		}
	}
	// The next submission would need ts base+w+1 — beyond the span.
	// It must block until the stuck call completes (here: via context).
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	blocked := cl.Submit(ctx, []byte("blocked"))
	if _, err := blocked.Result(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("submit beyond the span must block on the oldest call: %v", err)
	}
	if stuck.Err() != nil {
		t.Fatal("stuck call must still be in flight")
	}
	// Completing the oldest reopens the window.
	rep := &wire.Reply{Timestamp: base, ClientID: 4, Result: []byte("ok")}
	cl.dispatch(sealReply(t, cfg, cl, rkeys, 0, withReplica(rep, 0), false))
	cl.dispatch(sealReply(t, cfg, cl, rkeys, 1, withReplica(rep, 1), false))
	if _, err := stuck.Result(); err != nil {
		t.Fatal(err)
	}
	follow := cl.Submit(context.Background(), []byte("follow"))
	if follow.Err() != nil {
		t.Fatal("window must reopen after the oldest call completes")
	}
}

// withReplica stamps the reply's originating replica (quorum replies must
// come from distinct replicas).
func withReplica(rep *wire.Reply, id uint32) *wire.Reply {
	r := *rep
	r.Replica = id
	return &r
}

// TestCallCompletionAfterClose: closing the client completes in-flight
// calls with ErrClosed instead of leaving waiters hanging.
func TestCallCompletionAfterClose(t *testing.T) {
	_, cl, _ := testSetup(t, false, WithMaxRetries(1000))
	call := cl.Submit(context.Background(), []byte("x"))
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-call.Done():
	case <-time.After(time.Second):
		t.Fatal("close must complete in-flight calls")
	}
	if _, err := call.Result(); err != ErrClosed {
		t.Fatalf("got %v, want ErrClosed", err)
	}
}

// TestRetransmissionTimeout: with unreachable replicas the retry budget
// expires into ErrTimeout (and the per-call timer stops afterwards).
func TestRetransmissionTimeout(t *testing.T) {
	_, cl, _ := testSetup(t, false, WithMaxRetries(2))
	if _, err := cl.Invoke(context.Background(), []byte("x")); err != ErrTimeout {
		t.Fatalf("got %v, want ErrTimeout", err)
	}
}

// TestCloseNoGoroutineLeak: a client that submitted calls and closed must
// leave no demux goroutine, timer callback, or context watcher behind.
func TestCloseNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		_, cl, _ := testSetup(t, true, WithPipelineDepth(4), WithMaxRetries(1000))
		ctx, cancel := context.WithCancel(context.Background())
		calls := make([]*Call, 0, 4)
		for i := 0; i < 4; i++ {
			calls = append(calls, cl.Submit(ctx, []byte("x")))
		}
		cancel()
		if err := cl.Close(); err != nil {
			t.Fatal(err)
		}
		for _, call := range calls {
			<-call.Done()
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: before=%d after=%d\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// tooLargeConn fails every transmit with transport.ErrTooLarge, modeling
// an oversized datagram.
type tooLargeConn struct {
	recv chan transport.Packet
}

func (c *tooLargeConn) Addr() string { return "huge" }
func (c *tooLargeConn) Send(string, []byte) error {
	return fmt.Errorf("%w: test", transport.ErrTooLarge)
}
func (c *tooLargeConn) Recv() <-chan transport.Packet { return c.recv }
func (c *tooLargeConn) Close() error {
	close(c.recv)
	return nil
}

// TestSubmitSurfacesErrTooLarge: a deterministic transport refusal fails
// the call immediately instead of burning retransmission rounds into
// ErrTimeout.
func TestSubmitSurfacesErrTooLarge(t *testing.T) {
	opts := core.DefaultOptions()
	opts.UseMACs = false
	opts.StateSize = 1 << 20
	cfg := &core.Config{Opts: opts}
	for i := 0; i < 4; i++ {
		kp, err := crypto.GenerateKeyPair(nil)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Replicas = append(cfg.Replicas, core.NodeInfo{ID: uint32(i), Addr: fmt.Sprintf("r%d", i), PubKey: kp.Public()})
	}
	ckp, err := crypto.GenerateKeyPair(nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Clients = append(cfg.Clients, core.NodeInfo{ID: 4, Addr: "huge", PubKey: ckp.Public()})
	cl, err := New(cfg, 4, ckp, &tooLargeConn{recv: make(chan transport.Packet)})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	start := time.Now()
	if _, err := cl.Invoke(context.Background(), []byte("x")); !errors.Is(err, transport.ErrTooLarge) {
		t.Fatalf("got %v, want ErrTooLarge", err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("oversized send must fail immediately, took %s", elapsed)
	}
	if !strings.Contains(fmt.Sprint(transport.ErrTooLarge), "size limit") {
		t.Fatal("sanity: typed error text changed")
	}
}

// TestRetransmitBackoff: the per-call retransmission delay grows
// exponentially from the base interval, stays inside the jitter window
// [d/2, d], and caps at the backoff ceiling.
func TestRetransmitBackoff(t *testing.T) {
	_, cl, _ := testSetup(t, false)
	defer cl.Close()
	base := cl.cfg.Opts.RequestTimeout
	if want := 8 * base; cl.backoffCap != want {
		t.Fatalf("default backoff cap = %v, want %v", cl.backoffCap, want)
	}
	call := &Call{c: cl}
	for attempt := 0; attempt < 12; attempt++ {
		want := base
		for i := backoffGraceRounds; i < attempt && want < cl.backoffCap; i++ {
			want *= 2
		}
		if want > cl.backoffCap {
			want = cl.backoffCap
		}
		for trial := 0; trial < 50; trial++ {
			got := call.retransmitDelay(attempt)
			if got < base || got > want {
				t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, got, base, want)
			}
		}
	}
}

// TestRetransmitBackoffCapOption: WithBackoffCap bounds the growth, and
// the delay never drops below the base interval — a cap at or below
// RequestTimeout degrades to fixed-interval retransmission, never to a
// faster rate.
func TestRetransmitBackoffCapOption(t *testing.T) {
	_, cl, _ := testSetup(t, false, WithBackoffCap(30*time.Millisecond))
	defer cl.Close()
	base := cl.cfg.Opts.RequestTimeout // 20ms in testSetup
	call := &Call{c: cl}
	for attempt := 0; attempt < 10; attempt++ {
		got := call.retransmitDelay(attempt)
		if got > 30*time.Millisecond {
			t.Fatalf("attempt %d: delay %v exceeds the 30ms cap", attempt, got)
		}
		if got < base {
			t.Fatalf("attempt %d: delay %v below the %v base interval", attempt, got, base)
		}
	}
	_, cl2, _ := testSetup(t, false, WithBackoffCap(time.Millisecond))
	defer cl2.Close()
	call2 := &Call{c: cl2}
	for attempt := 0; attempt < 5; attempt++ {
		if got := call2.retransmitDelay(attempt); got != base {
			t.Fatalf("cap below base: attempt %d delay %v, want fixed %v", attempt, got, base)
		}
	}
}
