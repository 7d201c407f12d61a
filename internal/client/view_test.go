package client

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/transport"
	"repro/internal/wire"
)

// viewTestSetup is testSetup plus listeners on every replica address, so
// the test observes where the client actually transmits.
func viewTestSetup(t *testing.T) (*core.Config, *Client, []*crypto.KeyPair, []transport.Conn) {
	t.Helper()
	o := core.DefaultOptions()
	o.UseMACs = false
	o.AllBig = false // primary-routed requests: the path retargeting serves
	o.StateSize = 1 << 20
	o.RequestTimeout = time.Hour // timers are driven by hand
	cfg := &core.Config{Opts: o}
	rkeys := make([]*crypto.KeyPair, 4)
	net := transport.NewNetwork(7)
	t.Cleanup(func() { net.Close() })
	conns := make([]transport.Conn, 4)
	for i := 0; i < 4; i++ {
		kp, err := crypto.GenerateKeyPair(nil)
		if err != nil {
			t.Fatal(err)
		}
		rkeys[i] = kp
		addr := fmt.Sprintf("r%d", i)
		cfg.Replicas = append(cfg.Replicas, core.NodeInfo{ID: uint32(i), Addr: addr, PubKey: kp.Public()})
		conn, err := net.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = conn
	}
	ckp, err := crypto.GenerateKeyPair(nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Clients = append(cfg.Clients, core.NodeInfo{ID: 4, Addr: "c0", PubKey: ckp.Public()})
	cconn, err := net.Listen("c0")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := New(cfg, 4, ckp, cconn, opts())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cfg, cl, rkeys, conns
}

func opts() Option { return WithMaxRetries(20) }

// recvCount drains packets arriving at a replica listener within the
// window and reports how many were requests.
func recvCount(conn transport.Conn, window time.Duration) int {
	n := 0
	deadline := time.After(window)
	for {
		select {
		case pkt, ok := <-conn.Recv():
			if !ok {
				return n
			}
			if env, err := wire.UnmarshalEnvelope(pkt.Data); err == nil && env.Type == wire.MTRequest {
				n++
			}
		case <-deadline:
			return n
		}
	}
}

// TestRetransmitRetargetsNewPrimary: when the client's f+1-supported view
// estimate moves, the outstanding call is re-sent to the new view's primary
// alone, at once; a timeout in the same view falls back to broadcast.
func TestRetransmitRetargetsNewPrimary(t *testing.T) {
	cfg, cl, rkeys, conns := viewTestSetup(t)

	call := cl.Submit(context.Background(), []byte("op"))
	t.Cleanup(func() { call.finish(nil, ErrClosed) })
	// Initial transmission: primary of view 0 only.
	if got := recvCount(conns[0], 100*time.Millisecond); got != 1 {
		t.Fatalf("primary of view 0 received %d requests, want 1", got)
	}
	if got := recvCount(conns[1], 50*time.Millisecond); got != 0 {
		t.Fatalf("backup received %d requests before any timeout", got)
	}

	// Forged replies (broken signatures) claiming a far-future view must
	// not steer targeting: a timeout now still broadcasts blindly instead
	// of retargeting at a primary of the forger's choosing.
	for _, id := range []uint32{1, 3} {
		rep := &wire.Reply{View: 7, Timestamp: 999, ClientID: 4, Replica: id, Result: []byte("x")}
		raw := sealReply(t, cfg, cl, rkeys, id, rep, false)
		raw[len(raw)-1] ^= 0xFF // break the signature, keep the framing
		cl.dispatch(raw)
	}
	if v := cl.viewEstimate(); v != 0 {
		t.Fatalf("forged replies moved the view estimate to %d, want 0", v)
	}
	call.onTimeout()
	for i := 0; i < 4; i++ {
		if got := recvCount(conns[i], 100*time.Millisecond); got != 1 {
			t.Fatalf("replica %d received %d requests in the post-forgery round, want 1 (blind broadcast)", i, got)
		}
	}

	// One correctly signed reply claiming view 2 is one replica's word:
	// the estimate stays, and nothing is re-sent on the strength of it.
	// The replies answer an unrelated timestamp so the call stays open.
	reveal := func(id uint32) {
		rep := &wire.Reply{View: 2, Timestamp: 999, ClientID: 4, Replica: id, Result: []byte("x")}
		cl.dispatch(sealReply(t, cfg, cl, rkeys, id, rep, false))
	}
	reveal(1)
	if v := cl.viewEstimate(); v != 0 {
		t.Fatalf("a single replica moved the view estimate to %d, want 0", v)
	}
	for i := 0; i < 4; i++ {
		if got := recvCount(conns[i], 50*time.Millisecond); got != 0 {
			t.Fatalf("replica %d received %d requests on one replica's view claim, want 0", i, got)
		}
	}

	// A second replica makes it f+1: the estimate advances and the
	// outstanding call goes to the new primary (r2) alone, at once — no
	// timeout, no broadcast.
	reveal(3)
	if v := cl.viewEstimate(); v != 2 {
		t.Fatalf("view estimate = %d, want 2", v)
	}
	if got := recvCount(conns[2], 100*time.Millisecond); got != 1 {
		t.Fatalf("new primary received %d requests when the estimate advanced, want 1", got)
	}
	for _, i := range []int{0, 1, 3} {
		if got := recvCount(conns[i], 50*time.Millisecond); got != 0 {
			t.Fatalf("replica %d received %d requests during the retarget, want 0", i, got)
		}
	}

	// A timeout with an unchanged view estimate: blind broadcast — the
	// recovery path that arms every backup's liveness timer.
	call.onTimeout()
	for i := 0; i < 4; i++ {
		if got := recvCount(conns[i], 100*time.Millisecond); got != 1 {
			t.Fatalf("replica %d received %d requests during the broadcast round, want 1", i, got)
		}
	}
}
