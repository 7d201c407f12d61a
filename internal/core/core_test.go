package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/crypto"
	"repro/internal/transport"
	"repro/internal/wire"
)

// testConfig builds a minimal valid config with n replicas and m clients.
func testConfig(t *testing.T, f, clients int) (*Config, []*crypto.KeyPair, []*crypto.KeyPair) {
	t.Helper()
	n := 3*f + 1
	opts := DefaultOptions()
	opts.F = f
	opts.StateSize = 1 << 20
	opts.PageSize = 256
	opts.CheckpointInterval = 8
	cfg := &Config{Opts: opts}
	rkeys := make([]*crypto.KeyPair, n)
	for i := 0; i < n; i++ {
		kp, err := crypto.GenerateKeyPair(nil)
		if err != nil {
			t.Fatal(err)
		}
		rkeys[i] = kp
		cfg.Replicas = append(cfg.Replicas, NodeInfo{ID: uint32(i), Addr: fmt.Sprintf("r%d", i), PubKey: kp.Public()})
	}
	ckeys := make([]*crypto.KeyPair, clients)
	for i := 0; i < clients; i++ {
		kp, err := crypto.GenerateKeyPair(nil)
		if err != nil {
			t.Fatal(err)
		}
		ckeys[i] = kp
		cfg.Clients = append(cfg.Clients, NodeInfo{ID: uint32(n + i), Addr: fmt.Sprintf("c%d", i), PubKey: kp.Public()})
	}
	return cfg, rkeys, ckeys
}

type nopApp struct{}

func (nopApp) Execute(op []byte, nd NonDetValues, readOnly bool) []byte { return op }

// newTestReplica builds an unstarted replica on an in-memory network.
func newTestReplica(t *testing.T, cfg *Config, id uint32, kp *crypto.KeyPair) *Replica {
	t.Helper()
	net := transport.NewNetwork(int64(id) + 1)
	t.Cleanup(func() { net.Close() })
	conn, err := net.Listen(cfg.Replicas[id].Addr)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReplica(cfg, id, kp, conn, nopApp{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestConfigValidate(t *testing.T) {
	cfg, _, _ := testConfig(t, 1, 2)
	tests := []struct {
		name    string
		mutate  func(c *Config)
		wantErr bool
	}{
		{"valid", func(c *Config) {}, false},
		{"zero F", func(c *Config) { c.Opts.F = 0 }, true},
		{"too few replicas", func(c *Config) { c.Replicas = c.Replicas[:3] }, true},
		{"bad replica id", func(c *Config) { c.Replicas[2].ID = 7 }, true},
		{"client collides with replica", func(c *Config) { c.Clients[0].ID = 1 }, true},
		{"duplicate client", func(c *Config) { c.Clients[1].ID = c.Clients[0].ID }, true},
		{"zero checkpoint interval", func(c *Config) { c.Opts.CheckpointInterval = 0 }, true},
		{"zero state size", func(c *Config) { c.Opts.StateSize = 0 }, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := *cfg
			c.Replicas = append([]NodeInfo(nil), cfg.Replicas...)
			c.Clients = append([]NodeInfo(nil), cfg.Clients...)
			tt.mutate(&c)
			if err := c.Validate(); (err != nil) != tt.wantErr {
				t.Fatalf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestConfigDerivedValues(t *testing.T) {
	cfg, _, _ := testConfig(t, 2, 0)
	if cfg.N() != 7 || cfg.Quorum() != 5 {
		t.Fatalf("N=%d Quorum=%d", cfg.N(), cfg.Quorum())
	}
	if cfg.Primary(0) != 0 || cfg.Primary(7) != 0 || cfg.Primary(9) != 2 {
		t.Fatal("primary rotation wrong")
	}
	if cfg.LogWindow() != 16 { // 2 * CheckpointInterval(8)
		t.Fatalf("LogWindow = %d", cfg.LogWindow())
	}
	cfg.Opts.LogWindow = 100
	if cfg.LogWindow() != 100 {
		t.Fatalf("explicit LogWindow = %d", cfg.LogWindow())
	}
}

func TestIsBig(t *testing.T) {
	cfg, _, _ := testConfig(t, 1, 0)
	cfg.Opts.AllBig = true
	if !cfg.IsBig(1) {
		t.Fatal("AllBig must make everything big")
	}
	cfg.Opts.AllBig = false
	cfg.Opts.BigThreshold = 0
	if cfg.IsBig(1 << 20) {
		t.Fatal("threshold 0 without AllBig means never big")
	}
	cfg.Opts.BigThreshold = 100
	if cfg.IsBig(99) || !cfg.IsBig(100) {
		t.Fatal("threshold boundary wrong")
	}
}

func TestRobustOptions(t *testing.T) {
	o := DefaultOptions().Robust()
	if o.UseMACs || o.AllBig {
		t.Fatal("Robust must disable MACs and big-request handling")
	}
	if !o.Batching {
		t.Fatal("Robust keeps batching (the paper found it safe)")
	}
}

func TestNodeTable(t *testing.T) {
	nt := newNodeTable(3)
	nt.add(&nodeEntry{ID: 0, Addr: "r0"})
	nt.add(&nodeEntry{ID: 9, Addr: "c9", Dynamic: true, Principal: "alice", LastActive: 100})
	nt.add(&nodeEntry{ID: 5, Addr: "c5", Dynamic: true, Principal: "bob", LastActive: 300})
	if !nt.full() {
		t.Fatal("table at capacity must report full")
	}
	if nt.get(9) == nil || nt.get(77) != nil {
		t.Fatal("lookup wrong")
	}
	if got := nt.byPrincipal("alice"); len(got) != 1 || got[0].ID != 9 {
		t.Fatalf("byPrincipal = %v", got)
	}
	if got := nt.staleBefore(200); len(got) != 1 || got[0].ID != 9 {
		t.Fatalf("staleBefore = %v", got)
	}
	ids := nt.sortedIDs()
	if len(ids) != 3 || ids[0] != 0 || ids[1] != 5 || ids[2] != 9 {
		t.Fatalf("sortedIDs = %v", ids)
	}
	nt.remove(9)
	if nt.full() || nt.get(9) != nil {
		t.Fatal("remove failed")
	}
}

func TestNodeTableDynamicRoundTrip(t *testing.T) {
	kp, err := crypto.GenerateKeyPair(nil)
	if err != nil {
		t.Fatal(err)
	}
	nt := newNodeTable(10)
	nt.add(&nodeEntry{ID: 0, Addr: "r0"}) // static: excluded from the blob
	nt.add(&nodeEntry{ID: 900, Addr: "c900", Pub: kp.Public(), Dynamic: true, Principal: "p1", LastActive: 42})
	nt.add(&nodeEntry{ID: 901, Addr: "c901", Pub: kp.Public(), Dynamic: true, Principal: "p2", LastActive: 43})
	blob := nt.marshalDynamic()

	nt2 := newNodeTable(10)
	nt2.add(&nodeEntry{ID: 0, Addr: "r0"})
	nt2.add(&nodeEntry{ID: 555, Addr: "stale", Dynamic: true}) // replaced by install
	if err := nt2.unmarshalDynamic(blob); err != nil {
		t.Fatal(err)
	}
	if nt2.get(555) != nil {
		t.Fatal("stale dynamic entry must be replaced")
	}
	if nt2.get(0) == nil {
		t.Fatal("static entries must survive installs")
	}
	e := nt2.get(900)
	if e == nil || e.Addr != "c900" || e.Principal != "p1" || e.LastActive != 42 || !e.Dynamic {
		t.Fatalf("entry 900 = %+v", e)
	}
	// Determinism: the blob must be identical regardless of insertion
	// order (it feeds checkpoint digests).
	nt3 := newNodeTable(10)
	nt3.add(&nodeEntry{ID: 901, Addr: "c901", Pub: kp.Public(), Dynamic: true, Principal: "p2", LastActive: 43})
	nt3.add(&nodeEntry{ID: 900, Addr: "c900", Pub: kp.Public(), Dynamic: true, Principal: "p1", LastActive: 42})
	if string(nt3.marshalDynamic()) != string(blob) {
		t.Fatal("dynamic blob must be order-independent")
	}
	if err := nt2.unmarshalDynamic([]byte{0, 0}); err == nil {
		t.Fatal("truncated blob must be rejected")
	}
}

func TestEntryCertificates(t *testing.T) {
	e := newEntry(5)
	d1 := crypto.DigestOf([]byte("batch1"))
	d2 := crypto.DigestOf([]byte("other"))
	e.digest = d1
	e.prepares[1] = d1
	e.prepares[2] = d2 // conflicting digest must not count
	e.prepares[3] = d1
	if got := e.countPrepares(); got != 2 {
		t.Fatalf("countPrepares = %d, want 2", got)
	}
	e.commits[0] = d1
	e.commits[1] = d1
	e.commits[2] = d1
	e.commits[3] = d2
	if got := e.countCommits(); got != 3 {
		t.Fatalf("countCommits = %d, want 3", got)
	}
	pp := &wire.PrePrepare{View: 2, Seq: 5}
	e.resetForView(2, pp, []byte("raw"), d2)
	if e.countPrepares() != 0 || e.countCommits() != 0 || e.prepared || e.committed || e.sentPrepare || e.sentCommit {
		t.Fatal("resetForView must clear certificates")
	}
	if e.view != 2 || e.digest != d2 {
		t.Fatal("resetForView must install the new assignment")
	}
}

func TestReplicaMetaRoundTrip(t *testing.T) {
	cfg, rkeys, _ := testConfig(t, 1, 1)
	cfg.Opts.DynamicClients = true
	r := newTestReplica(t, cfg, 0, rkeys[0])
	defer r.Shutdown(context.Background())

	// Populate every replicated-metadata structure. Client 100 has a
	// pipelined window: timestamps 5 and 7 executed, 6 still outstanding.
	cw := r.clientWin(100)
	cw.record(5, &wire.Reply{Timestamp: 5, ClientID: 100, Result: []byte("old")}, cfg.ClientWindow())
	cw.record(7, &wire.Reply{Timestamp: 7, ClientID: 100, Result: []byte("cached")}, cfg.ClientWindow())
	kp, err := crypto.GenerateKeyPair(nil)
	if err != nil {
		t.Fatal(err)
	}
	pubRaw := crypto.MarshalPublicKey(kp.Public())
	r.nodes.add(&nodeEntry{ID: 900, Addr: "dyn", Pub: kp.Public(), Dynamic: true, Principal: "p", LastActive: 5})
	r.pendingJoins["k1"] = &pendingJoin{
		addr: "a", pubRaw: pubRaw, pub: kp.Public(), nonce: 3,
		appAuth: []byte("auth"), challenge: crypto.DigestOf([]byte("ch")), ts: 9,
	}
	r.idSeed = 17

	blob := r.marshalMeta()

	r2 := newTestReplica(t, cfg, 1, rkeys[1])
	defer r2.Shutdown(context.Background())
	if err := r2.unmarshalMeta(blob); err != nil {
		t.Fatal(err)
	}
	cw2 := r2.clientWins[100]
	if cw2 == nil || cw2.maxTS != 7 {
		t.Fatalf("client window lost: %+v", cw2)
	}
	if !cw2.executed(5, cfg.ClientWindow()) || !cw2.executed(7, cfg.ClientWindow()) {
		t.Fatal("executed timestamps lost")
	}
	if cw2.executed(6, cfg.ClientWindow()) {
		t.Fatal("outstanding timestamp 6 must stay executable")
	}
	rep := cw2.cachedReply(7)
	if rep == nil || string(rep.Result) != "cached" {
		t.Fatalf("reply cache lost: %+v", rep)
	}
	if rep.Replica != r2.id {
		t.Fatal("restored replies must be rehydrated with the local replica id")
	}
	if r2.nodes.get(900) == nil {
		t.Fatal("dynamic membership lost")
	}
	pj := r2.pendingJoins["k1"]
	if pj == nil || pj.nonce != 3 || pj.addr != "a" || string(pj.appAuth) != "auth" || pj.ts != 9 {
		t.Fatalf("pending join lost: %+v", pj)
	}
	if r2.idSeed != 17 {
		t.Fatal("id seed lost")
	}
	// Determinism: marshal must be stable.
	if string(r2.marshalMeta()) != string(blob) {
		t.Fatal("meta blob must round-trip byte-identically")
	}
	if err := r2.unmarshalMeta(blob[:4]); err == nil {
		t.Fatal("truncated meta must be rejected")
	}
}

func TestAuthenticatorSealVerify(t *testing.T) {
	cfg, rkeys, ckeys := testConfig(t, 1, 1)
	r0 := newTestReplica(t, cfg, 0, rkeys[0])
	r1 := newTestReplica(t, cfg, 1, rkeys[1])
	defer r0.Shutdown(context.Background())
	defer r1.Shutdown(context.Background())

	// Replica-to-replica MAC mode (verified by the ingress stage).
	env := r0.sealToReplicas(wire.MTPrepare, []byte("payload"))
	if !r1.ingress.verifyFromReplica(env) {
		t.Fatal("peer must verify an authentic MAC envelope")
	}
	if r0.ingress.verifyFromReplica(env) {
		t.Fatal("a replica must not accept its own sender id")
	}
	tampered := *env
	tampered.Payload = []byte("tampered")
	if r1.ingress.verifyFromReplica(&tampered) {
		t.Fatal("tampered payload must fail")
	}

	// Signed mode.
	signed := r0.sealSigned(wire.MTViewChange, []byte("vc"))
	if !r1.verifySignedReplica(signed) {
		t.Fatal("peer must verify a signed envelope")
	}
	badSig := *signed
	badSig.Sender = 2
	if r1.verifySignedReplica(&badSig) {
		t.Fatal("wrong claimed sender must fail")
	}

	// Client without a session in MAC mode is refused (the §2.3 gate).
	clientEnv := &wire.Envelope{Type: wire.MTRequest, Sender: 4, Payload: []byte("op"), Kind: wire.AuthMAC}
	if r0.ingress.verifyFromClient(clientEnv) {
		t.Fatal("client MAC without session key material must fail")
	}

	// Client with a signature verifies against the published auth view.
	sigEnv := &wire.Envelope{Type: wire.MTRequest, Sender: 4, Payload: []byte("op"), Kind: wire.AuthSig}
	sigEnv.Sig = ckeys[0].Sign(sigEnv.SignedBytes())
	if !r0.ingress.verifyFromClient(sigEnv) {
		t.Fatal("signed client envelope must verify")
	}
	// Unknown sender id: the redirection-table check fires before any
	// cryptography (§3.1).
	ghost := *sigEnv
	ghost.Sender = 999
	if r0.ingress.verifyFromClient(&ghost) {
		t.Fatal("unknown client id must be dropped")
	}
}

func TestComputeO(t *testing.T) {
	mkPP := func(view, seq uint64, op string) []byte {
		pp := wire.PrePrepare{View: view, Seq: seq, Entries: []wire.BatchEntry{
			{Full: true, Req: wire.Request{ClientID: 1, Timestamp: seq, Op: []byte(op)}},
		}}
		env := wire.Envelope{Type: wire.MTPrePrepare, Sender: 0, Payload: pp.Marshal()}
		return env.Marshal()
	}
	votes := []*vcRecord{
		{vc: &wire.ViewChange{NewView: 2, LastStable: 8, Replica: 0, Prepared: []wire.PreparedInfo{
			{Seq: 9, View: 0, PPRaw: mkPP(0, 9, "old9")},
			{Seq: 11, View: 1, PPRaw: mkPP(1, 11, "new11")},
		}}},
		{vc: &wire.ViewChange{NewView: 2, LastStable: 8, Replica: 1, Prepared: []wire.PreparedInfo{
			{Seq: 9, View: 1, PPRaw: mkPP(1, 9, "new9")}, // higher view wins
		}}},
		{vc: &wire.ViewChange{NewView: 2, LastStable: 6, Replica: 2}},
	}
	o := computeO(2, votes)
	// min-s = 8 (max last stable), max-s = 11 -> seqs 9, 10, 11.
	if len(o) != 3 {
		t.Fatalf("|O| = %d, want 3", len(o))
	}
	if o[0].Seq != 9 || string(o[0].Entries[0].Req.Op) != "new9" {
		t.Fatalf("seq 9 = %+v (must pick the higher-view prepared batch)", o[0])
	}
	if o[1].Seq != 10 || len(o[1].Entries) != 0 {
		t.Fatalf("seq 10 must be a null request: %+v", o[1])
	}
	if o[2].Seq != 11 || string(o[2].Entries[0].Req.Op) != "new11" {
		t.Fatalf("seq 11 = %+v", o[2])
	}
	for _, pp := range o {
		if pp.View != 2 {
			t.Fatal("re-proposed pre-prepares must carry the new view")
		}
	}
	if got := computeO(2, votes[2:]); len(got) != 0 {
		t.Fatalf("no prepared certificates -> empty O, got %d", len(got))
	}
}

func TestAllocateClientIDAvoidsCollisions(t *testing.T) {
	cfg, rkeys, _ := testConfig(t, 1, 0)
	cfg.Opts.DynamicClients = true
	r := newTestReplica(t, cfg, 0, rkeys[0])
	defer r.Shutdown(context.Background())
	seen := make(map[uint32]bool)
	for i := 0; i < 200; i++ {
		id := r.allocateClientID([]byte("same-pubkey"))
		if int(id) < r.n || id == JoinSender {
			t.Fatalf("allocated reserved id %d", id)
		}
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		seen[id] = true
		r.nodes.add(&nodeEntry{ID: id, Dynamic: true})
	}
	// Determinism: a fresh replica with the same seed sequence produces
	// the same ids (all replicas must agree, §3.1).
	r2 := newTestReplica(t, cfg, 1, rkeys[1])
	defer r2.Shutdown(context.Background())
	id2 := r2.allocateClientID([]byte("same-pubkey"))
	for id := range seen {
		if id == id2 {
			return // first allocation matches one of r's (the first)
		}
	}
	t.Fatalf("allocation not deterministic: %d", id2)
}

func TestJoinChallengeDeterminism(t *testing.T) {
	a := joinChallengeDigest([]byte("pk"), 1, 10)
	b := joinChallengeDigest([]byte("pk"), 1, 10)
	if a != b {
		t.Fatal("challenge must be deterministic")
	}
	if joinChallengeDigest([]byte("pk"), 2, 10) == a {
		t.Fatal("challenge must depend on the nonce")
	}
	if joinChallengeDigest([]byte("pk"), 1, 11) == a {
		t.Fatal("challenge must depend on the sequence number")
	}
	resp := JoinResponseDigest(a, 1)
	if resp == JoinResponseDigest(a, 2) || resp == JoinResponseDigest(b, 3) {
		t.Fatal("response must bind challenge and nonce")
	}
}

func TestNonDetDefaults(t *testing.T) {
	cfg, rkeys, _ := testConfig(t, 1, 0)
	cfg.Opts.MaxTimeDrift = time.Second
	r := newTestReplica(t, cfg, 0, rkeys[0])
	defer r.Shutdown(context.Background())
	base := time.Unix(1000, 0)
	r.now = func() time.Time { return base }

	nd := r.defaultNonDetProvider()
	if nd.Time != uint64(base.UnixNano()) {
		t.Fatal("provider must use the clock")
	}
	var zero [32]byte
	if nd.Rand == zero {
		t.Fatal("provider must derive a random seed")
	}
	if !r.defaultNonDetValidator(nd) {
		t.Fatal("fresh timestamp must validate")
	}
	stale := wire.NonDet{Time: uint64(base.Add(-2 * time.Second).UnixNano())}
	if r.defaultNonDetValidator(stale) {
		t.Fatal("stale timestamp must fail the time-delta check (§2.5)")
	}
	future := wire.NonDet{Time: uint64(base.Add(2 * time.Second).UnixNano())}
	if r.defaultNonDetValidator(future) {
		t.Fatal("future timestamp must fail")
	}
	r.cfg.Opts.ValidateNonDet = false
	if !r.defaultNonDetValidator(stale) {
		t.Fatal("validation disabled must accept anything")
	}
}

func TestReplicaRejectsBadIDs(t *testing.T) {
	cfg, rkeys, _ := testConfig(t, 1, 0)
	net := transport.NewNetwork(1)
	defer net.Close()
	conn, err := net.Listen("x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewReplica(cfg, 99, rkeys[0], conn, nopApp{}); err == nil {
		t.Fatal("out-of-range replica id must be rejected")
	}
}

func TestInspectOnStoppedReplica(t *testing.T) {
	cfg, rkeys, _ := testConfig(t, 1, 0)
	r := newTestReplica(t, cfg, 0, rkeys[0])
	go r.Run(context.Background())
	r.Inspect(func(Info) {}) // the loop is live
	if err := r.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	info := r.Info() // must not deadlock after stop
	if info.View != 0 {
		t.Fatalf("view = %d", info.View)
	}
}
