package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/crypto"
	"repro/internal/transport"
	"repro/internal/wire"
)

// protocolDriver runs one real replica and impersonates its peers,
// injecting authenticated protocol messages directly — a white-box
// message-level test harness.
type protocolDriver struct {
	t     *testing.T
	cfg   *Config
	rkeys []*crypto.KeyPair
	net   *transport.Network
	rep   *Replica
	conns map[uint32]transport.Conn // fake peer endpoints
}

// newProtocolDriver starts replica `id` for real and endpoints for every
// other replica.
func newProtocolDriver(t *testing.T, id uint32) *protocolDriver {
	t.Helper()
	cfg, rkeys, _ := testConfig(t, 1, 1)
	cfg.Opts.TentativeExecution = true
	cfg.Opts.ViewChangeTimeout = time.Hour // driven manually
	cfg.Opts.StatusInterval = time.Hour    // no background chatter
	net := transport.NewNetwork(5)
	t.Cleanup(func() { net.Close() })

	conn, err := net.Listen(cfg.Replicas[id].Addr)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewReplica(cfg, id, rkeys[id], conn, nopApp{})
	if err != nil {
		t.Fatal(err)
	}
	go rep.Run(context.Background())
	t.Cleanup(func() { _ = rep.Shutdown(context.Background()) })

	d := &protocolDriver{t: t, cfg: cfg, rkeys: rkeys, net: net, rep: rep, conns: make(map[uint32]transport.Conn)}
	for i := range cfg.Replicas {
		if uint32(i) == id {
			continue
		}
		c, err := net.Listen(cfg.Replicas[i].Addr)
		if err != nil {
			t.Fatal(err)
		}
		d.conns[uint32(i)] = c
	}
	return d
}

// sealFrom authenticates an envelope exactly as peer `from` would.
func (d *protocolDriver) sealFrom(from uint32, t wire.MsgType, payload []byte, signed bool) []byte {
	env := &wire.Envelope{Type: t, Sender: from, Payload: payload}
	if signed || !d.cfg.Opts.UseMACs {
		env.Kind = wire.AuthSig
		env.Sig = d.rkeys[from].Sign(env.SignedBytes())
		return env.Marshal()
	}
	keys := make([]crypto.SessionKey, len(d.cfg.Replicas))
	for i, ri := range d.cfg.Replicas {
		if uint32(i) == from {
			continue
		}
		k, err := d.rkeys[from].SharedKey(ri.PubKey)
		if err != nil {
			d.t.Fatal(err)
		}
		keys[i] = k
	}
	env.Kind = wire.AuthMAC
	env.Auth = crypto.ComputeAuthenticator(keys, env.SignedBytes())
	return env.Marshal()
}

// inject delivers a sealed message from peer `from` to the replica.
func (d *protocolDriver) inject(from uint32, raw []byte) {
	if err := d.conns[from].Send(d.cfg.Replicas[d.rep.id].Addr, raw); err != nil {
		d.t.Fatal(err)
	}
}

// waitFor polls Info until cond holds.
func (d *protocolDriver) waitFor(cond func(Info) bool, what string) Info {
	deadline := time.Now().Add(5 * time.Second)
	for {
		info := d.rep.Info()
		if cond(info) {
			return info
		}
		if time.Now().After(deadline) {
			d.t.Fatalf("timed out waiting for %s; info=%+v", what, info)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// prepareSeq drives sequence number seq to the prepared state at the
// replica (pre-prepare from the primary plus one backup prepare; with the
// replica's own prepare that makes 2f = 2).
func (d *protocolDriver) prepareSeq(seq uint64, op string) *wire.PrePrepare {
	nd := wire.NonDet{Time: uint64(time.Now().UnixNano())}
	pp := &wire.PrePrepare{
		View:   0,
		Seq:    seq,
		NonDet: nd.Marshal(),
		Entries: []wire.BatchEntry{
			{Full: true, Req: wire.Request{ClientID: 4, Timestamp: seq, Op: []byte(op)}},
		},
	}
	d.inject(0, d.sealFrom(0, wire.MTPrePrepare, pp.Marshal(), false))
	prep := wire.Prepare{View: 0, Seq: seq, Digest: pp.BatchDigest(), Replica: 1}
	d.inject(1, d.sealFrom(1, wire.MTPrepare, prep.Marshal(), false))
	return pp
}

// commitSeq adds 2f+1 commits (replica's own plus two peers).
func (d *protocolDriver) commitSeq(pp *wire.PrePrepare) {
	for _, peer := range []uint32{0, 1} {
		cm := wire.Commit{View: 0, Seq: pp.Seq, Digest: pp.BatchDigest(), Replica: peer}
		d.inject(peer, d.sealFrom(peer, wire.MTCommit, cm.Marshal(), false))
	}
}

func TestTentativeExecutionThenCommitUpgrade(t *testing.T) {
	d := newProtocolDriver(t, 3)
	pp := d.prepareSeq(1, "op-a")
	// Prepared => tentative execution.
	d.waitFor(func(i Info) bool { return i.LastExec == 1 }, "tentative execution")
	// Commits upgrade it; no re-execution (Executed stays 1).
	d.commitSeq(pp)
	info := d.waitFor(func(i Info) bool { return i.Stats.Executed == 1 }, "commit upgrade")
	if info.LastExec != 1 {
		t.Fatalf("lastExec = %d", info.LastExec)
	}
}

func TestTentativeRollbackOnViewChange(t *testing.T) {
	d := newProtocolDriver(t, 3)
	// Seq 1 commits fully; seq 2 only prepares (tentative execution).
	pp1 := d.prepareSeq(1, "committed")
	d.commitSeq(pp1)
	d.waitFor(func(i Info) bool { return i.LastExec == 1 }, "seq 1 executed")
	d.prepareSeq(2, "tentative")
	d.waitFor(func(i Info) bool { return i.LastExec == 2 }, "seq 2 tentatively executed")

	// Two peers vote for view 1: the f+1 rule pulls the replica into
	// the view change, which must roll back the tentative execution of
	// seq 2 (back to the committed prefix, seq 1).
	for _, peer := range []uint32{1, 2} {
		vc := wire.ViewChange{NewView: 1, LastStable: 0, Replica: peer}
		d.inject(peer, d.sealFrom(peer, wire.MTViewChange, vc.Marshal(), true))
	}
	info := d.waitFor(func(i Info) bool { return i.InViewChange }, "view change entered")
	if info.LastExec != 1 {
		t.Fatalf("rollback must rewind to the committed prefix: lastExec = %d, want 1", info.LastExec)
	}
	if info.Stats.ViewChanges == 0 {
		t.Fatal("view change not recorded")
	}
}

func TestConflictingPrePrepareIgnored(t *testing.T) {
	d := newProtocolDriver(t, 3)
	pp := d.prepareSeq(1, "first")
	d.waitFor(func(i Info) bool { return i.LastExec == 1 }, "first assignment executed")

	// An equivocating primary re-assigns seq 1 to different content in
	// the same view: the replica must keep the first assignment.
	evil := &wire.PrePrepare{
		View:   0,
		Seq:    1,
		NonDet: pp.NonDet,
		Entries: []wire.BatchEntry{
			{Full: true, Req: wire.Request{ClientID: 4, Timestamp: 99, Op: []byte("evil")}},
		},
	}
	d.inject(0, d.sealFrom(0, wire.MTPrePrepare, evil.Marshal(), false))
	time.Sleep(50 * time.Millisecond)
	info := d.rep.Info()
	if info.LastExec != 1 || info.Stats.Executed != 1 {
		t.Fatalf("conflicting assignment must not change execution: %+v", info)
	}
}

func TestWatermarkRejection(t *testing.T) {
	d := newProtocolDriver(t, 3)
	// Far beyond the high watermark (lastStable 0 + L = 16): ignored.
	pp := &wire.PrePrepare{View: 0, Seq: 1000, NonDet: (&wire.NonDet{Time: uint64(time.Now().UnixNano())}).Marshal()}
	d.inject(0, d.sealFrom(0, wire.MTPrePrepare, pp.Marshal(), false))
	time.Sleep(50 * time.Millisecond)
	if info := d.rep.Info(); info.LastExec != 0 {
		t.Fatalf("out-of-window pre-prepare must be ignored: %+v", info)
	}
}

func TestStaleNonDetRejected(t *testing.T) {
	d := newProtocolDriver(t, 3)
	stale := wire.NonDet{Time: uint64(time.Now().Add(-time.Hour).UnixNano())}
	pp := &wire.PrePrepare{
		View:   0,
		Seq:    1,
		NonDet: stale.Marshal(),
		Entries: []wire.BatchEntry{
			{Full: true, Req: wire.Request{ClientID: 4, Timestamp: 1, Op: []byte("x")}},
		},
	}
	d.inject(0, d.sealFrom(0, wire.MTPrePrepare, pp.Marshal(), false))
	d.waitFor(func(i Info) bool { return i.Stats.RejectedNonDet == 1 }, "nondet rejection")
	if info := d.rep.Info(); info.LastExec != 0 {
		t.Fatalf("stale nondet must block execution: %+v", info)
	}
}

func TestDuplicateRequestExecutedOnce(t *testing.T) {
	// A faulty primary assigns the same client request to two sequence
	// numbers; execution-time deduplication must apply it once.
	d := newProtocolDriver(t, 3)
	pp1 := d.prepareSeq(1, "same-op") // client 4, timestamp 1
	d.commitSeq(pp1)
	d.waitFor(func(i Info) bool { return i.Stats.Executed == 1 }, "first execution")

	// Same (client, timestamp) at seq 2.
	nd := wire.NonDet{Time: uint64(time.Now().UnixNano())}
	pp2 := &wire.PrePrepare{
		View: 0, Seq: 2, NonDet: nd.Marshal(),
		Entries: []wire.BatchEntry{
			{Full: true, Req: wire.Request{ClientID: 4, Timestamp: 1, Op: []byte("same-op")}},
		},
	}
	d.inject(0, d.sealFrom(0, wire.MTPrePrepare, pp2.Marshal(), false))
	prep := wire.Prepare{View: 0, Seq: 2, Digest: pp2.BatchDigest(), Replica: 1}
	d.inject(1, d.sealFrom(1, wire.MTPrepare, prep.Marshal(), false))
	d.waitFor(func(i Info) bool { return i.LastExec == 2 }, "second batch processed")
	if info := d.rep.Info(); info.Stats.Executed != 1 {
		t.Fatalf("duplicate executed %d times, want 1", info.Stats.Executed)
	}
}

// buildViewChangeVotes signs view-change votes for the target view from
// the given peers.
func (d *protocolDriver) buildViewChangeVotes(target uint64, peers []uint32) [][]byte {
	votes := make([][]byte, 0, len(peers))
	for _, peer := range peers {
		vc := wire.ViewChange{NewView: target, LastStable: 0, Replica: peer}
		votes = append(votes, d.sealFrom(peer, wire.MTViewChange, vc.Marshal(), true))
	}
	return votes
}

func TestNewViewAccepted(t *testing.T) {
	// Replica 3 receives a well-formed new-view for view 1 (primary =
	// replica 1) supported by 2f+1 = 3 votes: it must install the view.
	d := newProtocolDriver(t, 3)
	nv := wire.NewView{View: 1, ViewChanges: d.buildViewChangeVotes(1, []uint32{0, 1, 2})}
	d.inject(1, d.sealFrom(1, wire.MTNewView, nv.Marshal(), true))
	d.waitFor(func(i Info) bool { return i.View == 1 && !i.InViewChange }, "view 1 installed")
}

func TestNewViewRejectsInsufficientVotes(t *testing.T) {
	d := newProtocolDriver(t, 3)
	nv := wire.NewView{View: 1, ViewChanges: d.buildViewChangeVotes(1, []uint32{0, 1})} // only 2f
	d.inject(1, d.sealFrom(1, wire.MTNewView, nv.Marshal(), true))
	time.Sleep(50 * time.Millisecond)
	if info := d.rep.Info(); info.View != 0 {
		t.Fatalf("new-view with 2f votes must be rejected: %+v", info)
	}
}

func TestNewViewRejectsWrongPrimary(t *testing.T) {
	d := newProtocolDriver(t, 3)
	nv := wire.NewView{View: 1, ViewChanges: d.buildViewChangeVotes(1, []uint32{0, 1, 2})}
	// Replica 2 is not the primary of view 1.
	d.inject(2, d.sealFrom(2, wire.MTNewView, nv.Marshal(), true))
	time.Sleep(50 * time.Millisecond)
	if info := d.rep.Info(); info.View != 0 {
		t.Fatalf("new-view from a non-primary must be rejected: %+v", info)
	}
}

func TestNewViewRejectsDuplicateVoters(t *testing.T) {
	d := newProtocolDriver(t, 3)
	votes := d.buildViewChangeVotes(1, []uint32{0, 1})
	votes = append(votes, votes[0]) // pad the quorum with a duplicate
	nv := wire.NewView{View: 1, ViewChanges: votes}
	d.inject(1, d.sealFrom(1, wire.MTNewView, nv.Marshal(), true))
	time.Sleep(50 * time.Millisecond)
	if info := d.rep.Info(); info.View != 0 {
		t.Fatalf("duplicate voters must not count twice: %+v", info)
	}
}

func TestNewViewRejectsForgedO(t *testing.T) {
	// The new primary smuggles a batch into O that no vote prepared:
	// the replica recomputes O from the votes and must refuse.
	d := newProtocolDriver(t, 3)
	forged := wire.PrePrepare{View: 1, Seq: 1, Entries: []wire.BatchEntry{
		{Full: true, Req: wire.Request{ClientID: 4, Timestamp: 1, Op: []byte("smuggled")}},
	}}
	nv := wire.NewView{
		View:        1,
		ViewChanges: d.buildViewChangeVotes(1, []uint32{0, 1, 2}),
		PrePrepares: []wire.PrePrepare{forged},
	}
	d.inject(1, d.sealFrom(1, wire.MTNewView, nv.Marshal(), true))
	time.Sleep(50 * time.Millisecond)
	if info := d.rep.Info(); info.View != 0 || info.LastExec != 0 {
		t.Fatalf("forged O must be rejected: %+v", info)
	}
}

func TestNewViewReproposesPreparedBatch(t *testing.T) {
	// A vote carries a prepared certificate for seq 1; the new-view's O
	// must re-propose it and the replica must re-run agreement in the
	// new view (it sends a prepare; with the old-view prepare quorum
	// voided, execution waits for the new-view certificate).
	d := newProtocolDriver(t, 3)
	nd := wire.NonDet{Time: uint64(time.Now().UnixNano())}
	orig := wire.PrePrepare{View: 0, Seq: 1, NonDet: nd.Marshal(), Entries: []wire.BatchEntry{
		{Full: true, Req: wire.Request{ClientID: 4, Timestamp: 1, Op: []byte("carried")}},
	}}
	origEnv := wire.Envelope{Type: wire.MTPrePrepare, Sender: 0, Payload: orig.Marshal()}
	votes := make([][]byte, 0, 3)
	for _, peer := range []uint32{0, 1, 2} {
		vc := wire.ViewChange{NewView: 1, LastStable: 0, Replica: peer}
		if peer != 2 {
			vc.Prepared = []wire.PreparedInfo{{Seq: 1, View: 0, Digest: orig.BatchDigest(), PPRaw: origEnv.Marshal()}}
		}
		votes = append(votes, d.sealFrom(peer, wire.MTViewChange, vc.Marshal(), true))
	}
	// Recompute O the way the primary would (exported helper under test
	// elsewhere): re-proposed with view 1.
	repro := wire.PrePrepare{View: 1, Seq: 1, NonDet: orig.NonDet, Entries: orig.Entries}
	nv := wire.NewView{View: 1, ViewChanges: votes, PrePrepares: []wire.PrePrepare{repro}}
	d.inject(1, d.sealFrom(1, wire.MTNewView, nv.Marshal(), true))
	d.waitFor(func(i Info) bool { return i.View == 1 }, "view installed")

	// Complete agreement in view 1: one more backup prepare (replica 3's
	// own prepare makes 2f), then commits.
	prep := wire.Prepare{View: 1, Seq: 1, Digest: repro.BatchDigest(), Replica: 0}
	d.inject(0, d.sealFrom(0, wire.MTPrepare, prep.Marshal(), false))
	for _, peer := range []uint32{0, 2} {
		cm := wire.Commit{View: 1, Seq: 1, Digest: repro.BatchDigest(), Replica: peer}
		d.inject(peer, d.sealFrom(peer, wire.MTCommit, cm.Marshal(), false))
	}
	d.waitFor(func(i Info) bool { return i.LastExec == 1 }, "re-proposed batch executed")
}

func TestStatusTriggersRetransmission(t *testing.T) {
	// Peer 1 reports lastExec=0 while the replica has executed seq 1;
	// the replica must retransmit its log (pre-prepare + its prepare and
	// commit) to peer 1.
	d := newProtocolDriver(t, 3)
	pp := d.prepareSeq(1, "op")
	d.commitSeq(pp)
	d.waitFor(func(i Info) bool { return i.LastExec == 1 && i.Stats.Executed == 1 }, "executed")

	st := wire.Status{View: 0, LastExec: 0, LastStable: 0, Replica: 1}
	d.inject(1, d.sealFrom(1, wire.MTStatus, st.Marshal(), false))

	deadline := time.Now().Add(2 * time.Second)
	var got []wire.MsgType
	for time.Now().Before(deadline) {
		select {
		case pkt := <-d.conns[1].Recv():
			env, err := wire.UnmarshalEnvelope(pkt.Data)
			if err != nil {
				continue
			}
			got = append(got, env.Type)
			seen := map[wire.MsgType]bool{}
			for _, ty := range got {
				seen[ty] = true
			}
			if seen[wire.MTPrePrepare] && seen[wire.MTPrepare] && seen[wire.MTCommit] {
				return
			}
		case <-time.After(100 * time.Millisecond):
		}
	}
	t.Fatalf("retransmission incomplete; saw %v", got)
}

func TestBadAuthenticationCounted(t *testing.T) {
	d := newProtocolDriver(t, 3)
	// A prepare sealed with the WRONG key (peer 2 claims to be peer 1).
	prep := wire.Prepare{View: 0, Seq: 1, Digest: crypto.DigestOf([]byte("x")), Replica: 1}
	env := &wire.Envelope{Type: wire.MTPrepare, Sender: 1, Payload: prep.Marshal()}
	keys := make([]crypto.SessionKey, len(d.cfg.Replicas))
	for i, ri := range d.cfg.Replicas {
		if i == 2 {
			continue
		}
		k, err := d.rkeys[2].SharedKey(ri.PubKey) // forger's keys
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = k
	}
	env.Kind = wire.AuthMAC
	env.Auth = crypto.ComputeAuthenticator(keys, env.SignedBytes())
	d.inject(2, env.Marshal())
	d.waitFor(func(i Info) bool { return i.Stats.DroppedBadAuth >= 1 }, "bad auth drop")
}
