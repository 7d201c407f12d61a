package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/wire"
)

// newIdleReplica builds an unstarted replica whose handlers the test calls
// directly.
func newIdleReplica(t *testing.T, id uint32) *Replica {
	t.Helper()
	cfg, rkeys, _ := testConfig(t, 1, 1)
	r := newTestReplica(t, cfg, id, rkeys[id])
	t.Cleanup(func() { _ = r.Shutdown(context.Background()) })
	return r
}

// TestHeldRequestsAndVotesBounded: a client that floods distinct timestamps
// gets ClientWindow held requests at a backup and no more, every one of them
// goes when its stamp goes, and a replica that floods votes for the view
// being voted cannot park more than the log window holds.
func TestHeldRequestsAndVotesBounded(t *testing.T) {
	r := newIdleReplica(t, 2)
	client := r.nodes.get(4)
	w := int(r.cfg.ClientWindow())

	for ts := uint64(1); ts <= 1000; ts++ {
		r.onRequest(&wire.Request{ClientID: 4, Timestamp: ts, Op: []byte("op")}, client, nil)
	}
	if len(r.pendingSeen) != w || r.pendingPerCli[4] != w {
		t.Fatalf("after 1000 distinct timestamps: %d stamps, per-client count %d, want %d of each", len(r.pendingSeen), r.pendingPerCli[4], w)
	}
	for k, p := range r.pendingSeen {
		if p.req == nil || p.req.Timestamp != k.ts {
			t.Fatalf("stamp %+v holds request %+v", k, p.req)
		}
	}
	// Execution (or a pre-prepare, or a deduplicated retransmission)
	// releases stamp and request together, and frees the client's slots.
	for ts := uint64(1); ts <= uint64(w); ts++ {
		r.forgetPending(reqKey{4, ts})
	}
	if len(r.pendingSeen) != 0 || len(r.pendingPerCli) != 0 {
		t.Fatalf("after release: %d stamps, %d per-client counters, want none", len(r.pendingSeen), len(r.pendingPerCli))
	}
	r.onRequest(&wire.Request{ClientID: 4, Timestamp: 2000, Op: []byte("op")}, client, nil)
	if len(r.pendingSeen) != 1 {
		t.Fatalf("a released client cannot pend a new request: %d stamps", len(r.pendingSeen))
	}

	// Votes: only while voting, only for the view being voted, only inside
	// the log window, one per (kind, sequence number, sender).
	view1 := func(seq uint64, from uint32) (*wire.Prepare, *wire.Commit) {
		return &wire.Prepare{View: 1, Seq: seq, Replica: from}, &wire.Commit{View: 1, Seq: seq, Replica: from}
	}
	p, c := view1(1, 3)
	r.onPrepare(p)
	r.onCommit(c)
	if len(r.held) != 0 {
		t.Fatalf("%d votes parked outside a view change", len(r.held))
	}
	r.startViewChange(1, trace.CauseRequestTimeout)
	window := r.cfg.LogWindow()
	for round := 0; round < 3; round++ { // repeats overwrite, they do not add
		for seq := uint64(0); seq <= 4*window; seq++ {
			for from := uint32(0); from < 4; from++ {
				p, c := view1(seq, from)
				r.onPrepare(p)
				r.onCommit(c)
				pp := &wire.PrePrepare{View: 1, Seq: seq}
				r.acceptPrePrepare(pp, from, nil)
				pp2 := &wire.PrePrepare{View: 2, Seq: seq} // not the view being voted
				r.acceptPrePrepare(pp2, r.cfg.Primary(2), nil)
			}
		}
	}
	// 4 prepares + 4 commits per sequence number, and one pre-prepare: only
	// replica 1 is the primary of view 1.
	if want := int(window) * 9; len(r.held) != want {
		t.Fatalf("%d messages parked, want %d (log window %d x 9)", len(r.held), want, window)
	}
	for k := range r.held {
		if !r.inWindow(k.seq) || (k.kind == wire.MTPrePrepare && k.replica != 1) {
			t.Fatalf("parked %+v: outside the window or not from the primary of view 1", k)
		}
	}
	// A higher target voids what was parked for the lower one.
	r.startViewChange(2, trace.CauseStalled)
	if len(r.held) != 0 {
		t.Fatalf("%d votes for view 1 survive the move to view 2", len(r.held))
	}
}

// TestNewPrimaryReproposesHeldRequests: on install the new primary orders
// what it was waiting on as a backup — except what the O set re-proposes
// and what the client window reports executed — without any retransmission.
func TestNewPrimaryReproposesHeldRequests(t *testing.T) {
	r := newIdleReplica(t, 1) // primary of view 1
	client := r.nodes.get(4)
	reqs := make([]*wire.Request, 4)
	for i := range reqs {
		reqs[i] = &wire.Request{ClientID: 4, Timestamp: uint64(i + 1), Op: []byte{byte(i)}}
	}
	// Handed over out of order: re-proposal sorts by (client, timestamp).
	for _, i := range []int{3, 0, 2, 1} {
		r.onRequest(reqs[i], client, nil)
	}
	if len(r.pendingSeen) != 4 || len(r.pendingQueue) != 0 {
		t.Fatalf("backup holds %d stamps and queued %d requests, want 4 and 0", len(r.pendingSeen), len(r.pendingQueue))
	}
	// Timestamp 1 executed meanwhile (say, learnt through a checkpoint);
	// timestamp 2 was prepared in view 0 and comes back in the O set.
	r.clientWin(4).record(1, &wire.Reply{ClientID: 4, Timestamp: 1}, r.cfg.ClientWindow())
	nd := wire.NonDet{Time: uint64(time.Now().UnixNano())}
	nv := &wire.NewView{View: 1, PrePrepares: []wire.PrePrepare{{
		View: 1, Seq: 1, NonDet: nd.Marshal(),
		Entries: []wire.BatchEntry{{Full: true, Req: *reqs[1]}},
	}}}
	r.installNewView(nv, nil)

	if r.view != 1 || !r.isPrimary() {
		t.Fatalf("view %d, primary %v after the install", r.view, r.isPrimary())
	}
	if _, ok := r.pendingSeen[reqKey{4, 1}]; ok {
		t.Fatal("the executed request is still pending")
	}
	// Queued in timestamp order behind the congestion window, which the O
	// set's batch occupies until it prepares.
	if len(r.pendingQueue) != 2 || r.pendingQueue[0].Timestamp != 3 || r.pendingQueue[1].Timestamp != 4 {
		t.Fatalf("queue %+v, want timestamps 3 and 4", r.pendingQueue)
	}
	for _, from := range []uint32{2, 3} {
		r.onPrepare(&wire.Prepare{View: 1, Seq: 1, Digest: r.log[1].digest, Replica: from})
	}
	var proposed []uint64
	for seq := uint64(2); r.log[seq] != nil; seq++ {
		for _, be := range r.log[seq].pp.Entries {
			proposed = append(proposed, be.Req.Timestamp)
		}
	}
	for _, req := range r.pendingQueue {
		proposed = append(proposed, req.Timestamp)
	}
	if r.lastExec != 1 || r.log[2] == nil || len(proposed) != 2 || proposed[0] != 3 || proposed[1] != 4 {
		t.Fatalf("lastExec %d, proposed and queued after sequence number 1: %v, want [3 4]", r.lastExec, proposed)
	}
	if r.log[1].pp.Entries[0].Req.Timestamp != 2 {
		t.Fatal("the O set's request must keep sequence number 1")
	}
}
