package core

import (
	"context"
	"testing"

	"repro/internal/wire"
)

func TestClientWindowDedup(t *testing.T) {
	const w = 4
	cw := newClientWindow()

	// Out-of-order execution within the window: 3 before 1.
	cw.record(3, &wire.Reply{Timestamp: 3}, w)
	if cw.executed(1, w) {
		t.Fatal("ts 1 is inside the window and unexecuted")
	}
	cw.record(1, &wire.Reply{Timestamp: 1}, w)
	if !cw.executed(1, w) || !cw.executed(3, w) {
		t.Fatal("recorded timestamps must read back executed")
	}
	if cw.executed(2, w) || cw.executed(4, w) {
		t.Fatal("unexecuted in-window timestamps must stay executable")
	}

	// Slide the window: maxTS=10 puts the floor at 6.
	cw.record(10, &wire.Reply{Timestamp: 10}, w)
	if !cw.executed(6, w) {
		t.Fatal("at the floor counts as executed (too old)")
	}
	if cw.executed(7, w) {
		t.Fatal("ts 7 is inside (floor, maxTS] and unexecuted")
	}
	if cw.cachedReply(1) != nil || cw.cachedReply(3) != nil {
		t.Fatal("replies below the floor must be pruned")
	}
	if cw.cachedReply(10) == nil {
		t.Fatal("in-window reply must be retained")
	}
	if len(cw.done) != 1 {
		t.Fatalf("window retains %d entries, want 1", len(cw.done))
	}
}

func TestClientWindowBelowWZero(t *testing.T) {
	cw := newClientWindow()
	cw.record(2, nil, 16)
	// maxTS < W: the floor is 0, nothing is "too old", and ts 1 is still
	// executable. Guards the unsigned-underflow edge.
	if cw.executed(1, 16) {
		t.Fatal("ts 1 must remain executable while maxTS < W")
	}
	if !cw.executed(2, 16) {
		t.Fatal("recorded nil-reply timestamp still counts as executed")
	}
}

// TestPipelineWindowReplicaDedup drives the replica-side execution path the
// way a pipelined client's ordering would: duplicates inside and below the
// window must not re-execute, gaps must stay executable.
func TestPipelineWindowReplicaDedup(t *testing.T) {
	cfg, rkeys, _ := testConfig(t, 1, 1)
	cfg.Opts.ClientWindow = 4
	r := newTestReplica(t, cfg, 0, rkeys[0])
	defer r.Shutdown(context.Background())

	exec := func(ts uint64) *wire.Reply {
		e := newEntry(1)
		req := &wire.Request{ClientID: 100, Timestamp: ts, Op: []byte("op")}
		r.submitRequest(req, NonDetValues{}, false, e)
		r.reapApplies()
		if len(e.replies) == 0 {
			return nil // deduplicated: nothing was scheduled
		}
		return e.replies[0]
	}

	if exec(3) == nil || exec(1) == nil {
		t.Fatal("fresh in-window timestamps must execute (any order)")
	}
	if exec(3) != nil || exec(1) != nil {
		t.Fatal("duplicates inside the window must not re-execute")
	}
	if exec(10) == nil {
		t.Fatal("fresh high timestamp must execute")
	}
	if exec(5) != nil {
		t.Fatal("timestamp below the slid floor must be a duplicate")
	}
	if exec(8) == nil {
		t.Fatal("unexecuted timestamp inside the slid window must execute")
	}
	if got := r.stats.Executed; got != 4 {
		t.Fatalf("Executed = %d, want 4", got)
	}
}
