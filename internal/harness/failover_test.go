package harness

import (
	"context"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/wire"
)

// failoverOpts is fastOpts with the shipped failure-detection timing: the
// scenarios below assert wall-clock bounds on it, and the shipped
// intervals (150 ms gossip, a 500 ms suspicion window) leave a loaded
// -race run the slack that fastOpts' 50 ms would not.
func failoverOpts() core.Options {
	d := core.DefaultOptions()
	o := fastOpts()
	o.AllBig = false // primary-routed requests: the ones a dead primary swallows
	o.ViewChangeTimeout = d.ViewChangeTimeout
	o.StatusInterval = d.StatusInterval
	return o
}

// oneViewChange asserts that every listed replica went through exactly one
// view change, into view 1, and returns the causes of the starts. A call
// completes on 2f+1 replies, so the last replica may still be installing.
func oneViewChange(t *testing.T, c *Cluster, tracer func(uint32) *recordingTracer, ids []uint32) []trace.ViewChangeCause {
	t.Helper()
	var causes []trace.ViewChangeCause
	for _, id := range ids {
		for deadline := time.Now().Add(5 * time.Second); c.Replicas[id].Info().View == 0 && time.Now().Before(deadline); {
			time.Sleep(5 * time.Millisecond)
		}
		events := tracer(id).viewChanges()
		if len(events) != 2 || events[0].Kind != trace.EvViewChangeStart || events[0].Target != 1 ||
			events[1].Kind != trace.EvViewChangeInstall || events[1].View != 1 {
			t.Fatalf("replica %d: view-change events %+v, want exactly [start 0->1, install 1]", id, events)
		}
		if view := c.Replicas[id].Info().View; view != 1 {
			t.Fatalf("replica %d is in view %d, want 1", id, view)
		}
		causes = append(causes, events[0].Cause)
	}
	return causes
}

// TestFailoverPrimaryCrashUnderPipelinedLoad kills the primary under two
// pipelined clients. The outage must end inside one client timeout plus the
// suspicion window: crash suspicion starts the view change when the clients'
// first broadcast arrives, the new primary orders what it already holds,
// and no vote is lost across the install — so no call waits for a second
// retransmission round, and nobody needs a second view change.
func TestFailoverPrimaryCrashUnderPipelinedLoad(t *testing.T) {
	o := failoverOpts()
	o.RequestTimeout = time.Second // second round at 2 s: beyond the bound
	suspicion := max(o.ViewChangeTimeout/4, 3*o.StatusInterval)
	bound := o.RequestTimeout + suspicion + 200*time.Millisecond
	c, tracer := adversaryCluster(t, o, 301)
	defer c.Stop()

	const window = 8
	var (
		wg       sync.WaitGroup
		stop     atomic.Bool
		acked    atomic.Uint64
		failures = make(chan error, 2)
	)
	clients := make([]*client.Client, 2)
	slowest := make([]time.Duration, len(clients)) // per client, read after wg.Wait
	for i := range clients {
		cl, err := c.Client(i, client.WithPipelineDepth(window))
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		clients[i] = cl
		type sent struct {
			call *client.Call
			at   time.Time
		}
		calls := make(chan sent, window)
		wg.Add(2)
		go func() { // submitter: Submit blocks while the window is full
			defer wg.Done()
			defer close(calls)
			for !stop.Load() {
				at := time.Now()
				calls <- sent{cl.Submit(context.Background(), []byte("inc")), at}
			}
		}()
		go func() { // waiter
			defer wg.Done()
			for s := range calls {
				if _, err := s.call.Result(); err != nil {
					select {
					case failures <- err:
					default:
					}
					continue
				}
				acked.Add(1)
				slowest[i] = max(slowest[i], time.Since(s.at))
			}
		}()
	}
	time.Sleep(300 * time.Millisecond)
	c.StopReplica(0)
	time.Sleep(bound + 500*time.Millisecond)
	stop.Store(true)
	wg.Wait()
	select {
	case err := <-failures:
		t.Fatalf("a call failed across the failover: %v", err)
	default:
	}

	if took := max(slowest[0], slowest[1]); took > bound {
		t.Fatalf("slowest call took %v, want at most %v (RequestTimeout %v + suspicion window %v + 200 ms)",
			took, bound, o.RequestTimeout, suspicion)
	}
	survivors := []uint32{1, 2, 3}
	silent := false
	for _, cause := range oneViewChange(t, c, tracer, survivors) {
		if cause != trace.CausePrimarySilent && cause != trace.CauseJoined {
			t.Fatalf("view change started for cause %s, want primary_silent (or joined_f+1 behind it)", cause)
		}
		silent = silent || cause == trace.CausePrimarySilent
	}
	if !silent {
		t.Fatal("no survivor suspected the silent primary")
	}
	// Exactly-once across the failover, and byte-identical state.
	resp := invokeMust(t, clients[0], "get")
	if got := binary.BigEndian.Uint64(resp); got != acked.Load() {
		t.Fatalf("counter = %d, want %d acknowledged increments", got, acked.Load())
	}
	for i := uint64(0); i < o.CheckpointInterval; i++ {
		invokeMust(t, clients[0], "get")
	}
	stable := c.Replicas[1].Info().LastExec / o.CheckpointInterval * o.CheckpointInterval
	waitStableDigests(t, c, survivors, stable, 10*time.Second)
}

// TestFailoverWithholdingPrimaryKeepsFullTimeout: a primary that suppresses
// its pre-prepares but keeps gossiping is slow, not silent. Crash suspicion
// must not shorten its timeout: the view change waits ViewChangeTimeout
// from the moment the backups learn of the request.
func TestFailoverWithholdingPrimaryKeepsFullTimeout(t *testing.T) {
	o := failoverOpts()
	c, tracer := adversaryCluster(t, o, 302)
	defer c.Stop()
	gate := adversary.NewGate(adversary.NewWithholder(wire.MTPrePrepare))
	replaceWithAdversary(t, c, 0, gate)
	cl, err := c.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	invokeMust(t, cl, "inc")
	gate.Arm()

	begin := time.Now()
	call := cl.Submit(context.Background(), []byte("inc"))
	// The backups hear of the request at RequestTimeout; a suspicion-driven
	// view change would follow within the suspicion window (500 ms).
	time.Sleep(o.RequestTimeout + o.ViewChangeTimeout - 300*time.Millisecond)
	for _, id := range []uint32{1, 2, 3} {
		if events := tracer(id).viewChanges(); len(events) != 0 {
			t.Fatalf("replica %d started a view change %v into the request, before the request timer ran out: %+v",
				time.Since(begin), id, events)
		}
	}
	if _, err := call.Result(); err != nil {
		t.Fatalf("inc under a withholding primary: %v", err)
	}
	for _, cause := range oneViewChange(t, c, tracer, []uint32{1, 2, 3}) {
		if cause != trace.CauseRequestTimeout && cause != trace.CauseJoined {
			t.Fatalf("view change started for cause %s, want request_timeout (or joined_f+1 behind it)", cause)
		}
	}
}

// newViewBehindPrePrepare delays the NEW-VIEW a new primary sends to one
// backup until just behind the first pre-prepare it sends there.
type newViewBehindPrePrepare struct {
	to string

	mu        sync.Mutex
	parked    []byte
	reordered bool
}

func (b *newViewBehindPrePrepare) Outgoing(to string, data []byte) [][]byte {
	var env wire.Envelope
	if to != b.to || wire.UnmarshalEnvelopeInto(&env, data) != nil {
		return [][]byte{data}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case env.Type == wire.MTNewView && !b.reordered:
		b.parked = append([]byte(nil), data...)
		return nil
	case env.Type == wire.MTPrePrepare && b.parked != nil:
		nv := b.parked
		b.parked, b.reordered = nil, true
		return [][]byte{data, nv}
	}
	return [][]byte{data}
}

// TestFailoverNewViewBehindFirstPrePrepare: with one replica down the new
// view has no vote to spare, and the new primary proposes the moment it
// installs — so its first pre-prepare can overtake NEW-VIEW on the way to a
// backup. The backup must park it and replay it on install. Gossip is too
// slow here (3 s) to paper over a dropped one: without hold-and-replay the
// view stalls until a second view change.
func TestFailoverNewViewBehindFirstPrePrepare(t *testing.T) {
	o := failoverOpts()
	o.ViewChangeTimeout = 600 * time.Millisecond
	o.StatusInterval = 3 * time.Second
	c, tracer := adversaryCluster(t, o, 303)
	defer c.Stop()
	reorder := &newViewBehindPrePrepare{to: ReplicaAddr(3)}
	replaceWithAdversary(t, c, 1, reorder) // replica 1 is the primary of view 1

	cl, err := c.Client(0, client.WithPipelineDepth(4))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	invokeMust(t, cl, "inc")
	c.StopReplica(0)
	calls := make([]*client.Call, 4)
	for i := range calls {
		calls[i] = cl.Submit(context.Background(), []byte("inc"))
	}
	for i, call := range calls {
		if _, err := call.Result(); err != nil {
			t.Fatalf("call %d across the failover: %v", i, err)
		}
	}
	reorder.mu.Lock()
	reordered := reorder.reordered
	reorder.mu.Unlock()
	if !reordered {
		t.Fatal("the interposer never put NEW-VIEW behind a pre-prepare: the scenario did not run")
	}
	oneViewChange(t, c, tracer, []uint32{1, 2, 3})
}

// dropOnePrePrepare suppresses the first non-empty pre-prepare sent to one
// backup.
type dropOnePrePrepare struct {
	to      string
	dropped atomic.Bool
}

func (b *dropOnePrePrepare) Outgoing(to string, data []byte) [][]byte {
	var env wire.Envelope
	if to == b.to && wire.UnmarshalEnvelopeInto(&env, data) == nil && env.Type == wire.MTPrePrepare &&
		b.dropped.CompareAndSwap(false, true) {
		return nil
	}
	return [][]byte{data}
}

// TestStatusGossipRecoversLostPrePrepare: one replica is down and one
// pre-prepare to one backup is lost, which leaves the sequence number one
// prepare short everywhere, and every replica at the same LastExec — so the
// lagging-peer retransmission never triggers. Gossip between level peers
// must resend the stuck entry; the group must not need a view change.
func TestStatusGossipRecoversLostPrePrepare(t *testing.T) {
	o := fastOpts()
	o.AllBig = false
	c, tracer := adversaryCluster(t, o, 304)
	defer c.Stop()
	gate := adversary.NewGate(&dropOnePrePrepare{to: ReplicaAddr(2)})
	replaceWithAdversary(t, c, 0, gate)
	cl, err := c.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	invokeMust(t, cl, "inc")
	c.StopReplica(3)
	gate.Arm()

	begin := time.Now()
	resp := invokeMust(t, cl, "inc")
	if got := binary.BigEndian.Uint64(resp); got != 2 {
		t.Fatalf("inc = %d, want 2", got)
	}
	took := time.Since(begin)
	for _, id := range []uint32{0, 1, 2} {
		if events := tracer(id).viewChanges(); len(events) != 0 {
			t.Fatalf("replica %d needed a view change to get past one lost pre-prepare (call took %v): %+v", id, took, events)
		}
	}
	invokeMust(t, cl, "inc")
}
