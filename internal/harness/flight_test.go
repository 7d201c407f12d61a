package harness

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/pbft/metrics"
)

// recorderCluster builds a cluster with one flight recorder per replica
// (kept by id for assertions) using the given per-recorder config.
func recorderCluster(t *testing.T, seed int64, cfg trace.Config, tweak ...func(*core.Options)) (*Cluster, map[uint32]*trace.Recorder, *sync.Mutex) {
	t.Helper()
	recs := make(map[uint32]*trace.Recorder)
	var mu sync.Mutex
	o := fastOpts()
	o.ViewChangeTimeout = 600 * time.Millisecond
	for _, f := range tweak {
		f(&o)
	}
	c, err := NewCluster(ClusterOptions{
		Opts:       o,
		NumClients: 1,
		Seed:       seed,
		App:        NewCounterFactory(),
		Recorder: func(id uint32) *trace.Recorder {
			rc := cfg
			rc.Replica = int(id)
			rec := trace.New(rc)
			mu.Lock()
			recs[id] = rec // a restart replaces the entry: fresh incarnation, fresh recorder
			mu.Unlock()
			return rec
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, recs, &mu
}

// TestFlightDebugEndpointFullTimeline is the acceptance path: requests
// flow through a real cluster, the primary's recorder is registered with
// a metrics registry, and /debug/flight returns the full per-phase
// timeline of a completed request.
func TestFlightDebugEndpointFullTimeline(t *testing.T) {
	// Commit-then-execute ordering: with tentative execution the reply
	// (which finalizes the timeline) legitimately precedes the commit
	// quorum, so the full-lifecycle assertion runs without it.
	c, recs, mu := recorderCluster(t, 95, trace.Config{}, func(o *core.Options) {
		o.TentativeExecution = false
	})
	defer c.Stop()
	cl, err := c.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 5; i++ {
		invokeMust(t, cl, "inc")
	}

	m := metrics.New()
	mu.Lock()
	primary := recs[0]
	mu.Unlock()
	m.AddFlight(0, primary.Dump)
	srv := httptest.NewServer(metrics.Mux(m, nil))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("GET /debug/flight: status=%d err=%v", resp.StatusCode, err)
	}
	var dumps []trace.Dump
	if err := json.Unmarshal(body, &dumps); err != nil {
		t.Fatalf("/debug/flight not JSON: %v\n%s", err, body)
	}
	if len(dumps) != 1 || dumps[0].Replica != 0 {
		t.Fatalf("want one dump for replica 0, got %+v", dumps)
	}
	clientID := uint32(len(c.Cfg.Replicas)) // pre-provisioned client 0
	var tl *trace.TimelineDump
	for i := range dumps[0].Completed {
		if dumps[0].Completed[i].Client == clientID {
			tl = &dumps[0].Completed[i]
		}
	}
	if tl == nil {
		t.Fatalf("no completed timeline for client %d in %+v", clientID, dumps[0])
	}
	// The primary observes the entire replica-side lifecycle: every
	// phase from ingress arrival to the reply leaving must be stamped,
	// at non-decreasing offsets.
	want := []string{
		"ingress_arrive", "verify_done", "loop_dispatch",
		"batch_enqueue", "preprepare_sent", "prepare_quorum", "commit_quorum",
		"exec_schedule", "exec_done", "reply_sealed", "reply_sent",
	}
	got := make(map[string]int64, len(tl.Phases))
	var prev int64
	for _, pm := range tl.Phases {
		got[pm.Phase] = pm.AtNs
		if pm.AtNs < prev {
			t.Fatalf("phase %s at %d precedes previous mark %d (timeline %+v)", pm.Phase, pm.AtNs, prev, tl)
		}
		prev = pm.AtNs
	}
	for _, name := range want {
		if _, ok := got[name]; !ok {
			t.Fatalf("timeline missing phase %q: %+v", name, tl.Phases)
		}
	}
	if tl.EndToEnd <= 0 {
		t.Fatalf("end-to-end = %d, want > 0", tl.EndToEnd)
	}
	if len(tl.Segments) < len(want)-1 {
		t.Fatalf("segments = %d, want at least %d", len(tl.Segments), len(want)-1)
	}
}

// TestFlightRecorderSpansViewChange crashes the primary under load and
// asserts the new primary's flight recorder captured the failover: a
// timeline committed in view 0, the view-change events, and a timeline
// committed in view 1 — with the install event between them in time.
func TestFlightRecorderSpansViewChange(t *testing.T) {
	c, recs, mu := recorderCluster(t, 96, trace.Config{})
	defer c.Stop()
	cl, err := c.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	invokeMust(t, cl, "inc") // commits in view 0
	c.StopReplica(0)         // primary of view 0
	for i := 0; i < 3; i++ {
		invokeMust(t, cl, "inc") // timeouts drive the view change; commits in view 1
	}

	mu.Lock()
	rec := recs[1] // primary of view 1
	mu.Unlock()
	d := rec.Dump()

	var installAt int64 = -1
	sawStart := false
	for _, e := range d.Events {
		switch e.Kind {
		case "view_change_start":
			sawStart = true
			if e.Cause == "" {
				t.Fatalf("view-change start without a cause: %+v", e)
			}
		case "view_change_install":
			if e.View == 1 {
				installAt = e.AtNs
			}
		}
	}
	if !sawStart || installAt < 0 {
		t.Fatalf("events missing view-change start/install of view 1: %+v", d.Events)
	}

	var lastV0, firstV1 int64 = -1, -1
	for _, tl := range d.Completed {
		last := int64(0)
		for _, pm := range tl.Phases {
			if pm.AtNs > last {
				last = pm.AtNs
			}
		}
		if tl.View == 0 && last > lastV0 {
			lastV0 = last
		}
		if tl.View == 1 && (firstV1 < 0 || last < firstV1) {
			firstV1 = last
		}
	}
	if lastV0 < 0 || firstV1 < 0 {
		t.Fatalf("ring must span the failover with view-0 and view-1 timelines: %+v", d.Completed)
	}
	if !(lastV0 < installAt && installAt < firstV1) {
		t.Fatalf("install at %d must fall between the view-0 timeline (%d) and the view-1 timeline (%d)",
			installAt, lastV0, firstV1)
	}
}

// TestFlightRingWrapUnderChurn drives more requests than a small ring
// holds and asserts the ring kept the newest timelines while the
// completed total kept counting.
func TestFlightRingWrapUnderChurn(t *testing.T) {
	const ring = 8
	c, recs, mu := recorderCluster(t, 97, trace.Config{Ring: ring})
	defer c.Stop()
	cl, err := c.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const total = 40
	for i := 0; i < total; i++ {
		invokeMust(t, cl, "inc")
	}

	mu.Lock()
	rec := recs[1] // a backup sees every request exactly once
	mu.Unlock()
	// The client returns on the first f+1 replies; the backup's own
	// reply (which finalizes its timeline) may still be in flight.
	deadline := time.Now().Add(5 * time.Second)
	d := rec.Dump()
	for d.CompletedTotal < total {
		if time.Now().After(deadline) {
			t.Fatalf("completed total = %d, want >= %d", d.CompletedTotal, total)
		}
		time.Sleep(5 * time.Millisecond)
		d = rec.Dump()
	}
	if len(d.Completed) != ring {
		t.Fatalf("ring holds %d timelines, want exactly %d after wrap", len(d.Completed), ring)
	}
	var maxTS uint64
	for _, tl := range d.Completed {
		if tl.Timestamp > maxTS {
			maxTS = tl.Timestamp
		}
	}
	// The newest completed request must still be in the ring (wrap
	// evicts oldest-first). Timestamps are the client's sequential
	// counter, so the last request carries the largest one.
	if _, ok := rec.Lookup(uint32(len(c.Cfg.Replicas)), maxTS); !ok {
		t.Fatalf("newest timeline (ts=%d) missing from the ring", maxTS)
	}
}
