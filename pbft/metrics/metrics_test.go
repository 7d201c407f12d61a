package metrics

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/pbft"
)

func TestCountersAndSnapshotDelta(t *testing.T) {
	m := New()
	m.OnEvent(pbft.Event{Kind: pbft.EvBatch, Replica: 0, Seq: 1, Count: 3, Tentative: true})
	m.OnEvent(pbft.Event{Kind: pbft.EvCommit, Replica: 0, Seq: 1})
	m.OnEvent(pbft.Event{Kind: pbft.EvViewChangeStart, Replica: 1, Target: 1})
	m.OnEvent(pbft.Event{Kind: pbft.EvViewChangeInstall, Replica: 1, View: 1})
	m.OnEvent(pbft.Event{Kind: pbft.EvCheckpoint, Replica: 0, Seq: 8})
	m.OnEvent(pbft.Event{Kind: pbft.EvCheckpointStable, Replica: 0, Seq: 8})
	m.OnEvent(pbft.Event{Kind: pbft.EvStateTransferStart, Replica: 2, Seq: 8})
	m.OnEvent(pbft.Event{Kind: pbft.EvStateTransferFinish, Replica: 2, Seq: 8})
	m.OnEvent(pbft.Event{Kind: pbft.EvSessionHello, Replica: 0, ClientID: 9})

	s := m.Snapshot()
	if s.Commits != 1 || s.Batches != 1 || s.Requests != 3 || s.TentativeBatches != 1 {
		t.Fatalf("batch/commit counters wrong: %+v", s)
	}
	if s.ViewChangesStarted != 1 || s.ViewChangesInstalled != 1 {
		t.Fatalf("view-change counters wrong: %+v", s)
	}
	if s.Checkpoints != 1 || s.StableCheckpoints != 1 {
		t.Fatalf("checkpoint counters wrong: %+v", s)
	}
	if s.StateTransfersStarted != 1 || s.StateTransfersCompleted != 1 || s.StateTransfersAborted != 0 {
		t.Fatalf("transfer counters wrong: %+v", s)
	}
	if s.SessionHellos != 1 {
		t.Fatalf("session counters wrong: %+v", s)
	}
	m.ObservePhase(0, pbft.PhaseCommitQuorum, 2*time.Millisecond)
	m.ObservePhase(1, pbft.PhaseCommitQuorum, 4*time.Millisecond)
	m.ObservePhase(0, pbft.PhaseEndToEnd, 10*time.Millisecond)
	s = m.Snapshot()
	if got := s.Phases[pbft.PhaseCommitQuorum.String()].Count; got != 2 {
		t.Fatalf("commit_quorum phase samples = %d, want 2 (merged across replicas)", got)
	}
	if got := s.Phases[pbft.PhaseEndToEnd.String()].Count; got != 1 {
		t.Fatalf("end_to_end phase samples = %d, want 1", got)
	}
	if s.ViewChangeDuration.Count != 1 {
		t.Fatalf("view-change duration samples = %d, want 1", s.ViewChangeDuration.Count)
	}
	if got := s.BatchSize.Mean(); got != 3 {
		t.Fatalf("batch size mean = %v, want 3", got)
	}

	// Windowed delta: only what happened after `before`.
	before := m.Snapshot()
	m.OnEvent(pbft.Event{Kind: pbft.EvCommit, Replica: 0, Seq: 2})
	delta := m.Snapshot().Sub(before)
	if delta.Commits != 1 || delta.Batches != 0 {
		t.Fatalf("delta = %+v, want exactly one new commit", delta)
	}
	if delta.BatchSize.Count != 0 {
		t.Fatalf("delta histogram count = %d, want 0", delta.BatchSize.Count)
	}
}

func TestPrometheusExpositionAndHealthz(t *testing.T) {
	m := New()
	m.OnEvent(pbft.Event{Kind: pbft.EvBatch, Replica: 0, Seq: 1, Count: 2})
	m.AddReplica(0, func() pbft.ReplicaInfo {
		info := pbft.ReplicaInfo{View: 3, LastExec: 17, LastStable: 16, ExecQueueDepth: 5, IngressBacklog: 7}
		info.Stats.DroppedBadAuth = 11
		info.Stats.DroppedMalformed = 13
		info.Stats.RejectedNonDet = 2
		info.Stats.ConflictingPrePrepares = 1
		return info
	})
	healthy := true
	srv := httptest.NewServer(Mux(m, func() bool { return healthy }))
	defer srv.Close()

	body := httpGet(t, srv.URL+"/metrics", 200)
	for _, want := range []string{
		"pbft_batches_total 1",
		"pbft_requests_total 2",
		"pbft_batch_size_bucket{le=\"2\"} 1",
		"pbft_batch_size_count 1",
		"pbft_exec_queue_depth{replica=\"0\"} 5",
		"pbft_ingress_backlog{replica=\"0\"} 7",
		"pbft_view{replica=\"0\"} 3",
		"pbft_last_exec{replica=\"0\"} 17",
		"pbft_auth_failures_total{replica=\"0\"} 11",
		"pbft_drops_total{replica=\"0\",reason=\"auth\"} 11",
		"pbft_drops_total{replica=\"0\",reason=\"malformed\"} 13",
		"pbft_drops_total{replica=\"0\",reason=\"ignored\"} 0",
		"pbft_drops_total{replica=\"0\",reason=\"nondet\"} 2",
		"pbft_drops_total{replica=\"0\",reason=\"conflicting_preprepare\"} 1",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, body)
		}
	}

	if got := httpGet(t, srv.URL+"/healthz", 200); !strings.Contains(got, "ok") {
		t.Fatalf("/healthz = %q", got)
	}
	healthy = false
	httpGet(t, srv.URL+"/healthz", 503)
}

// TestDurableExposition covers the durable-replica series gating: a
// diskless registry's exposition carries none of them (scrapes stay
// byte-identical to pre-durability output), while a durable replica in
// the same registry renders the full set — without leaking the series
// onto its diskless peers.
func TestDurableExposition(t *testing.T) {
	durableSeries := []string{
		"pbft_restarts_total",
		"pbft_recovery_seconds",
		"pbft_wal_fsyncs_total",
		"pbft_wal_bytes_total",
		"pbft_wal_checkpoints_total",
		"pbft_persist_errors_total",
		"pbft_image_flushes_total",
		"pbft_image_flush_pages_total",
		"pbft_image_flush_seconds",
	}
	disklessInfo := func() pbft.ReplicaInfo {
		info := pbft.ReplicaInfo{View: 1, LastExec: 9}
		info.Stats.DroppedForgedJoins = 3
		return info
	}

	diskless := New()
	diskless.AddReplica(0, disklessInfo)
	var a strings.Builder
	diskless.WritePrometheus(&a)
	for _, s := range durableSeries {
		if strings.Contains(a.String(), s) {
			t.Fatalf("diskless exposition leaks durable series %q:\n%s", s, a.String())
		}
	}
	if !strings.Contains(a.String(), "pbft_drops_total{replica=\"0\",reason=\"forged_join\"} 3") {
		t.Fatalf("exposition missing forged_join drops row:\n%s", a.String())
	}

	mixed := New()
	mixed.AddReplica(0, disklessInfo)
	mixed.AddReplica(1, func() pbft.ReplicaInfo {
		var info pbft.ReplicaInfo
		info.Stats.DurableNow = true
		info.Stats.Restarts = 2
		info.Stats.RecoveryNanos = 1_500_000_000
		info.Stats.WALFsyncs = 7
		info.Stats.WALBytes = 4096
		info.Stats.WALCheckpoints = 1
		info.Stats.PersistErrors = 0
		return info
	})
	// A replica whose application keeps a disk image but has no data
	// directory: the image series and the shared persist-error counter,
	// none of the WAL ones.
	mixed.AddReplica(2, func() pbft.ReplicaInfo {
		var info pbft.ReplicaInfo
		info.Stats.ImageNow = true
		info.Stats.ImageFlushes = 5
		info.Stats.ImageFlushPages = 17
		info.Stats.ImageFlushNanos = 2_500_000
		info.Stats.PersistErrors = 1
		return info
	})
	var b strings.Builder
	mixed.WritePrometheus(&b)
	for _, want := range []string{
		"pbft_image_flushes_total{replica=\"2\"} 5",
		"pbft_image_flush_pages_total{replica=\"2\"} 17",
		"pbft_image_flush_seconds{replica=\"2\"} 0.0025",
		"pbft_persist_errors_total{replica=\"2\"} 1",
		"pbft_restarts_total{replica=\"1\"} 2",
		"pbft_recovery_seconds{replica=\"1\"} 1.5",
		"pbft_wal_fsyncs_total{replica=\"1\"} 7",
		"pbft_wal_bytes_total{replica=\"1\"} 4096",
		"pbft_wal_checkpoints_total{replica=\"1\"} 1",
		"pbft_persist_errors_total{replica=\"1\"} 0",
	} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("mixed exposition missing %q:\n%s", want, b.String())
		}
	}
	for _, leak := range []string{
		"pbft_restarts_total{replica=\"0\"}",
		"pbft_persist_errors_total{replica=\"0\"}",
		"pbft_wal_fsyncs_total{replica=\"2\"}",
		"pbft_image_flushes_total{replica=\"1\"}",
	} {
		if strings.Contains(b.String(), leak) {
			t.Fatalf("series %q leaked onto a replica without that store:\n%s", leak, b.String())
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4, 8})
	for _, v := range []float64{0.5, 1.5, 1.5, 3, 3, 3, 6, 7, 7, 20} {
		h.observe(v)
	}
	s := h.snapshot()
	if q := s.Quantile(0); q < 0 || q > 1 {
		t.Fatalf("q0 = %v", q)
	}
	if q := s.Quantile(0.5); q < 2 || q > 4 {
		t.Fatalf("median = %v, want within (2,4]", q)
	}
	if q := s.Quantile(1); q != 8 {
		t.Fatalf("q1 = %v, want clamp to last bound 8", q)
	}
	if q := (HistogramSnapshot{}).Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %v", q)
	}
}

func TestClientMetrics(t *testing.T) {
	c := NewClient()
	c.Observe(2*time.Millisecond, nil)
	c.Observe(3*time.Millisecond, errors.New("boom"))
	s := c.Snapshot()
	if s.Requests != 2 || s.Failures != 1 || s.Latency.Count != 2 {
		t.Fatalf("client snapshot wrong: %+v", s)
	}
	var sb strings.Builder
	c.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), "pbft_client_requests_total 2") {
		t.Fatalf("client exposition missing counter:\n%s", sb.String())
	}
}

// TestPhaseExpositionAndFlightEndpoint drives a real flight recorder
// through one request lifecycle wired to the registry as its phase sink,
// then asserts both exposition surfaces: pbft_phase_seconds on /metrics
// and the timeline JSON on /debug/flight.
func TestPhaseExpositionAndFlightEndpoint(t *testing.T) {
	m := New()
	rec := pbft.NewFlightRecorder(pbft.FlightRecorderConfig{Replica: 2, Sink: m})
	rec.Stamp(7, 42, pbft.PhaseIngressArrive)
	rec.Stamp(7, 42, pbft.PhaseVerifyDone)
	rec.Stamp(7, 42, pbft.PhaseCommitQuorum)
	rec.Finish(7, 42, pbft.PhaseReplySent)
	m.AddFlight(2, rec.Dump)

	srv := httptest.NewServer(Mux(m, nil))
	defer srv.Close()

	body := httpGet(t, srv.URL+"/metrics", 200)
	for _, want := range []string{
		`pbft_phase_seconds_count{phase="verify_done",replica="2"} 1`,
		`pbft_phase_seconds_count{phase="commit_quorum",replica="2"} 1`,
		`pbft_phase_seconds_count{phase="end_to_end",replica="2"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, body)
		}
	}

	flight := httpGet(t, srv.URL+"/debug/flight", 200)
	var dumps []pbft.FlightDump
	if err := json.Unmarshal([]byte(flight), &dumps); err != nil {
		t.Fatalf("/debug/flight not JSON: %v\n%s", err, flight)
	}
	if len(dumps) != 1 || dumps[0].Replica != 2 {
		t.Fatalf("want one dump for replica 2, got %+v", dumps)
	}
	if len(dumps[0].Completed) != 1 || dumps[0].Completed[0].Client != 7 {
		t.Fatalf("completed timeline missing: %+v", dumps[0])
	}
	if got := httpGet(t, srv.URL+"/debug/flight?replica=9", 200); !strings.Contains(got, "[]") {
		t.Fatalf("filter by unknown replica should be empty, got %q", got)
	}
	httpGet(t, srv.URL+"/debug/flight?replica=bogus", 400)
}

// TestClientMetricsConcurrency pins the ClientMetrics thread-safety
// contract under -race: concurrent Observe, Snapshot, Quantile and
// WritePrometheus must not trip the race detector. (Observe and
// Snapshot serialize on the registry mutex; Quantile runs on a copied
// snapshot whose Bounds slice is shared but immutable.)
func TestClientMetricsConcurrency(t *testing.T) {
	c := NewClient()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				var err error
				if i%7 == 0 {
					err = errors.New("boom")
				}
				c.Observe(time.Duration(i)*time.Microsecond, err)
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := c.Snapshot()
				_ = s.Latency.Quantile(0.99)
				c.WritePrometheus(io.Discard)
			}
		}()
	}
	wg.Wait()
	if s := c.Snapshot(); s.Requests != 2000 {
		t.Fatalf("requests = %d, want 2000", s.Requests)
	}
}

func httpGet(t *testing.T, url string, wantStatus int) string {
	t.Helper()
	r, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != wantStatus {
		t.Fatalf("GET %s = %d, want %d", url, r.StatusCode, wantStatus)
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}
