// Package metrics is the aggregating observability surface of the PBFT
// node runtime: a pbft.Tracer implementation that folds the event stream
// into counters and latency histograms (one switch over the event
// kind), polls replica gauges (execution-engine queue depth, ingress
// verify backlog), and exposes everything over HTTP in the Prometheus
// text format, rendered from one table of series per source type.
//
// One Metrics registry may serve one replica (cmd/pbft-server) or
// aggregate several (the bench harness registers every replica of a
// cluster); events carry the reporting replica's id and OnEvent is safe
// for concurrent use. Typical wiring:
//
//	m := metrics.New()
//	cfg.Opts.Tracer = m
//	rep, _ := pbft.NewReplica(cfg, id, kp, conn, app)
//	m.AddReplica(id, rep.Info)
//	go http.ListenAndServe(addr, metrics.Mux(m, rep.Running))
//	go rep.Run(ctx)
//
// OnEvent runs on the replica's protocol loop, so it does only constant
// work under a mutex: counter bumps and bounded histogram inserts.
// Everything else (gauge polling, text rendering) happens on the
// scraper's goroutine.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/pbft"
)

// phaseKey identifies one replica's per-phase latency series.
type phaseKey struct {
	replica uint32
	phase   pbft.Phase
}

// Metrics implements pbft.Tracer by aggregation. The zero value is not
// usable; construct with New.
type Metrics struct {
	mu sync.Mutex

	// counts holds the event counters in the Snapshot shape they are
	// handed out in; snapshotLocked fills the rest.
	counts Snapshot

	batchSize  *histogram
	vcDuration *histogram // seconds, start -> install per replica

	// phases holds one latency histogram per (replica, phase), fed by
	// flight recorders through ObservePhase as request timelines
	// complete. It replaces the old tentative->commit histogram: the
	// prepare->commit interval is now one segment of the full
	// per-request breakdown (pbft_phase_seconds).
	phases map[phaseKey]*histogram

	// vcStart maps a replica's view-change start time until the install
	// closes it (bounded by the replica count).
	vcStart map[uint32]time.Time

	now func() time.Time

	infoMu     sync.Mutex
	infos      []*replicaInfoSource
	transports []transportSource
	flights    []flightSource
}

// flightSource is one registered flight recorder's dump function,
// served by the /debug/flight endpoint.
type flightSource struct {
	id   uint32
	dump func() pbft.FlightDump
}

// transportSource is one registered UDP endpoint's syscall-batching
// counter snapshot function. BatchStats reads are plain atomic loads, so
// unlike replica gauges they need no timeout machinery.
type transportSource struct {
	id    uint32
	stats func() pbft.BatchStats
}

// replicaInfoSource wraps one replica's Info func with single-flight,
// timeout-bounded polling: Replica.Info round-trips through the protocol
// loop, so a busy (or application-blocked) loop must not hang a scrape
// or pile up handler goroutines — a slow poll is abandoned to the single
// outstanding goroutine and the scrape serves the last known values.
type replicaInfoSource struct {
	id   uint32
	info func() pbft.ReplicaInfo

	mu       sync.Mutex
	last     pbft.ReplicaInfo
	pollDone chan struct{} // non-nil while a poll is in flight
}

// gaugePollTimeout bounds how long one scrape waits for fresh gauges.
const gaugePollTimeout = 200 * time.Millisecond

// poll returns fresh info when the loop answers within the timeout, and
// the previous snapshot otherwise. At most one poll goroutine exists per
// source regardless of scrape frequency.
func (s *replicaInfoSource) poll(timeout time.Duration) pbft.ReplicaInfo {
	s.mu.Lock()
	done := s.pollDone
	if done == nil {
		done = make(chan struct{})
		s.pollDone = done
		go func() {
			info := s.info()
			s.mu.Lock()
			s.last = info
			s.pollDone = nil
			s.mu.Unlock()
			close(done)
		}()
	}
	s.mu.Unlock()
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-done:
	case <-t.C:
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last
}

// phaseBounds are the pbft_phase_seconds bucket bounds: phases span
// microseconds (ingress->verify) to seconds (chaos recovery), so the
// grid starts far below the old commit-latency floor.
var phaseBounds = []float64{
	1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4,
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// New builds an empty registry.
func New() *Metrics {
	return &Metrics{
		batchSize:  newHistogram([]float64{1, 2, 4, 8, 16, 32, 64, 128}),
		vcDuration: newHistogram([]float64{0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}),
		phases:     make(map[phaseKey]*histogram),
		vcStart:    make(map[uint32]time.Time),
		now:        time.Now,
	}
}

// ObservePhase implements the flight recorder's sink interface
// (pbft.PhaseSink): one adjacent-phase segment (or the synthetic
// end-to-end value) of a completed request timeline. Called from
// whatever goroutine finalizes the timeline, so it does only a bounded
// histogram insert under the registry mutex.
func (m *Metrics) ObservePhase(replica uint32, phase pbft.Phase, d time.Duration) {
	k := phaseKey{replica, phase}
	m.mu.Lock()
	h, ok := m.phases[k]
	if !ok {
		h = newHistogram(phaseBounds)
		m.phases[k] = h
	}
	h.observe(d.Seconds())
	m.mu.Unlock()
}

// AddFlight registers a flight recorder's dump function (typically
// Replica.FlightDump): the /debug/flight endpoint serves every
// registered recorder's snapshot as JSON. Safe to call while serving.
func (m *Metrics) AddFlight(id uint32, dump func() pbft.FlightDump) {
	m.infoMu.Lock()
	m.flights = append(m.flights, flightSource{id: id, dump: dump})
	m.infoMu.Unlock()
}

// AddReplica registers a gauge source: the replica's Info func is polled
// at scrape time for queue-depth and backlog gauges. Safe to call while
// serving.
func (m *Metrics) AddReplica(id uint32, info func() pbft.ReplicaInfo) {
	m.infoMu.Lock()
	m.infos = append(m.infos, &replicaInfoSource{id: id, info: info})
	m.infoMu.Unlock()
}

// AddTransport registers a UDP endpoint's syscall-batching counters
// (UDPConn.BatchStats), exposed as the pbft_udp_* series: syscall and
// datagram totals plus datagrams-per-syscall occupancy histograms.
// Safe to call while serving.
func (m *Metrics) AddTransport(id uint32, stats func() pbft.BatchStats) {
	m.infoMu.Lock()
	m.transports = append(m.transports, transportSource{id: id, stats: stats})
	m.infoMu.Unlock()
}

// --- pbft.Tracer ---------------------------------------------------------

// OnEvent implements pbft.Tracer: it folds one event into the aggregates.
func (m *Metrics) OnEvent(ev pbft.Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := &m.counts
	switch ev.Kind {
	case pbft.EvViewChangeStart:
		c.ViewChangesStarted++
		if _, running := m.vcStart[ev.Replica]; !running {
			// A cascade (start for v+1 after a stalled start for v) keeps
			// the first start time: the sample measures how long the
			// replica was without an operating view.
			m.vcStart[ev.Replica] = m.now()
		}
	case pbft.EvViewChangeInstall:
		c.ViewChangesInstalled++
		if s, ok := m.vcStart[ev.Replica]; ok {
			m.vcDuration.observe(m.now().Sub(s).Seconds())
			delete(m.vcStart, ev.Replica)
		}
	case pbft.EvCheckpoint:
		c.Checkpoints++
	case pbft.EvCheckpointStable:
		c.StableCheckpoints++
	case pbft.EvStateTransferStart:
		c.StateTransfersStarted++
	case pbft.EvStateTransferFinish:
		c.StateTransfersCompleted++
	case pbft.EvStateTransferAbort:
		c.StateTransfersAborted++
	case pbft.EvBatch:
		c.Batches++
		c.Requests += ev.Count
		m.batchSize.observe(float64(ev.Count))
		if ev.Tentative {
			c.TentativeBatches++
		}
	case pbft.EvCommit:
		c.Commits++
	case pbft.EvSessionHello:
		c.SessionHellos++
	case pbft.EvSessionJoin:
		c.Joins++
	case pbft.EvSessionLeave:
		c.Leaves++
	case pbft.EvSessionEvict:
		c.Evictions++
	}
}

// --- Snapshots -----------------------------------------------------------

// Snapshot is a point-in-time copy of every aggregate. Snapshots support
// Sub for per-window deltas (the bench prints one per experiment).
type Snapshot struct {
	Commits            uint64
	Batches            uint64
	Requests           uint64
	TentativeBatches   uint64
	ViewChangesStarted uint64
	// ViewChangesInstalled counts completed view changes (new view
	// entered); the harness asserts on it ("exactly one view change").
	ViewChangesInstalled    uint64
	Checkpoints             uint64
	StableCheckpoints       uint64
	StateTransfersStarted   uint64
	StateTransfersCompleted uint64
	StateTransfersAborted   uint64
	SessionHellos           uint64
	Joins                   uint64
	Leaves                  uint64
	Evictions               uint64

	BatchSize          HistogramSnapshot
	ViewChangeDuration HistogramSnapshot // seconds

	// Phases holds one latency histogram per request-lifecycle phase
	// (seconds), keyed by the snake_case phase label and merged across
	// replicas; phase "end_to_end" is the synthetic whole-timeline
	// value. Populated only when flight recorders feed this registry.
	Phases map[string]HistogramSnapshot
}

// snapshotLocked copies the aggregates. Callers hold m.mu.
func (m *Metrics) snapshotLocked() Snapshot {
	var phases map[string]HistogramSnapshot
	if len(m.phases) > 0 {
		phases = make(map[string]HistogramSnapshot, len(m.phases))
		for k, h := range m.phases {
			phases[k.phase.String()] = phases[k.phase.String()].merge(h.snapshot())
		}
	}
	out := m.counts
	out.BatchSize = m.batchSize.snapshot()
	out.ViewChangeDuration = m.vcDuration.snapshot()
	out.Phases = phases
	return out
}

// Snapshot returns a consistent copy of the aggregates.
func (m *Metrics) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.snapshotLocked()
}

// counters lists the snapshot's plain counter fields, so the window
// delta walks one list.
func (s *Snapshot) counters() []*uint64 {
	return []*uint64{
		&s.Commits, &s.Batches, &s.Requests, &s.TentativeBatches,
		&s.ViewChangesStarted, &s.ViewChangesInstalled,
		&s.Checkpoints, &s.StableCheckpoints,
		&s.StateTransfersStarted, &s.StateTransfersCompleted, &s.StateTransfersAborted,
		&s.SessionHellos, &s.Joins, &s.Leaves, &s.Evictions,
	}
}

// Sub returns the delta s - prev (counters and histogram buckets are
// monotone, so the difference is a valid window measurement).
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	out := s
	pc := prev.counters()
	for i, c := range out.counters() {
		*c -= *pc[i]
	}
	out.BatchSize = s.BatchSize.sub(prev.BatchSize)
	out.ViewChangeDuration = s.ViewChangeDuration.sub(prev.ViewChangeDuration)
	if len(s.Phases) > 0 {
		out.Phases = make(map[string]HistogramSnapshot, len(s.Phases))
		for name, h := range s.Phases {
			out.Phases[name] = h.sub(prev.Phases[name])
		}
	}
	return out
}

// Summary renders a one-line digest (the bench prints it per experiment).
func (s Snapshot) Summary() string {
	return fmt.Sprintf(
		"commits=%d batches=%d reqs=%d batch-avg=%.1f view-changes=%d checkpoints=%d stable=%d state-transfers=%d sessions(hello/join/leave/evict)=%d/%d/%d/%d",
		s.Commits, s.Batches, s.Requests, s.BatchSize.Mean(),
		s.ViewChangesInstalled, s.Checkpoints, s.StableCheckpoints,
		s.StateTransfersCompleted, s.SessionHellos, s.Joins, s.Leaves, s.Evictions)
}

// --- Histograms ----------------------------------------------------------

// histogram is a fixed-bound bucket histogram (Prometheus shape:
// cumulative buckets at scrape time, plain counts internally).
type histogram struct {
	bounds []float64
	counts []uint64 // len(bounds)+1; last is +Inf
	sum    float64
	count  uint64
}

func newHistogram(bounds []float64) *histogram {
	sort.Float64s(bounds)
	return &histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// observe inserts one sample. Callers hold the registry mutex.
func (h *histogram) observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.count++
}

func (h *histogram) snapshot() HistogramSnapshot {
	return HistogramSnapshot{
		Bounds: h.bounds, // immutable after construction
		Counts: append([]uint64(nil), h.counts...),
		Sum:    h.sum,
		Count:  h.count,
	}
}

// HistogramSnapshot is a copied histogram state.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts has one extra entry for
	// the overflow (+Inf) bucket.
	Bounds []float64
	Counts []uint64
	Sum    float64
	Count  uint64
}

// Mean returns the average observed value (0 when empty).
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile estimates the q-quantile (0..1) by linear interpolation
// within the bucket the rank falls into — the usual Prometheus
// histogram_quantile estimate. Values beyond the last finite bound clamp
// to it; an empty histogram reports 0.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	cum := uint64(0)
	for i, b := range h.Bounds {
		prev := cum
		cum += h.Counts[i]
		if float64(cum) >= rank {
			lo := 0.0
			if i > 0 {
				lo = h.Bounds[i-1]
			}
			if h.Counts[i] == 0 {
				return b
			}
			return lo + (b-lo)*(rank-float64(prev))/float64(h.Counts[i])
		}
	}
	return h.Bounds[len(h.Bounds)-1]
}

// merge folds another snapshot over the same bounds into this one (a
// zero-value receiver adopts the other's shape) — used to aggregate
// per-replica phase series into one per-phase snapshot.
func (h HistogramSnapshot) merge(o HistogramSnapshot) HistogramSnapshot {
	if h.Count == 0 && len(h.Counts) == 0 {
		return o
	}
	out := HistogramSnapshot{Bounds: h.Bounds, Sum: h.Sum + o.Sum, Count: h.Count + o.Count}
	out.Counts = append([]uint64(nil), h.Counts...)
	for i := range o.Counts {
		if i < len(out.Counts) {
			out.Counts[i] += o.Counts[i]
		}
	}
	return out
}

func (h HistogramSnapshot) sub(prev HistogramSnapshot) HistogramSnapshot {
	out := HistogramSnapshot{Bounds: h.Bounds, Sum: h.Sum - prev.Sum, Count: h.Count - prev.Count}
	out.Counts = make([]uint64, len(h.Counts))
	for i := range h.Counts {
		c := h.Counts[i]
		if i < len(prev.Counts) {
			c -= prev.Counts[i]
		}
		out.Counts[i] = c
	}
	return out
}

// --- HTTP exposition -----------------------------------------------------

// series is one row of an exposition table over sources of type T: a
// registry's Snapshot, a replica's polled ReplicaInfo, a UDP endpoint's
// BatchStats. Consecutive rows sharing a name form one family — one
// HELP/TYPE header, then each source's samples in row order.
type series[T any] struct {
	name, typ, help string
	// label is an extra label on this row's samples (the reason of a
	// pbft_drops_total row).
	label string
	// when is the family's render condition, per source; nil renders
	// every source. A family no source satisfies is omitted, header
	// included, so a deployment without the feature behind it scrapes
	// byte-identical to one from before the feature existed.
	when func(T) bool
	// value extracts the sample: an int or uint64, a float64 (seconds),
	// a HistogramSnapshot or an occupancy.
	value func(T) any
}

// source is one labeled instance a table is rendered for.
type source[T any] struct {
	labels string
	v      T
}

// occupancy is a UDP endpoint's datagrams-per-syscall histogram over the
// fixed BatchStats buckets (1, 2-3, 4-7, 8-15, 16+). The bucket counts
// are syscalls and the sum is datagrams, so sum/count is the mean batch
// occupancy, exactly like a latency histogram's mean.
type occupancy struct {
	buckets     [5]uint64
	calls, msgs uint64
}

// writeSeries is the one loop every exposition table is walked by.
func writeSeries[T any](w io.Writer, rows []series[T], srcs []source[T]) {
	for i := 0; i < len(rows); {
		j := i + 1
		for j < len(rows) && rows[j].name == rows[i].name {
			j++
		}
		family := rows[i:j]
		i = j
		header := false
		for _, src := range srcs {
			if when := family[0].when; when != nil && !when(src.v) {
				continue
			}
			if !header {
				header = true
				fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", family[0].name, family[0].help, family[0].name, family[0].typ)
			}
			for _, row := range family {
				writeSample(w, row.name, joinLabels(src.labels, row.label), row.value(src.v))
			}
		}
	}
}

func writeSample(w io.Writer, name, labels string, v any) {
	switch v := v.(type) {
	case HistogramSnapshot:
		cum := uint64(0)
		for i, b := range v.Bounds {
			cum += v.Counts[i]
			fmt.Fprintf(w, "%s_bucket%s %d\n", name, brace(joinLabels(labels, fmt.Sprintf("le=\"%g\"", b))), cum)
		}
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, brace(joinLabels(labels, "le=\"+Inf\"")), v.Count)
		fmt.Fprintf(w, "%s_sum%s %g\n", name, brace(labels), v.Sum)
		fmt.Fprintf(w, "%s_count%s %d\n", name, brace(labels), v.Count)
	case occupancy:
		cum := uint64(0)
		for i, b := range pbft.BatchOccupancyBounds {
			cum += v.buckets[i]
			fmt.Fprintf(w, "%s_bucket%s %d\n", name, brace(joinLabels(labels, fmt.Sprintf("le=\"%d\"", b))), cum)
		}
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, brace(joinLabels(labels, "le=\"+Inf\"")), v.calls)
		fmt.Fprintf(w, "%s_sum%s %d\n", name, brace(labels), v.msgs)
		fmt.Fprintf(w, "%s_count%s %d\n", name, brace(labels), v.calls)
	case float64:
		fmt.Fprintf(w, "%s%s %g\n", name, brace(labels), v)
	default:
		fmt.Fprintf(w, "%s%s %d\n", name, brace(labels), v)
	}
}

// joinLabels joins two label lists, either of which may be empty.
func joinLabels(a, b string) string {
	if a == "" || b == "" {
		return a + b
	}
	return a + "," + b
}

// brace wraps a non-empty label list for a sample line.
func brace(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

func counter(name, help string, pick func(Snapshot) uint64) series[Snapshot] {
	return series[Snapshot]{name: name, typ: "counter", help: help, value: func(s Snapshot) any { return pick(s) }}
}

// eventSeries are the event aggregates, rendered unlabeled.
var eventSeries = []series[Snapshot]{
	counter("pbft_commits_total", "Sequence numbers committed (2f+1 certificates).", func(s Snapshot) uint64 { return s.Commits }),
	counter("pbft_batches_total", "Agreed batches handed to the execution engine.", func(s Snapshot) uint64 { return s.Batches }),
	counter("pbft_requests_total", "Requests inside agreed batches.", func(s Snapshot) uint64 { return s.Requests }),
	counter("pbft_tentative_batches_total", "Batches executed tentatively (after prepare, before commit).", func(s Snapshot) uint64 { return s.TentativeBatches }),
	counter("pbft_view_changes_started_total", "View changes started (vote broadcast).", func(s Snapshot) uint64 { return s.ViewChangesStarted }),
	counter("pbft_view_changes_total", "View changes completed (new view installed).", func(s Snapshot) uint64 { return s.ViewChangesInstalled }),
	counter("pbft_checkpoints_total", "Local checkpoints produced.", func(s Snapshot) uint64 { return s.Checkpoints }),
	counter("pbft_stable_checkpoints_total", "Checkpoints stabilized by 2f+1 proof.", func(s Snapshot) uint64 { return s.StableCheckpoints }),
	counter("pbft_state_transfers_started_total", "State transfers started.", func(s Snapshot) uint64 { return s.StateTransfersStarted }),
	counter("pbft_state_transfers_total", "State transfers completed.", func(s Snapshot) uint64 { return s.StateTransfersCompleted }),
	counter("pbft_state_transfers_aborted_total", "State transfers aborted.", func(s Snapshot) uint64 { return s.StateTransfersAborted }),
	counter("pbft_session_hellos_total", "Client MAC sessions (re-)established.", func(s Snapshot) uint64 { return s.SessionHellos }),
	counter("pbft_joins_total", "Dynamic clients admitted.", func(s Snapshot) uint64 { return s.Joins }),
	counter("pbft_leaves_total", "Dynamic clients departed.", func(s Snapshot) uint64 { return s.Leaves }),
	counter("pbft_evictions_total", "Client sessions evicted.", func(s Snapshot) uint64 { return s.Evictions }),
	{name: "pbft_batch_size", typ: "histogram", help: "Requests per agreed batch.",
		value: func(s Snapshot) any { return s.BatchSize }},
	{name: "pbft_view_change_duration_seconds", typ: "histogram", help: "View-change start to new-view install.",
		value: func(s Snapshot) any { return s.ViewChangeDuration }},
}

// phaseSeries is pbft_phase_seconds; its sources are the (phase,
// replica) histograms the flight recorders fed.
var phaseSeries = []series[HistogramSnapshot]{
	{name: "pbft_phase_seconds", typ: "histogram", help: "Per-request lifecycle phase latency (adjacent stamp points; end_to_end is first to last).",
		value: func(h HistogramSnapshot) any { return h }},
}

// transportSeries are the registered UDP endpoints' syscall-batching
// counters: totals plus the two occupancy histograms.
var transportSeries = []series[pbft.BatchStats]{
	{name: "pbft_udp_recv_syscalls_total", typ: "counter", help: "Receive syscalls that returned at least one datagram.",
		value: func(s pbft.BatchStats) any { return s.RecvCalls }},
	{name: "pbft_udp_recv_datagrams_total", typ: "counter", help: "Datagrams returned by receive syscalls.",
		value: func(s pbft.BatchStats) any { return s.RecvMsgs }},
	{name: "pbft_udp_send_syscalls_total", typ: "counter", help: "Send syscalls issued.",
		value: func(s pbft.BatchStats) any { return s.SendCalls }},
	{name: "pbft_udp_send_datagrams_total", typ: "counter", help: "Datagrams moved by send syscalls.",
		value: func(s pbft.BatchStats) any { return s.SendMsgs }},
	{name: "pbft_udp_recv_batch_occupancy", typ: "histogram", help: "Datagrams per receive syscall.",
		value: func(s pbft.BatchStats) any { return occupancy{s.RecvOccupancy, s.RecvCalls, s.RecvMsgs} }},
	{name: "pbft_udp_send_batch_occupancy", typ: "histogram", help: "Datagrams per send syscall.",
		value: func(s pbft.BatchStats) any { return occupancy{s.SendOccupancy, s.SendCalls, s.SendMsgs} }},
}

func durable(i pbft.ReplicaInfo) bool  { return i.Stats.DurableNow }
func hasImage(i pbft.ReplicaInfo) bool { return i.Stats.ImageNow }

// replicaSeries are the per-replica gauges and counters polled from
// Replica.Info at scrape time.
var replicaSeries = []series[pbft.ReplicaInfo]{
	{name: "pbft_exec_queue_depth", typ: "gauge", help: "Operations inside the execution engine (applies + detached reads).",
		value: func(i pbft.ReplicaInfo) any { return i.ExecQueueDepth }},
	{name: "pbft_ingress_backlog", typ: "gauge", help: "Packets verified (or being verified) and not yet consumed by the protocol loop.",
		value: func(i pbft.ReplicaInfo) any { return i.IngressBacklog }},
	{name: "pbft_batch_window", typ: "gauge", help: "Batch-size bound for the next pre-prepare (the static MaxBatch).",
		value: func(i pbft.ReplicaInfo) any { return i.BatchWindow }},
	{name: "pbft_last_exec", typ: "gauge", help: "Last executed sequence number.",
		value: func(i pbft.ReplicaInfo) any { return i.LastExec }},
	{name: "pbft_last_stable", typ: "gauge", help: "Last stable checkpoint sequence number.",
		value: func(i pbft.ReplicaInfo) any { return i.LastStable }},
	{name: "pbft_view", typ: "gauge", help: "Current view.",
		value: func(i pbft.ReplicaInfo) any { return i.View }},
	{name: "pbft_client_sessions", typ: "gauge", help: "Clients currently holding live MAC session keys (bounded by Options.MaxClientSessions).",
		value: func(i pbft.ReplicaInfo) any { return i.ClientSessions }},
	// Ingress drop verdicts as typed counters: an active adversary shows
	// up here (forged MACs under "auth", garbage floods under
	// "malformed", equivocation under "conflicting_preprepare") without
	// perturbing the protocol-event counters above.
	{name: "pbft_auth_failures_total", typ: "counter", help: "Packets rejected for failed MAC/signature authentication.",
		value: func(i pbft.ReplicaInfo) any { return i.Stats.DroppedBadAuth }},
	{name: "pbft_drops_total", typ: "counter", help: "Packets dropped before reaching the protocol, by reason.",
		label: `reason="auth"`, value: func(i pbft.ReplicaInfo) any { return i.Stats.DroppedBadAuth }},
	{name: "pbft_drops_total", label: `reason="malformed"`, value: func(i pbft.ReplicaInfo) any { return i.Stats.DroppedMalformed }},
	{name: "pbft_drops_total", label: `reason="ignored"`, value: func(i pbft.ReplicaInfo) any { return i.Stats.DroppedIgnored }},
	{name: "pbft_drops_total", label: `reason="nondet"`, value: func(i pbft.ReplicaInfo) any { return i.Stats.RejectedNonDet }},
	{name: "pbft_drops_total", label: `reason="conflicting_preprepare"`, value: func(i pbft.ReplicaInfo) any { return i.Stats.ConflictingPrePrepares }},
	{name: "pbft_drops_total", label: `reason="forged_join"`, value: func(i pbft.ReplicaInfo) any { return i.Stats.DroppedForgedJoins }},
	// Durable-replica series render only for replicas running with a
	// data directory, and disk-image series only for replicas whose
	// application keeps one.
	{name: "pbft_restarts_total", typ: "counter", help: "Recoveries from an existing on-disk manifest (0 on first boot).",
		when: durable, value: func(i pbft.ReplicaInfo) any { return i.Stats.Restarts }},
	{name: "pbft_recovery_seconds", typ: "gauge", help: "Duration of the last disk recovery (WAL replay + manifest restore) at startup.",
		when: durable, value: func(i pbft.ReplicaInfo) any { return float64(i.Stats.RecoveryNanos) / 1e9 }},
	{name: "pbft_wal_fsyncs_total", typ: "counter", help: "WAL commit fsyncs (one per persisted stable checkpoint batch).",
		when: durable, value: func(i pbft.ReplicaInfo) any { return i.Stats.WALFsyncs }},
	{name: "pbft_wal_bytes_total", typ: "counter", help: "Bytes appended to the write-ahead log.",
		when: durable, value: func(i pbft.ReplicaInfo) any { return i.Stats.WALBytes }},
	{name: "pbft_wal_checkpoints_total", typ: "counter", help: "WAL fold-backs into the base pages file.",
		when: durable, value: func(i pbft.ReplicaInfo) any { return i.Stats.WALCheckpoints }},
	{name: "pbft_persist_errors_total", typ: "counter", help: "Failed stable-checkpoint or disk-image persists (the store latches broken; the replica continues in-memory).",
		when: func(i pbft.ReplicaInfo) bool { return durable(i) || hasImage(i) }, value: func(i pbft.ReplicaInfo) any { return i.Stats.PersistErrors }},
	{name: "pbft_image_flushes_total", typ: "counter", help: "Execution-span flush points persisted to the application's disk image (one journal + image fsync pair each).",
		when: hasImage, value: func(i pbft.ReplicaInfo) any { return i.Stats.ImageFlushes }},
	{name: "pbft_image_flush_pages_total", typ: "counter", help: "Pages written to the disk image by span flushes.",
		when: hasImage, value: func(i pbft.ReplicaInfo) any { return i.Stats.ImageFlushPages }},
	{name: "pbft_image_flush_seconds", typ: "counter", help: "Cumulative time span flushes took; a span's replies wait for its flush between the exec_done and reply_sealed phases.",
		when: hasImage, value: func(i pbft.ReplicaInfo) any { return float64(i.Stats.ImageFlushNanos) / 1e9 }},
}

// WritePrometheus renders every aggregate — and one gauge set per
// registered replica — in the Prometheus text exposition format.
func (m *Metrics) WritePrometheus(w io.Writer) {
	m.mu.Lock()
	events := []source[Snapshot]{{"", m.snapshotLocked()}}
	// One pbft_phase_seconds histogram per (phase, replica), in that
	// order so scrapes are deterministic.
	keys := make([]phaseKey, 0, len(m.phases))
	for k := range m.phases {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.phase != b.phase {
			return a.phase < b.phase
		}
		return a.replica < b.replica
	})
	phases := make([]source[HistogramSnapshot], 0, len(keys))
	for _, k := range keys {
		labels := fmt.Sprintf("phase=%q,replica=\"%d\"", k.phase.String(), k.replica)
		phases = append(phases, source[HistogramSnapshot]{labels, m.phases[k].snapshot()})
	}
	m.mu.Unlock()

	writeSeries(w, eventSeries, events)
	writeSeries(w, phaseSeries, phases)
	m.WriteUDPStats(w)

	m.infoMu.Lock()
	infos := append([]*replicaInfoSource(nil), m.infos...)
	m.infoMu.Unlock()
	replicas := make([]source[pbft.ReplicaInfo], 0, len(infos))
	for _, src := range infos {
		replicas = append(replicas, source[pbft.ReplicaInfo]{replicaLabel(src.id), src.poll(gaugePollTimeout)})
	}
	writeSeries(w, replicaSeries, replicas)
}

func replicaLabel(id uint32) string { return fmt.Sprintf("replica=\"%d\"", id) }

// WriteUDPStats renders only the pbft_udp_* transport series. Front-ends
// that expose client metrics plus their own UDP endpoint counters
// (pbft-gateway) and the bench's -metrics summary use it to surface the
// syscall-batching numbers without the full replica exposition.
func (m *Metrics) WriteUDPStats(w io.Writer) {
	m.infoMu.Lock()
	transports := append([]transportSource(nil), m.transports...)
	m.infoMu.Unlock()
	srcs := make([]source[pbft.BatchStats], 0, len(transports))
	for _, t := range transports {
		srcs = append(srcs, source[pbft.BatchStats]{replicaLabel(t.id), t.stats()})
	}
	writeSeries(w, transportSeries, srcs)
}

// Handler serves the /metrics content.
func (m *Metrics) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		m.WritePrometheus(w)
	})
}

// FlightHandler serves the registered flight recorders' snapshots as a
// JSON array (one pbft.FlightDump per recorder, in registration order).
// ?replica=N narrows the response to one recorder's dump.
func (m *Metrics) FlightHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		m.infoMu.Lock()
		flights := append([]flightSource(nil), m.flights...)
		m.infoMu.Unlock()
		var only *uint32
		if v := r.URL.Query().Get("replica"); v != "" {
			id64, err := strconv.ParseUint(v, 10, 32)
			if err != nil {
				http.Error(w, "bad replica id", http.StatusBadRequest)
				return
			}
			id := uint32(id64)
			only = &id
		}
		dumps := make([]pbft.FlightDump, 0, len(flights))
		for _, f := range flights {
			if only != nil && f.id != *only {
				continue
			}
			dumps = append(dumps, f.dump())
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(dumps)
	})
}

// Mux builds the node's observability endpoint: /metrics serving the
// registry, /healthz answering 200 while healthy() is true (503
// otherwise; a nil healthy is always healthy), and /debug/flight
// serving the registered flight recorders' timelines as JSON.
// cmd/pbft-server mounts it with the replica's Running method.
func Mux(m *Metrics, healthy func() bool) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", m.Handler())
	mux.Handle("/debug/flight", m.FlightHandler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if healthy != nil && !healthy() {
			http.Error(w, "unhealthy", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	return mux
}
