// Package metrics is the aggregating observability surface of the PBFT
// node runtime: a pbft.Tracer implementation that folds the typed event
// stream into counters and latency histograms, polls replica gauges
// (execution-engine queue depth, ingress verify backlog), and exposes
// everything over HTTP in the Prometheus text format.
//
// One Metrics registry may serve one replica (cmd/pbft-server) or
// aggregate several (the bench harness registers every replica of a
// cluster); events carry the reporting replica's id and the hooks are
// safe for concurrent use. Typical wiring:
//
//	m := metrics.New()
//	rep, _ := pbft.NewReplica(cfg, id, kp, conn, app) // opts.WithTracer(m)
//	m.AddReplica(id, rep.Info)
//	go http.ListenAndServe(addr, metrics.Mux(m, rep.Running))
//	go rep.Run(ctx)
//
// The tracer hooks run on the replica's protocol loop, so they do only
// constant work under a mutex: counter bumps and bounded histogram
// inserts. Everything else (gauge polling, text rendering) happens on the
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

// Metrics implements pbft.Tracer by aggregation, with an optional GROUP
// dimension for partitioned multi-group deployments: events recorded
// through the registry itself land in group 0 (the single-group case),
// while Group(g) returns a view that records into group g. A registry
// holding only group 0 renders exactly the classic exposition; as soon
// as a second group exists every per-group series gains a group label.
// The zero value is not usable; construct with New.
type Metrics struct {
	mu sync.Mutex

	// groups holds one counter set per consensus group. Group 0 always
	// exists (it is the whole deployment when partitioning is off).
	groups map[int]*groupState

	now func() time.Time

	infoMu     sync.Mutex
	infos      []*replicaInfoSource
	transports []transportSource
	flights    []flightSource
}

// groupState is one group's aggregate counters and histograms.
type groupState struct {
	commits            uint64
	batches            uint64
	requests           uint64
	tentativeBatches   uint64
	vcStarted          uint64
	vcInstalled        uint64
	checkpoints        uint64
	stableCheckpoints  uint64
	transfersStarted   uint64
	transfersCompleted uint64
	transfersAborted   uint64
	sessionHellos      uint64
	joins              uint64
	leaves             uint64
	evictions          uint64

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
}

func newGroupState() *groupState {
	return &groupState{
		batchSize:  newHistogram([]float64{1, 2, 4, 8, 16, 32, 64, 128}),
		vcDuration: newHistogram([]float64{0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}),
		phases:     make(map[phaseKey]*histogram),
		vcStart:    make(map[uint32]time.Time),
	}
}

// group returns (creating if needed) group g's state. Callers hold m.mu.
func (m *Metrics) group(g int) *groupState {
	gs, ok := m.groups[g]
	if !ok {
		gs = newGroupState()
		m.groups[g] = gs
	}
	return gs
}

// groupIDs returns the registered group ids, ascending. Callers hold
// m.mu.
func (m *Metrics) groupIDs() []int {
	ids := make([]int, 0, len(m.groups))
	for g := range m.groups {
		ids = append(ids, g)
	}
	sort.Ints(ids)
	return ids
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
	group int
	stats func() pbft.BatchStats
}

// replicaInfoSource wraps one replica's Info func with single-flight,
// timeout-bounded polling: Replica.Info round-trips through the protocol
// loop, so a busy (or application-blocked) loop must not hang a scrape
// or pile up handler goroutines — a slow poll is abandoned to the single
// outstanding goroutine and the scrape serves the last known values.
type replicaInfoSource struct {
	id    uint32
	group int
	info  func() pbft.ReplicaInfo

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
		groups: map[int]*groupState{0: newGroupState()},
		now:    time.Now,
	}
}

// Group returns a view of the registry that records into group g: its
// tracer hooks, ObservePhase, and Add* registrations are the per-group
// analogues of the registry's own. Partitioned deployments hand group
// g's replicas Group(g); everything else keeps using the registry
// directly (group 0). Registering any group other than 0 switches the
// exposition to group-labeled series.
func (m *Metrics) Group(g int) *GroupView {
	m.mu.Lock()
	m.group(g)
	m.mu.Unlock()
	return &GroupView{m: m, g: g}
}

// ObservePhase implements the flight recorder's sink interface
// (pbft.PhaseSink): one adjacent-phase segment (or the synthetic
// end-to-end value) of a completed request timeline. Called from
// whatever goroutine finalizes the timeline, so it does only a bounded
// histogram insert under the registry mutex.
func (m *Metrics) ObservePhase(replica uint32, phase pbft.Phase, d time.Duration) {
	m.observePhase(0, replica, phase, d)
}

func (m *Metrics) observePhase(g int, replica uint32, phase pbft.Phase, d time.Duration) {
	k := phaseKey{replica, phase}
	m.mu.Lock()
	gs := m.group(g)
	h, ok := gs.phases[k]
	if !ok {
		h = newHistogram(phaseBounds)
		gs.phases[k] = h
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
	m.addReplica(0, id, info)
}

func (m *Metrics) addReplica(g int, id uint32, info func() pbft.ReplicaInfo) {
	m.infoMu.Lock()
	m.infos = append(m.infos, &replicaInfoSource{id: id, group: g, info: info})
	m.infoMu.Unlock()
}

// AddTransport registers a UDP endpoint's syscall-batching counters
// (UDPConn.BatchStats), exposed as the pbft_udp_* series: syscall and
// datagram totals plus datagrams-per-syscall occupancy histograms.
// Safe to call while serving.
func (m *Metrics) AddTransport(id uint32, stats func() pbft.BatchStats) {
	m.addTransport(0, id, stats)
}

func (m *Metrics) addTransport(g int, id uint32, stats func() pbft.BatchStats) {
	m.infoMu.Lock()
	m.transports = append(m.transports, transportSource{id: id, group: g, stats: stats})
	m.infoMu.Unlock()
}

// --- pbft.Tracer ---------------------------------------------------------

// OnViewChange implements pbft.Tracer.
func (m *Metrics) OnViewChange(e pbft.ViewChangeEvent) { m.onViewChange(0, e) }

func (m *Metrics) onViewChange(g int, e pbft.ViewChangeEvent) {
	t := m.now()
	m.mu.Lock()
	defer m.mu.Unlock()
	gs := m.group(g)
	switch e.Phase {
	case pbft.ViewChangeStart:
		gs.vcStarted++
		if _, running := gs.vcStart[e.Replica]; !running {
			// A cascade (start for v+1 after a stalled start for v) keeps
			// the first start time: the sample measures how long the
			// replica was without an operating view.
			gs.vcStart[e.Replica] = t
		}
	case pbft.ViewChangeInstall:
		gs.vcInstalled++
		if s, ok := gs.vcStart[e.Replica]; ok {
			gs.vcDuration.observe(t.Sub(s).Seconds())
			delete(gs.vcStart, e.Replica)
		}
	}
}

// OnCheckpoint implements pbft.Tracer.
func (m *Metrics) OnCheckpoint(e pbft.CheckpointEvent) { m.onCheckpoint(0, e) }

func (m *Metrics) onCheckpoint(g int, e pbft.CheckpointEvent) {
	m.mu.Lock()
	defer m.mu.Unlock()
	gs := m.group(g)
	if e.Stable {
		gs.stableCheckpoints++
	} else {
		gs.checkpoints++
	}
}

// OnStateTransfer implements pbft.Tracer.
func (m *Metrics) OnStateTransfer(e pbft.StateTransferEvent) { m.onStateTransfer(0, e) }

func (m *Metrics) onStateTransfer(g int, e pbft.StateTransferEvent) {
	m.mu.Lock()
	defer m.mu.Unlock()
	gs := m.group(g)
	switch e.Phase {
	case pbft.StateTransferStart:
		gs.transfersStarted++
	case pbft.StateTransferFinish:
		gs.transfersCompleted++
	case pbft.StateTransferAbort:
		gs.transfersAborted++
	}
}

// OnBatch implements pbft.Tracer.
func (m *Metrics) OnBatch(e pbft.BatchEvent) { m.onBatch(0, e) }

func (m *Metrics) onBatch(g int, e pbft.BatchEvent) {
	m.mu.Lock()
	defer m.mu.Unlock()
	gs := m.group(g)
	gs.batches++
	gs.requests += uint64(e.Requests)
	gs.batchSize.observe(float64(e.Requests))
	if e.Tentative {
		gs.tentativeBatches++
	}
}

// OnCommit implements pbft.Tracer.
func (m *Metrics) OnCommit(e pbft.CommitEvent) { m.onCommit(0, e) }

func (m *Metrics) onCommit(g int, e pbft.CommitEvent) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.group(g).commits++
}

// OnClientSession implements pbft.Tracer.
func (m *Metrics) OnClientSession(e pbft.ClientSessionEvent) { m.onClientSession(0, e) }

func (m *Metrics) onClientSession(g int, e pbft.ClientSessionEvent) {
	m.mu.Lock()
	defer m.mu.Unlock()
	gs := m.group(g)
	switch e.Kind {
	case pbft.SessionHello:
		gs.sessionHellos++
	case pbft.SessionJoin:
		gs.joins++
	case pbft.SessionLeave:
		gs.leaves++
	case pbft.SessionEvict:
		gs.evictions++
	}
}

// --- Group views ---------------------------------------------------------

// GroupView is a Metrics registry scoped to one consensus group of a
// partitioned deployment: it implements pbft.Tracer and the
// registration surface exactly like the registry itself, but every
// event, gauge source, and transport it records carries the group id.
// Views are cheap handles over the shared registry — hand each group's
// replicas their own and scrape one endpoint for the whole deployment.
type GroupView struct {
	m *Metrics
	g int
}

// ID returns the group id this view records into.
func (v *GroupView) ID() int { return v.g }

// OnViewChange implements pbft.Tracer for the view's group.
func (v *GroupView) OnViewChange(e pbft.ViewChangeEvent) { v.m.onViewChange(v.g, e) }

// OnCheckpoint implements pbft.Tracer for the view's group.
func (v *GroupView) OnCheckpoint(e pbft.CheckpointEvent) { v.m.onCheckpoint(v.g, e) }

// OnStateTransfer implements pbft.Tracer for the view's group.
func (v *GroupView) OnStateTransfer(e pbft.StateTransferEvent) { v.m.onStateTransfer(v.g, e) }

// OnBatch implements pbft.Tracer for the view's group.
func (v *GroupView) OnBatch(e pbft.BatchEvent) { v.m.onBatch(v.g, e) }

// OnCommit implements pbft.Tracer for the view's group.
func (v *GroupView) OnCommit(e pbft.CommitEvent) { v.m.onCommit(v.g, e) }

// OnClientSession implements pbft.Tracer for the view's group.
func (v *GroupView) OnClientSession(e pbft.ClientSessionEvent) { v.m.onClientSession(v.g, e) }

// ObservePhase records one phase segment into the view's group
// (pbft.PhaseSink).
func (v *GroupView) ObservePhase(replica uint32, phase pbft.Phase, d time.Duration) {
	v.m.observePhase(v.g, replica, phase, d)
}

// AddReplica registers a gauge source under the view's group: the
// replica's gauges render with both group and replica labels.
func (v *GroupView) AddReplica(id uint32, info func() pbft.ReplicaInfo) {
	v.m.addReplica(v.g, id, info)
}

// AddTransport registers a UDP endpoint's syscall-batching counters
// under the view's group.
func (v *GroupView) AddTransport(id uint32, stats func() pbft.BatchStats) {
	v.m.addTransport(v.g, id, stats)
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

// snapshotLocked copies one group's aggregates. Callers hold m.mu.
func (gs *groupState) snapshotLocked() Snapshot {
	var phases map[string]HistogramSnapshot
	if len(gs.phases) > 0 {
		phases = make(map[string]HistogramSnapshot, len(gs.phases))
		for k, h := range gs.phases {
			phases[k.phase.String()] = phases[k.phase.String()].merge(h.snapshot())
		}
	}
	return Snapshot{
		Commits:                 gs.commits,
		Batches:                 gs.batches,
		Requests:                gs.requests,
		TentativeBatches:        gs.tentativeBatches,
		ViewChangesStarted:      gs.vcStarted,
		ViewChangesInstalled:    gs.vcInstalled,
		Checkpoints:             gs.checkpoints,
		StableCheckpoints:       gs.stableCheckpoints,
		StateTransfersStarted:   gs.transfersStarted,
		StateTransfersCompleted: gs.transfersCompleted,
		StateTransfersAborted:   gs.transfersAborted,
		SessionHellos:           gs.sessionHellos,
		Joins:                   gs.joins,
		Leaves:                  gs.leaves,
		Evictions:               gs.evictions,
		BatchSize:               gs.batchSize.snapshot(),
		ViewChangeDuration:      gs.vcDuration.snapshot(),
		Phases:                  phases,
	}
}

// Snapshot returns a consistent copy of the aggregates, summed across
// every group (identical to the classic single-group snapshot when only
// group 0 exists).
func (m *Metrics) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := m.groupIDs()
	out := m.groups[ids[0]].snapshotLocked()
	for _, g := range ids[1:] {
		out = out.add(m.groups[g].snapshotLocked())
	}
	return out
}

// GroupSnapshot returns a consistent copy of one group's aggregates (a
// zero Snapshot for a group that was never registered).
func (m *Metrics) GroupSnapshot(g int) Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	gs, ok := m.groups[g]
	if !ok {
		return Snapshot{}
	}
	return gs.snapshotLocked()
}

// GroupIDs returns the ids of every registered group, ascending. A
// non-partitioned registry reports just group 0.
func (m *Metrics) GroupIDs() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.groupIDs()
}

// add sums another snapshot into this one (fresh maps, no aliasing) —
// the cross-group fold behind the aggregate Snapshot.
func (s Snapshot) add(o Snapshot) Snapshot {
	out := s
	out.Commits += o.Commits
	out.Batches += o.Batches
	out.Requests += o.Requests
	out.TentativeBatches += o.TentativeBatches
	out.ViewChangesStarted += o.ViewChangesStarted
	out.ViewChangesInstalled += o.ViewChangesInstalled
	out.Checkpoints += o.Checkpoints
	out.StableCheckpoints += o.StableCheckpoints
	out.StateTransfersStarted += o.StateTransfersStarted
	out.StateTransfersCompleted += o.StateTransfersCompleted
	out.StateTransfersAborted += o.StateTransfersAborted
	out.SessionHellos += o.SessionHellos
	out.Joins += o.Joins
	out.Leaves += o.Leaves
	out.Evictions += o.Evictions
	out.BatchSize = s.BatchSize.merge(o.BatchSize)
	out.ViewChangeDuration = s.ViewChangeDuration.merge(o.ViewChangeDuration)
	if len(s.Phases) > 0 || len(o.Phases) > 0 {
		out.Phases = make(map[string]HistogramSnapshot, len(s.Phases)+len(o.Phases))
		for name, h := range s.Phases {
			out.Phases[name] = h
		}
		for name, h := range o.Phases {
			out.Phases[name] = out.Phases[name].merge(h)
		}
	}
	return out
}

// Sub returns the delta s - prev (counters and histogram buckets are
// monotone, so the difference is a valid window measurement).
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	out := s
	out.Commits -= prev.Commits
	out.Batches -= prev.Batches
	out.Requests -= prev.Requests
	out.TentativeBatches -= prev.TentativeBatches
	out.ViewChangesStarted -= prev.ViewChangesStarted
	out.ViewChangesInstalled -= prev.ViewChangesInstalled
	out.Checkpoints -= prev.Checkpoints
	out.StableCheckpoints -= prev.StableCheckpoints
	out.StateTransfersStarted -= prev.StateTransfersStarted
	out.StateTransfersCompleted -= prev.StateTransfersCompleted
	out.StateTransfersAborted -= prev.StateTransfersAborted
	out.SessionHellos -= prev.SessionHellos
	out.Joins -= prev.Joins
	out.Leaves -= prev.Leaves
	out.Evictions -= prev.Evictions
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

// WritePrometheus renders every aggregate — and one gauge set per
// registered replica — in the Prometheus text exposition format. A
// registry with only group 0 renders the classic unlabeled (and
// replica-labeled) series; once any other group is registered every
// per-group series carries a group label, so partitioned deployments
// are queryable per group and per replica from one scrape.
func (m *Metrics) WritePrometheus(w io.Writer) {
	m.mu.Lock()
	ids := m.groupIDs()
	multi := len(ids) > 1
	snaps := make(map[int]Snapshot, len(ids))
	for _, g := range ids {
		snaps[g] = m.groups[g].snapshotLocked()
	}
	m.mu.Unlock()

	counters := []struct {
		name, help string
		pick       func(Snapshot) uint64
	}{
		{"pbft_commits_total", "Sequence numbers committed (2f+1 certificates).", func(s Snapshot) uint64 { return s.Commits }},
		{"pbft_batches_total", "Agreed batches handed to the execution engine.", func(s Snapshot) uint64 { return s.Batches }},
		{"pbft_requests_total", "Requests inside agreed batches.", func(s Snapshot) uint64 { return s.Requests }},
		{"pbft_tentative_batches_total", "Batches executed tentatively (after prepare, before commit).", func(s Snapshot) uint64 { return s.TentativeBatches }},
		{"pbft_view_changes_started_total", "View changes started (vote broadcast).", func(s Snapshot) uint64 { return s.ViewChangesStarted }},
		{"pbft_view_changes_total", "View changes completed (new view installed).", func(s Snapshot) uint64 { return s.ViewChangesInstalled }},
		{"pbft_checkpoints_total", "Local checkpoints produced.", func(s Snapshot) uint64 { return s.Checkpoints }},
		{"pbft_stable_checkpoints_total", "Checkpoints stabilized by 2f+1 proof.", func(s Snapshot) uint64 { return s.StableCheckpoints }},
		{"pbft_state_transfers_started_total", "State transfers started.", func(s Snapshot) uint64 { return s.StateTransfersStarted }},
		{"pbft_state_transfers_total", "State transfers completed.", func(s Snapshot) uint64 { return s.StateTransfersCompleted }},
		{"pbft_state_transfers_aborted_total", "State transfers aborted.", func(s Snapshot) uint64 { return s.StateTransfersAborted }},
		{"pbft_session_hellos_total", "Client MAC sessions (re-)established.", func(s Snapshot) uint64 { return s.SessionHellos }},
		{"pbft_joins_total", "Dynamic clients admitted.", func(s Snapshot) uint64 { return s.Joins }},
		{"pbft_leaves_total", "Dynamic clients departed.", func(s Snapshot) uint64 { return s.Leaves }},
		{"pbft_evictions_total", "Client sessions evicted.", func(s Snapshot) uint64 { return s.Evictions }},
	}
	for _, c := range counters {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", c.name, c.help, c.name)
		if multi {
			for _, g := range ids {
				fmt.Fprintf(w, "%s{group=\"%d\"} %d\n", c.name, g, c.pick(snaps[g]))
			}
		} else {
			fmt.Fprintf(w, "%s %d\n", c.name, c.pick(snaps[ids[0]]))
		}
	}
	for _, hist := range []struct {
		name, help string
		pick       func(Snapshot) HistogramSnapshot
	}{
		{"pbft_batch_size", "Requests per agreed batch.", func(s Snapshot) HistogramSnapshot { return s.BatchSize }},
		{"pbft_view_change_duration_seconds", "View-change start to new-view install.", func(s Snapshot) HistogramSnapshot { return s.ViewChangeDuration }},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", hist.name, hist.help, hist.name)
		if multi {
			for _, g := range ids {
				writeHistogramSeries(w, hist.name, fmt.Sprintf("group=\"%d\"", g), hist.pick(snaps[g]))
			}
		} else {
			writeHistogramSeries(w, hist.name, "", hist.pick(snaps[ids[0]]))
		}
	}
	m.writePhases(w, multi)

	m.infoMu.Lock()
	infos := append([]*replicaInfoSource(nil), m.infos...)
	transports := append([]transportSource(nil), m.transports...)
	m.infoMu.Unlock()
	writeTransports(w, transports, multi)
	if len(infos) == 0 {
		return
	}
	type gaugeRow struct {
		labels string
		info   pbft.ReplicaInfo
	}
	rows := make([]gaugeRow, 0, len(infos))
	for _, src := range infos {
		labels := fmt.Sprintf("replica=\"%d\"", src.id)
		if multi {
			labels = fmt.Sprintf("group=\"%d\",replica=\"%d\"", src.group, src.id)
		}
		rows = append(rows, gaugeRow{labels: labels, info: src.poll(gaugePollTimeout)})
	}
	fmt.Fprintf(w, "# HELP pbft_exec_queue_depth Operations inside the execution engine (applies + detached reads).\n# TYPE pbft_exec_queue_depth gauge\n")
	for _, r := range rows {
		fmt.Fprintf(w, "pbft_exec_queue_depth{%s} %d\n", r.labels, r.info.ExecQueueDepth)
	}
	fmt.Fprintf(w, "# HELP pbft_ingress_backlog Packets verified (or being verified) and not yet consumed by the protocol loop.\n# TYPE pbft_ingress_backlog gauge\n")
	for _, r := range rows {
		fmt.Fprintf(w, "pbft_ingress_backlog{%s} %d\n", r.labels, r.info.IngressBacklog)
	}
	fmt.Fprintf(w, "# HELP pbft_batch_window Batch-size bound for the next pre-prepare (adaptive controller's live window, or the static MaxBatch).\n# TYPE pbft_batch_window gauge\n")
	for _, r := range rows {
		fmt.Fprintf(w, "pbft_batch_window{%s} %d\n", r.labels, r.info.BatchWindow)
	}
	fmt.Fprintf(w, "# HELP pbft_last_exec Last executed sequence number.\n# TYPE pbft_last_exec gauge\n")
	for _, r := range rows {
		fmt.Fprintf(w, "pbft_last_exec{%s} %d\n", r.labels, r.info.LastExec)
	}
	fmt.Fprintf(w, "# HELP pbft_last_stable Last stable checkpoint sequence number.\n# TYPE pbft_last_stable gauge\n")
	for _, r := range rows {
		fmt.Fprintf(w, "pbft_last_stable{%s} %d\n", r.labels, r.info.LastStable)
	}
	fmt.Fprintf(w, "# HELP pbft_view Current view.\n# TYPE pbft_view gauge\n")
	for _, r := range rows {
		fmt.Fprintf(w, "pbft_view{%s} %d\n", r.labels, r.info.View)
	}
	fmt.Fprintf(w, "# HELP pbft_client_sessions Clients currently holding live MAC session keys (bounded by Options.MaxClientSessions).\n# TYPE pbft_client_sessions gauge\n")
	for _, r := range rows {
		fmt.Fprintf(w, "pbft_client_sessions{%s} %d\n", r.labels, r.info.ClientSessions)
	}
	// Ingress drop verdicts as typed counters: an active adversary shows
	// up here (forged MACs under "auth", garbage floods under
	// "malformed", equivocation under "conflicting_preprepare") without
	// perturbing the protocol-event counters above.
	fmt.Fprintf(w, "# HELP pbft_auth_failures_total Packets rejected for failed MAC/signature authentication.\n# TYPE pbft_auth_failures_total counter\n")
	for _, r := range rows {
		fmt.Fprintf(w, "pbft_auth_failures_total{%s} %d\n", r.labels, r.info.Stats.DroppedBadAuth)
	}
	fmt.Fprintf(w, "# HELP pbft_drops_total Packets dropped before reaching the protocol, by reason.\n# TYPE pbft_drops_total counter\n")
	for _, r := range rows {
		st := r.info.Stats
		fmt.Fprintf(w, "pbft_drops_total{%s,reason=\"auth\"} %d\n", r.labels, st.DroppedBadAuth)
		fmt.Fprintf(w, "pbft_drops_total{%s,reason=\"malformed\"} %d\n", r.labels, st.DroppedMalformed)
		fmt.Fprintf(w, "pbft_drops_total{%s,reason=\"ignored\"} %d\n", r.labels, st.DroppedIgnored)
		fmt.Fprintf(w, "pbft_drops_total{%s,reason=\"nondet\"} %d\n", r.labels, st.RejectedNonDet)
		fmt.Fprintf(w, "pbft_drops_total{%s,reason=\"conflicting_preprepare\"} %d\n", r.labels, st.ConflictingPrePrepares)
		fmt.Fprintf(w, "pbft_drops_total{%s,reason=\"forged_join\"} %d\n", r.labels, st.DroppedForgedJoins)
	}

	// Durable-replica series render only for replicas running with a
	// data directory, and disk-image series only for replicas whose
	// application keeps one, so a deployment without either scrapes
	// byte-identical to one from before they existed.
	durable, image, persisting := rows[:0:0], rows[:0:0], rows[:0:0]
	for _, r := range rows {
		if r.info.Stats.DurableNow {
			durable = append(durable, r)
		}
		if r.info.Stats.ImageNow {
			image = append(image, r)
		}
		if r.info.Stats.DurableNow || r.info.Stats.ImageNow {
			persisting = append(persisting, r)
		}
	}
	if len(durable) > 0 {
		fmt.Fprintf(w, "# HELP pbft_restarts_total Recoveries from an existing on-disk manifest (0 on first boot).\n# TYPE pbft_restarts_total counter\n")
		for _, r := range durable {
			fmt.Fprintf(w, "pbft_restarts_total{%s} %d\n", r.labels, r.info.Stats.Restarts)
		}
		fmt.Fprintf(w, "# HELP pbft_recovery_seconds Duration of the last disk recovery (WAL replay + manifest restore) at startup.\n# TYPE pbft_recovery_seconds gauge\n")
		for _, r := range durable {
			fmt.Fprintf(w, "pbft_recovery_seconds{%s} %g\n", r.labels, float64(r.info.Stats.RecoveryNanos)/1e9)
		}
		fmt.Fprintf(w, "# HELP pbft_wal_fsyncs_total WAL commit fsyncs (one per persisted stable checkpoint batch).\n# TYPE pbft_wal_fsyncs_total counter\n")
		for _, r := range durable {
			fmt.Fprintf(w, "pbft_wal_fsyncs_total{%s} %d\n", r.labels, r.info.Stats.WALFsyncs)
		}
		fmt.Fprintf(w, "# HELP pbft_wal_bytes_total Bytes appended to the write-ahead log.\n# TYPE pbft_wal_bytes_total counter\n")
		for _, r := range durable {
			fmt.Fprintf(w, "pbft_wal_bytes_total{%s} %d\n", r.labels, r.info.Stats.WALBytes)
		}
		fmt.Fprintf(w, "# HELP pbft_wal_checkpoints_total WAL fold-backs into the base pages file.\n# TYPE pbft_wal_checkpoints_total counter\n")
		for _, r := range durable {
			fmt.Fprintf(w, "pbft_wal_checkpoints_total{%s} %d\n", r.labels, r.info.Stats.WALCheckpoints)
		}
	}
	if len(persisting) > 0 {
		fmt.Fprintf(w, "# HELP pbft_persist_errors_total Failed stable-checkpoint or disk-image persists (the store latches broken; the replica continues in-memory).\n# TYPE pbft_persist_errors_total counter\n")
		for _, r := range persisting {
			fmt.Fprintf(w, "pbft_persist_errors_total{%s} %d\n", r.labels, r.info.Stats.PersistErrors)
		}
	}
	if len(image) > 0 {
		fmt.Fprintf(w, "# HELP pbft_image_flushes_total Execution-span flush points persisted to the application's disk image (one journal + image fsync pair each).\n# TYPE pbft_image_flushes_total counter\n")
		for _, r := range image {
			fmt.Fprintf(w, "pbft_image_flushes_total{%s} %d\n", r.labels, r.info.Stats.ImageFlushes)
		}
		fmt.Fprintf(w, "# HELP pbft_image_flush_pages_total Pages written to the disk image by span flushes.\n# TYPE pbft_image_flush_pages_total counter\n")
		for _, r := range image {
			fmt.Fprintf(w, "pbft_image_flush_pages_total{%s} %d\n", r.labels, r.info.Stats.ImageFlushPages)
		}
		fmt.Fprintf(w, "# HELP pbft_image_flush_seconds Cumulative time span flushes took; a span's replies wait for its flush between the exec_done and reply_sealed phases.\n# TYPE pbft_image_flush_seconds counter\n")
		for _, r := range image {
			fmt.Fprintf(w, "pbft_image_flush_seconds{%s} %g\n", r.labels, float64(r.info.Stats.ImageFlushNanos)/1e9)
		}
	}
}

// writePhases renders pbft_phase_seconds: one histogram per
// (phase, group, replica) tuple fed by the flight recorders, in
// pipeline-phase, group, then replica order so scrapes are
// deterministic. The group label appears only in multi-group
// registries.
func (m *Metrics) writePhases(w io.Writer, multi bool) {
	type groupPhaseKey struct {
		group int
		k     phaseKey
	}
	m.mu.Lock()
	var keys []groupPhaseKey
	snaps := make(map[groupPhaseKey]HistogramSnapshot)
	for _, g := range m.groupIDs() {
		for k, h := range m.groups[g].phases {
			gk := groupPhaseKey{group: g, k: k}
			keys = append(keys, gk)
			snaps[gk] = h.snapshot()
		}
	}
	m.mu.Unlock()
	if len(keys) == 0 {
		return
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].k.phase != keys[j].k.phase {
			return keys[i].k.phase < keys[j].k.phase
		}
		if keys[i].group != keys[j].group {
			return keys[i].group < keys[j].group
		}
		return keys[i].k.replica < keys[j].k.replica
	})
	fmt.Fprintf(w, "# HELP pbft_phase_seconds Per-request lifecycle phase latency (adjacent stamp points; end_to_end is first to last).\n# TYPE pbft_phase_seconds histogram\n")
	for _, gk := range keys {
		h := snaps[gk]
		labels := fmt.Sprintf("phase=%q,replica=\"%d\"", gk.k.phase.String(), gk.k.replica)
		if multi {
			labels = fmt.Sprintf("group=\"%d\",%s", gk.group, labels)
		}
		cum := uint64(0)
		for i, b := range h.Bounds {
			cum += h.Counts[i]
			fmt.Fprintf(w, "pbft_phase_seconds_bucket{%s,le=\"%g\"} %d\n", labels, b, cum)
		}
		fmt.Fprintf(w, "pbft_phase_seconds_bucket{%s,le=\"+Inf\"} %d\n", labels, h.Count)
		fmt.Fprintf(w, "pbft_phase_seconds_sum{%s} %g\n", labels, h.Sum)
		fmt.Fprintf(w, "pbft_phase_seconds_count{%s} %d\n", labels, h.Count)
	}
}

// WriteUDPStats renders only the pbft_udp_* transport series. Front-ends
// that expose client metrics plus their own UDP endpoint counters
// (pbft-gateway) and the bench's -metrics summary use it to surface the
// syscall-batching numbers without the full replica exposition.
func (m *Metrics) WriteUDPStats(w io.Writer) {
	m.mu.Lock()
	multi := len(m.groups) > 1
	m.mu.Unlock()
	m.infoMu.Lock()
	transports := append([]transportSource(nil), m.transports...)
	m.infoMu.Unlock()
	writeTransports(w, transports, multi)
}

// writeTransports renders the registered UDP endpoints' syscall-batching
// counters: totals plus occupancy histograms over the fixed BatchStats
// buckets (1, 2-3, 4-7, 8-15, 16+ datagrams per syscall).
func writeTransports(w io.Writer, transports []transportSource, multi bool) {
	if len(transports) == 0 {
		return
	}
	rows := make([]transportRow, 0, len(transports))
	for _, src := range transports {
		labels := fmt.Sprintf("replica=\"%d\"", src.id)
		if multi {
			labels = fmt.Sprintf("group=\"%d\",replica=\"%d\"", src.group, src.id)
		}
		rows = append(rows, transportRow{labels: labels, s: src.stats()})
	}
	fmt.Fprintf(w, "# HELP pbft_udp_recv_syscalls_total Receive syscalls that returned at least one datagram.\n# TYPE pbft_udp_recv_syscalls_total counter\n")
	for _, r := range rows {
		fmt.Fprintf(w, "pbft_udp_recv_syscalls_total{%s} %d\n", r.labels, r.s.RecvCalls)
	}
	fmt.Fprintf(w, "# HELP pbft_udp_recv_datagrams_total Datagrams returned by receive syscalls.\n# TYPE pbft_udp_recv_datagrams_total counter\n")
	for _, r := range rows {
		fmt.Fprintf(w, "pbft_udp_recv_datagrams_total{%s} %d\n", r.labels, r.s.RecvMsgs)
	}
	fmt.Fprintf(w, "# HELP pbft_udp_send_syscalls_total Send syscalls issued.\n# TYPE pbft_udp_send_syscalls_total counter\n")
	for _, r := range rows {
		fmt.Fprintf(w, "pbft_udp_send_syscalls_total{%s} %d\n", r.labels, r.s.SendCalls)
	}
	fmt.Fprintf(w, "# HELP pbft_udp_send_datagrams_total Datagrams moved by send syscalls.\n# TYPE pbft_udp_send_datagrams_total counter\n")
	for _, r := range rows {
		fmt.Fprintf(w, "pbft_udp_send_datagrams_total{%s} %d\n", r.labels, r.s.SendMsgs)
	}
	writeOccupancy(w, "pbft_udp_recv_batch_occupancy", "Datagrams per receive syscall.", rows,
		func(s pbft.BatchStats) ([5]uint64, uint64, uint64) { return s.RecvOccupancy, s.RecvCalls, s.RecvMsgs })
	writeOccupancy(w, "pbft_udp_send_batch_occupancy", "Datagrams per send syscall.", rows,
		func(s pbft.BatchStats) ([5]uint64, uint64, uint64) { return s.SendOccupancy, s.SendCalls, s.SendMsgs })
}

// transportRow is one endpoint's counter snapshot at scrape time.
type transportRow struct {
	labels string
	s      pbft.BatchStats
}

// writeOccupancy renders one occupancy histogram per endpoint. The bucket
// counts are syscalls, the sum is datagrams — so sum/count is the mean
// batch occupancy, exactly like a latency histogram's mean.
func writeOccupancy(w io.Writer, name, help string, rows []transportRow, pick func(pbft.BatchStats) ([5]uint64, uint64, uint64)) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	for _, r := range rows {
		occ, calls, msgs := pick(r.s)
		cum := uint64(0)
		for i, b := range pbft.BatchOccupancyBounds {
			cum += occ[i]
			fmt.Fprintf(w, "%s_bucket{%s,le=\"%d\"} %d\n", name, r.labels, b, cum)
		}
		fmt.Fprintf(w, "%s_bucket{%s,le=\"+Inf\"} %d\n", name, r.labels, calls)
		fmt.Fprintf(w, "%s_sum{%s} %d\n", name, r.labels, msgs)
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, r.labels, calls)
	}
}

func writeCounter(w io.Writer, name, help string, v uint64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}

func writeHistogram(w io.Writer, name, help string, h HistogramSnapshot) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	writeHistogramSeries(w, name, "", h)
}

// writeHistogramSeries renders one histogram's bucket/sum/count lines,
// with optional extra labels (the multi-group group dimension). HELP and
// TYPE headers are the caller's responsibility so several labeled series
// can share one metric family.
func writeHistogramSeries(w io.Writer, name, labels string, h HistogramSnapshot) {
	brace := func(extra string) string {
		switch {
		case labels == "" && extra == "":
			return ""
		case labels == "":
			return "{" + extra + "}"
		case extra == "":
			return "{" + labels + "}"
		default:
			return "{" + labels + "," + extra + "}"
		}
	}
	cum := uint64(0)
	for i, b := range h.Bounds {
		cum += h.Counts[i]
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, brace(fmt.Sprintf("le=\"%g\"", b)), cum)
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, brace("le=\"+Inf\""), h.Count)
	fmt.Fprintf(w, "%s_sum%s %g\n", name, brace(""), h.Sum)
	fmt.Fprintf(w, "%s_count%s %d\n", name, brace(""), h.Count)
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
