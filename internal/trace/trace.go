// Package trace implements per-request lifecycle tracing: monotonic
// phase marks stamped at the existing pipeline chokepoints (client
// submit → ingress → agreement quorums → execution → reply), a bounded
// in-memory "flight recorder" of completed request timelines plus
// protocol events, and a slow-request log retaining outlier timelines
// verbatim with per-phase attribution.
//
// Requests are keyed by (clientID, timestamp) — the pair that already
// uniquely identifies a request on the wire — so tracing needs no wire
// change. A Recorder is per node (one per replica, or one per client);
// every method is safe for concurrent use from any goroutine. A nil
// *Recorder is the disabled state: call sites guard each stamp with one
// nil check and skip all work, so the disabled hot path costs nothing
// and allocates nothing.
//
// Memory is bounded by construction: a fixed-size active-slot table
// (collisions evict, counted), a fixed-size completed ring, a fixed-size
// protocol-event ring and a fixed-size slow log. The completed ring is
// lock-free for both writers and readers (atomic pointer slots over
// immutable published timelines); only the per-slot stamp path takes a
// narrow per-slot mutex.
package trace

import (
	"sync"
	"sync/atomic"
	"time"
)

// Phase enumerates the request-lifecycle stamp points, in pipeline
// order. Client-side phases are stamped by the submitting client's
// recorder; the rest by each replica's. A timeline need not contain
// every phase: a backup that never saw the raw request has no ingress
// marks, a read-only request skips the quorum phases.
type Phase uint8

const (
	// ClientSubmit: the client assigned the request its timestamp.
	ClientSubmit Phase = iota
	// ClientSealed: the request envelope is sealed (MAC/signature done).
	ClientSealed
	// ClientFirstSend: the first transmission left the client.
	ClientFirstSend
	// IngressArrive: the datagram was pulled off the replica's transport.
	IngressArrive
	// VerifyDone: the ingress worker finished authentication + decode.
	VerifyDone
	// LoopDispatch: the protocol loop picked the request up.
	LoopDispatch
	// BatchEnqueue: the primary queued the request for proposal.
	BatchEnqueue
	// PrePrepareSent: the primary broadcast the pre-prepare covering it.
	PrePrepareSent
	// PrepareQuorum: the entry reached its 2f prepare certificate.
	PrepareQuorum
	// CommitQuorum: the entry reached its 2f+1 commit certificate.
	CommitQuorum
	// ExecSchedule: the operation was handed to the execution engine.
	ExecSchedule
	// ExecDone: Application.Execute returned (on the shard worker).
	ExecDone
	// ReplySealed: the reply envelope is sealed.
	ReplySealed
	// ReplySent: the reply left the replica. Finalizes replica timelines.
	ReplySent
	// ClientComplete: the client's reply quorum completed. Finalizes
	// client timelines.
	ClientComplete

	// NumPhases sizes per-timeline mark storage.
	NumPhases

	// EndToEnd is a synthetic phase reported to the Sink (first mark →
	// finalize mark). It is never stored in a timeline's mark array.
	EndToEnd = NumPhases
)

var phaseNames = [NumPhases + 1]string{
	"client_submit", "client_sealed", "client_first_send",
	"ingress_arrive", "verify_done", "loop_dispatch",
	"batch_enqueue", "preprepare_sent",
	"prepare_quorum", "commit_quorum",
	"exec_schedule", "exec_done",
	"reply_sealed", "reply_sent",
	"client_complete",
	"end_to_end",
}

func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// Key identifies one request: the (clientID, timestamp) pair carried by
// the wire request, replies and batch entries.
type Key struct {
	Client    uint32
	Timestamp uint64
}

// Timeline is one request's recorded lifecycle on one node. Marks are
// nanoseconds since the recorder's base instant; zero means the phase
// was not observed. A timeline is mutable only while it occupies an
// active slot; once published to the completed ring it is immutable.
type Timeline struct {
	Key  Key
	Seq  uint64 // agreement slot, once known (0 before)
	View uint64 // view it committed in, once known

	Marks [NumPhases]int64
}

// First returns the earliest stamped mark (0 if none).
func (t *Timeline) First() int64 {
	for _, m := range t.Marks {
		if m != 0 {
			return m
		}
	}
	return 0
}

// Last returns the latest stamped mark (0 if none). Marks are stamped
// at monotonically later instants but may be recorded slightly out of
// order across goroutines, so scan rather than trust pipeline order.
func (t *Timeline) Last() int64 {
	var last int64
	for _, m := range t.Marks {
		if m > last {
			last = m
		}
	}
	return last
}

// EndToEnd returns last-first over the stamped marks.
func (t *Timeline) EndToEnd() time.Duration {
	f := t.First()
	if f == 0 {
		return 0
	}
	return time.Duration(t.Last() - f)
}

// Segment is the interval between two adjacent stamped marks,
// attributed to the later phase ("time spent reaching To").
type Segment struct {
	From, To Phase
	Dur      time.Duration
}

// Segments decomposes the timeline into adjacent-phase intervals in
// pipeline order, skipping unstamped phases. Negative intervals (marks
// recorded out of order across goroutines within clock resolution) are
// clamped to zero.
func (t *Timeline) Segments() []Segment {
	var out []Segment
	prev := Phase(0)
	havePrev := false
	for p := Phase(0); p < NumPhases; p++ {
		if t.Marks[p] == 0 {
			continue
		}
		if havePrev {
			d := time.Duration(t.Marks[p] - t.Marks[prev])
			if d < 0 {
				d = 0
			}
			out = append(out, Segment{From: prev, To: p, Dur: d})
		}
		prev, havePrev = p, true
	}
	return out
}

// EventKind enumerates the protocol events of one replica. The replica
// emits every kind but the drops through its one emit point (tracer,
// flight ring and the mirrored Stats counters all derive from that
// stream); the drop kinds are recorded by the ingress pipeline, off the
// protocol loop, and reach the flight ring only.
type EventKind uint8

const (
	// EvViewChangeStart: the replica abandoned View and voted for Target.
	EvViewChangeStart EventKind = iota
	// EvViewChangeInstall: the replica entered View (= Target). It may
	// arrive without a start on a replica that jumps into a proven view.
	EvViewChangeInstall
	// EvCheckpoint: a local checkpoint was taken at Seq with Digest.
	EvCheckpoint
	// EvCheckpointStable: the checkpoint at Seq became stable, by a 2f+1
	// proof or by installing a state transfer.
	EvCheckpointStable
	// EvStateTransferStart: a fetch of the proven checkpoint Seq began
	// (a retarget of a running transfer emits another start).
	EvStateTransferStart
	// EvStateTransferFinish: the checkpoint at Seq was verified and
	// installed. Count is the replica's cumulative pages fetched.
	EvStateTransferFinish
	// EvStateTransferAbort: the transfer was abandoned (corrupt metadata).
	EvStateTransferAbort
	// EvBatch: the agreed batch Seq of Count requests was handed to the
	// execution engine; Tentative marks execution before commit (§2.1).
	EvBatch
	// EvCommit: Seq reached its 2f+1 commit certificate.
	EvCommit
	// EvSessionHello: a MAC session was (re-)established for ClientID.
	EvSessionHello
	// EvSessionJoin: the dynamic client ClientID was admitted (§3.1).
	EvSessionJoin
	// EvSessionLeave: the dynamic client ClientID left.
	EvSessionLeave
	// EvSessionEvict: ClientID's session was evicted (staleness, the
	// session cap, or single-session-per-principal).
	EvSessionEvict
	// EvDropBadAuth, EvDropMalformed, EvDropIgnored: an ingress verdict
	// discarded a packet (adversarial storms show as drop-event slopes).
	EvDropBadAuth
	EvDropMalformed
	EvDropIgnored
	numEventKinds
)

var eventNames = [numEventKinds]string{
	"view_change_start", "view_change_install",
	"checkpoint", "checkpoint_stable",
	"state_transfer_start", "state_transfer_finish", "state_transfer_abort",
	"batch", "commit",
	"session_hello", "session_join", "session_leave", "session_evict",
	"drop_bad_auth", "drop_malformed", "drop_ignored",
}

func (k EventKind) String() string {
	if int(k) < len(eventNames) {
		return eventNames[k]
	}
	return "unknown"
}

// ViewChangeCause says which of the replica's triggers started a view
// change; it is set on EvViewChangeStart only.
type ViewChangeCause uint8

const (
	// CauseNone is the zero value, carried by every other event kind.
	CauseNone ViewChangeCause = iota
	// CauseRequestTimeout: a pending request sat unexecuted for the full
	// ViewChangeTimeout (the primary may be talking, slow or withholding).
	CauseRequestTimeout
	// CausePrimarySilent: a request was pending and the primary sent
	// nothing at all for the suspicion window while the other replicas
	// kept talking — a crashed primary.
	CausePrimarySilent
	// CauseJoined: f+1 other replicas voted for higher views and this
	// replica joined the smallest of them.
	CauseJoined
	// CauseStalled: the view change being voted did not install within
	// ViewChangeTimeout and the replica moved on to the next view.
	CauseStalled
	numCauses
)

var causeNames = [numCauses]string{"", "request_timeout", "primary_silent", "joined_f+1", "stalled_view_change"}

func (c ViewChangeCause) String() string {
	if int(c) < len(causeNames) {
		return causeNames[c]
	}
	return "unknown"
}

// ringed reports whether the flight ring keeps events of this kind. The
// per-sequence kinds (batch, commit) and the per-client session kinds
// would flush the rare transitions a post-mortem needs — view changes,
// checkpoints, state transfers — out of a 256-entry ring within
// milliseconds under load, so they go to the tracer only.
func (k EventKind) ringed() bool {
	switch k {
	case EvBatch, EvCommit, EvSessionHello, EvSessionJoin, EvSessionLeave, EvSessionEvict:
		return false
	}
	return true
}

// Event is one protocol event, flat across kinds: a field a kind does
// not document (see EventKind) is zero.
type Event struct {
	// At is nanoseconds since the recorder base, stamped when the event
	// enters a flight ring; zero on the tracer stream.
	At      int64
	Kind    EventKind
	Replica uint32
	// View is the view in force after the event: the abandoned view for
	// a view-change start, the installed view for an install.
	View uint64
	Seq  uint64
	// Target is the view voted for (start) or installed (install).
	Target uint64
	// Cause is the trigger of a view-change start.
	Cause    ViewChangeCause
	Count    uint64
	ClientID uint32
	// Digest is the composite state digest (region root + metadata) of a
	// checkpoint event.
	Digest    [32]byte
	Tentative bool
}

// Sink receives per-phase durations as timelines finalize. Implemented
// by pbft/metrics to feed the pbft_phase_seconds histograms. Called on
// whatever goroutine finalizes the request (reaper, shard worker, or
// client demux); implementations must be concurrency-safe and must not
// block.
type Sink interface {
	ObservePhase(replica uint32, phase Phase, d time.Duration)
}

// Config sizes a Recorder. Zero values take the defaults; sizes round
// up to powers of two.
type Config struct {
	Replica int // node id the Sink observations are labeled with

	Slots  int // active (in-flight) timeline table   (default 1024)
	Ring   int // completed-timeline ring             (default 256)
	Events int // protocol-event ring                 (default 256)

	SlowCap      int     // retained slow timelines             (default 32)
	SlowQuantile float64 // rolling threshold quantile          (default 0.99)

	Sink Sink // optional per-phase duration consumer
}

const (
	defaultSlots      = 1024
	defaultRing       = 256
	defaultEvents     = 256
	defaultSlowCap    = 32
	defaultSlowQ      = 0.99
	slowWindow        = 256 // rolling end-to-end sample window
	slowRecalcEvery   = 64  // threshold recomputation cadence
	slowMinSamples    = 64  // no slow verdicts before this many samples
	slowHardFloorNano = 1   // guards a degenerate all-zero window
)

// slot is one entry of the active-timeline table.
type slot struct {
	mu   sync.Mutex
	live bool
	key  Key
	tl   *Timeline
}

// Recorder is the per-node flight recorder. All methods are safe for
// concurrent use. The zero value is not usable; construct with New. A
// nil *Recorder is the disabled state — callers guard stamps with a nil
// check.
type Recorder struct {
	replica uint32
	base    time.Time
	sink    Sink

	slots    []slot
	slotMask uint64

	ring     []atomic.Pointer[Timeline]
	ringMask uint64
	ringHead atomic.Uint64 // total publishes; ring index = (head-1)&mask

	events    []atomic.Pointer[Event]
	eventMask uint64
	eventHead atomic.Uint64

	evicted   atomic.Uint64 // in-flight timelines lost to slot collisions
	completed atomic.Uint64 // total finalized timelines

	// Slow-request log: a rolling window of end-to-end latencies feeds a
	// quantile threshold; timelines exceeding it are retained verbatim.
	// Touched only on the finalize path, never per stamp.
	slowMu       sync.Mutex
	slowQ        float64
	window       [slowWindow]int64
	windowNext   int
	windowCount  int // total inserts, saturating at slowWindow for fill checks
	sinceRecalc  int
	threshold    int64 // 0 until enough samples
	slow         []*Timeline
	slowNext     int
	slowRetained uint64
}

func pow2(n, def int) int {
	if n <= 0 {
		n = def
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// New builds a Recorder from cfg (zero fields take defaults).
func New(cfg Config) *Recorder {
	slots := pow2(cfg.Slots, defaultSlots)
	ring := pow2(cfg.Ring, defaultRing)
	events := pow2(cfg.Events, defaultEvents)
	slowCap := cfg.SlowCap
	if slowCap <= 0 {
		slowCap = defaultSlowCap
	}
	q := cfg.SlowQuantile
	if q <= 0 || q >= 1 {
		q = defaultSlowQ
	}
	return &Recorder{
		replica:   uint32(cfg.Replica),
		base:      time.Now(),
		sink:      cfg.Sink,
		slots:     make([]slot, slots),
		slotMask:  uint64(slots - 1),
		ring:      make([]atomic.Pointer[Timeline], ring),
		ringMask:  uint64(ring - 1),
		events:    make([]atomic.Pointer[Event], events),
		eventMask: uint64(events - 1),
		slowQ:     q,
		slow:      make([]*Timeline, slowCap),
	}
}

// Replica returns the node id the recorder labels Sink observations
// with.
func (r *Recorder) Replica() uint32 { return r.replica }

// Now returns the current mark value: nanoseconds since the recorder's
// base instant (monotonic).
func (r *Recorder) Now() int64 { return int64(time.Since(r.base)) }

func mix(k Key) uint64 {
	h := (uint64(k.Client)+1)*0x9E3779B97F4A7C15 ^ k.Timestamp
	h ^= h >> 33
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 29
	return h
}

// claimLocked returns the slot's timeline for key, evicting a colliding
// in-flight timeline if necessary. Caller holds s.mu.
func (r *Recorder) claimLocked(s *slot, key Key) *Timeline {
	if s.live && s.key == key {
		return s.tl
	}
	if s.live {
		r.evicted.Add(1)
	}
	s.live = true
	s.key = key
	s.tl = &Timeline{Key: key}
	return s.tl
}

// Stamp records phase p for the request now. The first stamp of a phase
// wins; re-stamps (retransmissions) are ignored.
func (r *Recorder) Stamp(client uint32, ts uint64, p Phase) {
	r.StampAt(client, ts, p, r.Now())
}

// StampAt records phase p at an explicit mark taken earlier with Now()
// (e.g. ingress arrival time captured before decode identified the
// request).
func (r *Recorder) StampAt(client uint32, ts uint64, p Phase, at int64) {
	key := Key{Client: client, Timestamp: ts}
	s := &r.slots[mix(key)&r.slotMask]
	s.mu.Lock()
	tl := r.claimLocked(s, key)
	if tl.Marks[p] == 0 {
		tl.Marks[p] = at
	}
	s.mu.Unlock()
}

// StampSeq records phase p and annotates the timeline with the
// agreement slot and view (first annotation wins).
func (r *Recorder) StampSeq(client uint32, ts uint64, p Phase, seq, view uint64) {
	at := r.Now()
	key := Key{Client: client, Timestamp: ts}
	s := &r.slots[mix(key)&r.slotMask]
	s.mu.Lock()
	tl := r.claimLocked(s, key)
	if tl.Marks[p] == 0 {
		tl.Marks[p] = at
	}
	if tl.Seq == 0 {
		tl.Seq = seq
		tl.View = view
	}
	s.mu.Unlock()
}

// Finish stamps the finalizing phase (ReplySent replica-side,
// ClientComplete client-side), publishes the completed timeline to the
// flight ring, feeds the Sink, and applies the slow-request check.
func (r *Recorder) Finish(client uint32, ts uint64, p Phase) {
	at := r.Now()
	key := Key{Client: client, Timestamp: ts}
	s := &r.slots[mix(key)&r.slotMask]
	s.mu.Lock()
	tl := r.claimLocked(s, key)
	if tl.Marks[p] == 0 {
		tl.Marks[p] = at
	}
	s.live = false
	s.tl = nil
	s.mu.Unlock()
	// tl is exclusively ours now: the slot no longer references it, and
	// every publish target treats it as immutable.
	r.publish(tl)
}

// publish makes a finalized (now immutable) timeline visible: completed
// ring, Sink, slow log.
func (r *Recorder) publish(tl *Timeline) {
	r.completed.Add(1)
	i := r.ringHead.Add(1) - 1
	r.ring[i&r.ringMask].Store(tl)

	e2e := tl.EndToEnd()
	if r.sink != nil {
		for _, seg := range tl.Segments() {
			r.sink.ObservePhase(r.replica, seg.To, seg.Dur)
		}
		if e2e > 0 {
			r.sink.ObservePhase(r.replica, EndToEnd, e2e)
		}
	}
	r.observeSlow(tl, int64(e2e))
}

// observeSlow maintains the rolling latency window + quantile threshold
// and retains outlier timelines. Finalize-path only.
func (r *Recorder) observeSlow(tl *Timeline, e2e int64) {
	if e2e <= 0 {
		return
	}
	r.slowMu.Lock()
	r.window[r.windowNext] = e2e
	r.windowNext = (r.windowNext + 1) % slowWindow
	if r.windowCount < slowWindow {
		r.windowCount++
	}
	r.sinceRecalc++
	if r.threshold == 0 && r.windowCount >= slowMinSamples ||
		r.sinceRecalc >= slowRecalcEvery && r.windowCount >= slowMinSamples {
		r.threshold = r.quantileLocked()
		r.sinceRecalc = 0
	}
	if r.threshold > 0 && e2e > r.threshold {
		r.slow[r.slowNext] = tl
		r.slowNext = (r.slowNext + 1) % len(r.slow)
		r.slowRetained++
	}
	r.slowMu.Unlock()
}

// quantileLocked computes the slow threshold from the filled window
// (insertion sort into a scratch copy — the window is small and the
// cadence amortizes it). Caller holds slowMu.
func (r *Recorder) quantileLocked() int64 {
	n := r.windowCount
	var scratch [slowWindow]int64
	copy(scratch[:n], r.window[:n])
	s := scratch[:n]
	for i := 1; i < n; i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
	idx := int(r.slowQ * float64(n-1))
	v := s[idx]
	if v < slowHardFloorNano {
		v = slowHardFloorNano
	}
	return v
}

// RecordEvent appends a protocol event to the flight recorder's event
// ring, stamping its At. Kinds the ring does not keep (EventKind.ringed)
// are dropped here, the one place that decides.
func (r *Recorder) RecordEvent(ev Event) {
	if !ev.Kind.ringed() {
		return
	}
	e := ev // the heap copy the ring keeps; a dropped kind allocates nothing
	e.At = r.Now()
	i := r.eventHead.Add(1) - 1
	r.events[i&r.eventMask].Store(&e)
}

// Evicted returns how many in-flight timelines were lost to active-slot
// collisions.
func (r *Recorder) Evicted() uint64 { return r.evicted.Load() }

// Completed returns the total number of finalized timelines.
func (r *Recorder) Completed() uint64 { return r.completed.Load() }
