package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/crypto"
	"repro/internal/exec"
	"repro/internal/state"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// ErrStopped is returned by Run after the replica has been shut down:
// a replica's lifecycle is one-shot (New -> Running -> Stopped) and a
// stopped replica cannot be restarted — build a fresh one.
var ErrStopped = errors.New("core: replica stopped")

// ErrRunning is returned by Run when the replica is already running.
var ErrRunning = errors.New("core: replica already running")

// lifecycle states. Transitions: lcNew -> lcRunning -> lcStopped, or
// lcNew -> lcStopped (Shutdown before Run).
const (
	lcNew = iota
	lcRunning
	lcStopped
)

// Replica is one member of the PBFT group. All protocol state is confined
// to the event-loop goroutine started by Run; external access goes
// through Inspect. Inbound packets reach the loop through the ingress
// verification pipeline (see ingress.go), which authenticates and decodes
// them in parallel while preserving arrival order.
type Replica struct {
	id     uint32
	cfg    *Config
	kp     *crypto.KeyPair
	conn   transport.Conn
	app    Application
	region *state.Region

	n, f, quorum int
	replicaKeys  []crypto.SessionKey
	peerAddrs    []string // every other replica, for egress fan-out
	ingress      *ingress

	// Sharded execution engine (exec.Engine): applies committed
	// operations behind the commit stream, concurrently when the
	// application's Sharder declares them non-conflicting. reaper
	// overlaps agreement with execution by reaping completed applies off
	// the loop.
	exec    *exec.Engine
	sharder Sharder
	reaper  *reaper

	// flusher is the application's state.Flusher (nil when it keeps no
	// by-product of the region on disk — one nil check per span). The
	// counters below are written wherever a span is reaped (loop or
	// reaper goroutine); flushesPending counts captures submitted and
	// not yet persisted, zero behind every reapApplies.
	flusher         state.Flusher
	flushesPending  atomic.Int64
	flushErrors     atomic.Uint64
	imageFlushes    atomic.Uint64
	imageFlushPages atomic.Uint64
	imageFlushNanos atomic.Uint64

	// Protocol state owned by the run goroutine.
	view            uint64
	seq             uint64 // last assigned sequence number (as primary)
	lastExec        uint64
	committedContig uint64
	lastStable      uint64
	log             map[uint64]*entry
	nodes           *nodeTable
	bigBodies       map[crypto.Digest]*bigBody
	clientWins      map[uint32]*clientWindow
	pendingQueue    []*wire.Request
	primaryQueued   map[uint32]map[uint64]bool
	pendingSeen     map[reqKey]pendingReq
	pendingPerCli   map[uint32]int           // pendingSeen entries per client, at most ClientWindow
	applyQueue      []*pendingApply          // submitted to the engine, not yet reaped
	replyTails      map[uint32]*pendingApply // per client, the last signed-reply apply in applyQueue
	executing       bool                     // tryExecute reentrancy guard

	ckpts        map[uint64]*ckptRecord
	stableProof  [][]byte
	foreign      map[foreignKey]map[uint32][]byte
	remoteStable *ckptRecord

	pendingJoins    map[string]*pendingJoin // keyed by hex pubkey digest
	primaryJoinSeen map[string]bool
	joinReplies     map[string]*joinReply
	idSeed          uint64

	inViewChange bool
	vcTarget     uint64
	viewChanges  map[uint64]map[uint32]*vcRecord
	newViewRaw   []byte
	vcDeadline   time.Time
	held         map[heldKey]heldMsg // votes for vcTarget that overtook its NEW-VIEW (hold)

	// Crash suspicion (primarySilent). heard[i] is when the last
	// authenticated message from replica i was handled, read off tickAt,
	// the clock of the latest tick, so a packet costs one store and no
	// clock read. listeningSince starts the window over which this replica
	// may judge silence: every install and every gap in its own ticks
	// restarts it.
	heard          []time.Time
	tickAt         time.Time
	listeningSince time.Time

	sync *syncState

	ndProvider  func() wire.NonDet
	ndValidator func(nd wire.NonDet) bool

	lastStatus time.Time
	now        func() time.Time

	ctl    chan func()
	stopCh chan struct{}
	doneCh chan struct{}

	// Lifecycle state (see Run/Shutdown). lcMu guards lcState; stopOnce
	// makes the stop signal idempotent across Shutdown and context
	// cancellation.
	lcMu     sync.Mutex
	lcState  int
	stopOnce sync.Once

	// tracer receives typed protocol events; nil disables tracing (the
	// hot loop pays one nil check per event site).
	tracer Tracer

	// rec is the per-request flight recorder; nil disables phase
	// stamping (one nil check per stamp site, no allocations).
	rec *trace.Recorder

	// durable owns the replica's on-disk state (Options.DataDir); nil
	// keeps the replica diskless at the cost of one nil check on the
	// stable-checkpoint path.
	durable *durableStore

	stats Stats
}

// Stats counts replica-side protocol events; the harness reads them
// through Inspect. Batches, Checkpoints, StableCkpts, ViewChanges,
// StateTransfers, JoinsExecuted, LeavesExecuted and SessionsEvicted
// mirror an event kind and are bumped only by emit; the per-request and
// per-packet counters are direct increments.
type Stats struct {
	Executed       uint64 // requests executed (excluding read-only)
	ReadOnlyExec   uint64
	Batches        uint64 // pre-prepares executed
	Checkpoints    uint64
	StableCkpts    uint64 // by 2f+1 proof or state-transfer install
	ViewChanges    uint64
	StateTransfers uint64
	PagesFetched   uint64
	// ExecSharded counts operations the execution engine ran on a
	// single shard (the concurrent path); ExecBarriers counts
	// operations that rendezvoused every shard (unkeyed or multi-shard
	// keysets, drains, membership operations).
	ExecSharded  uint64
	ExecBarriers uint64
	// DroppedBadAuth counts packets rejected for failed authentication,
	// whether by the ingress verifier pool or by the protocol loop.
	DroppedBadAuth uint64
	// DroppedMalformed counts packets rejected for failed structural
	// decoding (garbage framing, truncated envelopes) before any
	// authentication verdict applied.
	DroppedMalformed uint64
	// DroppedIgnored counts packets silently discarded by ingress as
	// stale, misdirected, or malformed-but-authenticated.
	DroppedIgnored uint64
	// ConflictingPrePrepares counts pre-prepares rejected because a
	// different digest was already accepted for the same view and
	// sequence — the signature of an equivocating primary.
	ConflictingPrePrepares uint64
	// DroppedForgedJoins counts join requests rejected because the
	// envelope signature did not verify against the credential it
	// presented — a fabricated join identity.
	DroppedForgedJoins uint64
	RejectedNonDet     uint64
	WedgedNow          bool
	SyncingNow         bool
	JoinsExecuted      uint64
	LeavesExecuted     uint64
	SessionsEvicted    uint64
	// Durable-replica counters, all zero while DataDir is unset.
	// DurableNow reports that this replica runs with a data directory;
	// Restarts counts recoveries from an existing manifest (0 on first
	// boot); RecoveryNanos is the duration of the last disk recovery;
	// WALFsyncs/WALBytes/WALCheckpoints mirror the WAL-backed VFS
	// counters; PersistErrors counts failed stable-checkpoint persists
	// (after which the store latches broken and the replica continues
	// in-memory).
	DurableNow     bool
	Restarts       uint64
	RecoveryNanos  uint64
	WALFsyncs      uint64
	WALBytes       uint64
	WALCheckpoints uint64
	PersistErrors  uint64
	// Disk-image counters, all zero unless the application registered a
	// state.Flusher (sqlstate with Options.Durable), which ImageNow
	// reports. ImageFlushes counts span flush points persisted,
	// ImageFlushPages the pages they wrote, ImageFlushNanos the time
	// their persists took (a span's replies wait for it between the
	// exec_done and reply_sealed phases). A failed image persist counts
	// into PersistErrors.
	ImageNow        bool
	ImageFlushes    uint64
	ImageFlushPages uint64
	ImageFlushNanos uint64
}

// ckptRecord tracks one checkpoint: the local snapshot (if this replica
// produced it) and the signed votes collected from the group.
type ckptRecord struct {
	seq        uint64
	digest     crypto.Digest // composite
	root       crypto.Digest
	metaDigest crypto.Digest
	meta       []byte
	snap       *state.Snapshot
	votes      map[uint32][]byte // replica -> raw signed checkpoint envelope
	mine       bool
	stable     bool
}

// vcRecord stores one received view-change vote.
type vcRecord struct {
	vc  *wire.ViewChange
	raw []byte
}

// pendingJoin is phase-1 join state awaiting the challenge response; it is
// part of the replicated metadata.
type pendingJoin struct {
	addr      string
	pubRaw    []byte
	pub       crypto.PublicKey
	nonce     uint64
	appAuth   []byte
	challenge crypto.Digest
	ts        uint64
}

// NewReplica builds a replica. The connection is owned by the replica
// after this call; Shutdown closes it.
func NewReplica(cfg *Config, id uint32, kp *crypto.KeyPair, conn transport.Conn, app Application) (*Replica, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if int(id) >= cfg.N() {
		return nil, fmt.Errorf("core: replica id %d out of range [0,%d)", id, cfg.N())
	}
	region, err := state.NewRegion(cfg.Opts.StateSize, cfg.Opts.PageSize)
	if err != nil {
		return nil, err
	}
	// Durable recovery stage A (Options.DataDir): recover the pages file
	// through its WAL, load the manifest and rebuild the page image
	// before the application attaches. Validation failures (no or
	// corrupt manifest, image not reproducing the manifest root) reset
	// the store — the replica boots fresh and re-fetches over state
	// transfer instead of serving from suspect disk state.
	var durable *durableStore
	var recoverStart time.Time
	if cfg.Opts.DataDir != "" {
		recoverStart = time.Now()
		durable, err = openDurable(cfg.Opts.DataDir)
		if err != nil {
			return nil, err
		}
		if durable.man == nil {
			// No validated manifest: any page content on disk is
			// unverifiable (e.g. a crash before the first manifest ever
			// landed). Discard it without applying it to the region.
			if err := durable.reset(); err != nil {
				durable.close()
				return nil, err
			}
		} else if restoreErr := durable.restoreRegion(region); restoreErr != nil {
			if err := durable.reset(); err != nil {
				durable.close()
				return nil, err
			}
			// The image may be part-applied: rebuild the region so the
			// replica boots on genuinely clean genesis state.
			region, err = state.NewRegion(cfg.Opts.StateSize, cfg.Opts.PageSize)
			if err != nil {
				durable.close()
				return nil, err
			}
		}
		durable.seedLeaves(region)
	}
	// The replica drives the region's flush points (see finishSpan): an
	// application that registers a flusher while attaching is flushed
	// once per execution span, off the protocol loop.
	region.DriveFlushes()
	if su, ok := app.(StateUser); ok {
		su.AttachState(region)
	}
	r := &Replica{
		id:            id,
		cfg:           cfg,
		kp:            kp,
		conn:          conn,
		app:           app,
		region:        region,
		flusher:       region.Flusher(),
		n:             cfg.N(),
		f:             cfg.Opts.F,
		quorum:        cfg.Quorum(),
		log:           make(map[uint64]*entry),
		nodes:         newNodeTable(cfg.Opts.MaxNodes),
		bigBodies:     make(map[crypto.Digest]*bigBody),
		clientWins:    make(map[uint32]*clientWindow),
		primaryQueued: make(map[uint32]map[uint64]bool),
		pendingSeen:   make(map[reqKey]pendingReq),
		pendingPerCli: make(map[uint32]int),
		replyTails:    make(map[uint32]*pendingApply),
		heard:         make([]time.Time, cfg.N()),
		ckpts:         make(map[uint64]*ckptRecord),
		pendingJoins:  make(map[string]*pendingJoin),
		viewChanges:   make(map[uint64]map[uint32]*vcRecord),
		now:           time.Now,
		ctl:           make(chan func()),
		stopCh:        make(chan struct{}),
		doneCh:        make(chan struct{}),
		tracer:        cfg.Opts.Tracer,
		rec:           cfg.Opts.Recorder,
	}
	r.ndProvider = r.defaultNonDetProvider
	r.ndValidator = r.defaultNonDetValidator
	r.reaper = newReaper(r)

	// Pairwise replica MAC keys are derived from the static identities.
	r.replicaKeys = make([]crypto.SessionKey, r.n)
	replicaPubs := make([]crypto.PublicKey, r.n)
	for i, ri := range cfg.Replicas {
		replicaPubs[i] = ri.PubKey
		if uint32(i) != id {
			r.peerAddrs = append(r.peerAddrs, ri.Addr)
		}
		if uint32(i) == id {
			// The self entry of an authenticator is never verified, but
			// it is computed on every seal: give it real (pooled) key
			// material so it amortizes like the others.
			r.replicaKeys[i] = crypto.NewSessionKey(crypto.MarshalPublicKey(ri.PubKey))
			continue
		}
		k, err := kp.SharedKey(ri.PubKey)
		if err != nil {
			return nil, fmt.Errorf("derive replica key %d: %w", i, err)
		}
		r.replicaKeys[i] = k
	}
	r.ingress = newIngress(id, r.n, kp, r.replicaKeys, replicaPubs, cfg.Opts.verifyWorkers())
	r.ingress.rec = r.rec
	if sh, ok := app.(Sharder); ok {
		r.sharder = sh
	}
	shards := cfg.Opts.execShards()
	if r.sharder == nil {
		// Without a Sharder every operation would be an all-shard
		// barrier: same schedule as serial, minus the serial engine's
		// inline fast path. Clamp.
		shards = 1
	}
	r.exec = exec.New(shards)
	if so, ok := app.(ShardObserver); ok {
		so.ObserveExecShards(shards)
	}

	// Seed the node table: replicas and (static membership) clients.
	for _, ri := range cfg.Replicas {
		r.nodes.add(&nodeEntry{ID: ri.ID, Addr: ri.Addr, Pub: ri.PubKey})
	}
	for _, ci := range cfg.Clients {
		ci := ci
		r.nodes.add(&nodeEntry{ID: ci.ID, Addr: ci.Addr, Pub: ci.PubKey})
	}
	r.syncClientAuth()

	// The genesis checkpoint at sequence 0 anchors rollback and sync.
	r.recordLocalCheckpoint(0)
	r.ckpts[0].stable = true

	// Durable recovery stage B: rejoin at the persisted stable
	// checkpoint — metadata (dedup windows, dynamic membership, pending
	// joins), view number, and the checkpoint record with its 2f+1
	// proof. The state transfer needed afterwards is the delta only.
	if durable != nil {
		r.durable = durable
		if durable.man != nil {
			if err := r.recoverFromManifest(durable.man); err != nil {
				durable.close()
				return nil, err
			}
		}
		durable.recoveryNanos = uint64(time.Since(recoverStart))
	}
	return r, nil
}

// Run starts the replica — ingress pipeline plus event loop — and blocks
// until it stops: Shutdown is called, the context is cancelled, or the
// connection closes underneath it. It returns nil after a Shutdown-
// or connection-driven stop and ctx.Err() after a context-driven one.
//
// The lifecycle is one-shot: Run on a running replica returns ErrRunning,
// Run after Shutdown (or after a previous Run finished) returns
// ErrStopped. To run in the background, `go r.Run(ctx)`.
//
// The Running -> Stopped transition happens inside run(), before doneCh
// releases Shutdown waiters, so a caller returning from Shutdown always
// observes the stopped state (Run -> ErrStopped, Running() -> false).
func (r *Replica) Run(ctx context.Context) error {
	r.lcMu.Lock()
	state := r.lcState
	if state == lcNew {
		r.lcState = lcRunning
	}
	r.lcMu.Unlock()
	switch state {
	case lcRunning:
		return ErrRunning
	case lcStopped:
		return ErrStopped
	}

	r.ingress.start(r.conn.Recv())
	if ctx != nil && ctx.Done() != nil {
		defer context.AfterFunc(ctx, r.signalStop)()
	}
	r.run()
	if ctx != nil && ctx.Err() != nil {
		return ctx.Err()
	}
	return nil
}

// signalStop requests the event loop to wind down (idempotent).
func (r *Replica) signalStop() {
	r.stopOnce.Do(func() { close(r.stopCh) })
}

// Shutdown stops the replica gracefully: the event loop finishes its
// current transition, drains the already-verified ingress backlog
// (committed requests that reached the replica still execute and their
// replies are flushed), reaps the execution engine — detached reads
// included — and only then closes the connection. The context bounds how
// long Shutdown waits for that to complete; on expiry the teardown keeps
// running in the background and ctx.Err() is returned.
//
// Shutdown is idempotent and safe in every lifecycle state: calling it
// twice, concurrently, or before Run all work; after the first completed
// Shutdown the replica is permanently stopped (Run returns ErrStopped).
func (r *Replica) Shutdown(ctx context.Context) error {
	r.lcMu.Lock()
	if r.lcState == lcNew {
		// Never ran: there is no loop to wind down, but NewReplica
		// already spawned the execution engine and owns the connection —
		// release both so a replica that is built and discarded leaks
		// nothing.
		r.lcState = lcStopped
		r.signalStop()
		r.exec.Stop()
		if r.durable != nil {
			r.durable.close()
		}
		_ = r.conn.Close()
		close(r.doneCh)
		r.lcMu.Unlock()
		return nil
	}
	r.lcMu.Unlock()
	r.signalStop()
	select {
	case <-r.doneCh:
		return nil
	case <-ctxDone(ctx):
		return ctx.Err()
	}
}

// ctxDone tolerates nil contexts (Shutdown(nil) waits indefinitely,
// like Shutdown(context.Background())).
func ctxDone(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}

// ID returns the replica identifier.
func (r *Replica) ID() uint32 { return r.id }

// Running reports whether the event loop is live (between Run and the
// completion of Shutdown). Health endpoints use it: a stopped replica
// still answers Info from its quiescent state, but is not serving.
func (r *Replica) Running() bool {
	r.lcMu.Lock()
	defer r.lcMu.Unlock()
	return r.lcState == lcRunning
}

// Info is a point-in-time snapshot of replica progress for tests and the
// harness.
type Info struct {
	View         uint64
	LastExec     uint64
	LastStable   uint64
	InViewChange bool
	// StableDigest is the composite state digest of the last stable
	// checkpoint (the agreed region root + metadata digest). Replicas
	// at the same LastStable must report the same value — the
	// determinism suite's cross-replica assertion.
	StableDigest [32]byte
	// ExecQueueDepth is the number of operations submitted to the
	// execution engine and not yet finished (ordered applies plus
	// detached reads) — the backlog behind the commit point.
	ExecQueueDepth int
	// IngressBacklog is the number of packets verified (or being
	// verified) by the ingress pipeline and not yet consumed by the
	// protocol loop — the backlog in front of it.
	IngressBacklog int
	// BatchWindow is the batch-size bound in force for the next
	// pre-prepare: the static Options.MaxBatch.
	BatchWindow int
	// ClientSessions is the number of clients currently holding live MAC
	// session keys, bounded by Options.MaxClientSessions.
	ClientSessions int
	Stats          Stats
}

// Inspect runs fn inside the event loop, giving it safe access to the
// replica's state via the provided Info.
func (r *Replica) Inspect(fn func(Info)) {
	done := make(chan struct{})
	select {
	case r.ctl <- func() {
		fn(r.info())
		close(done)
	}:
		<-done
	case <-r.doneCh:
		fn(r.info()) // loop stopped; state is quiescent
	}
}

// Info returns a snapshot of replica progress.
func (r *Replica) Info() Info {
	var out Info
	r.Inspect(func(i Info) { out = i })
	return out
}

func (r *Replica) info() Info {
	st := r.stats
	st.DroppedBadAuth += r.ingress.droppedBadAuth.Load()
	st.DroppedMalformed += r.ingress.droppedMalformed.Load()
	st.DroppedIgnored += r.ingress.droppedIgnored.Load()
	est := r.exec.Stats()
	st.ExecSharded = est.Sharded
	st.ExecBarriers = est.Barriers
	st.WedgedNow = r.wedged()
	st.SyncingNow = r.sync != nil
	if d := r.durable; d != nil {
		st.DurableNow = true
		st.Restarts = d.restarts
		st.RecoveryNanos = d.recoveryNanos
		st.PersistErrors = d.persistErrors
		ws := d.vfs.Stats()
		st.WALFsyncs = ws.Fsyncs
		st.WALBytes = ws.Bytes
		st.WALCheckpoints = ws.Checkpoints
	}
	if r.flusher != nil {
		st.ImageNow = true
		st.PersistErrors += r.flushErrors.Load()
		st.ImageFlushes = r.imageFlushes.Load()
		st.ImageFlushPages = r.imageFlushPages.Load()
		st.ImageFlushNanos = r.imageFlushNanos.Load()
	}
	info := Info{
		View:           r.view,
		LastExec:       r.lastExec,
		LastStable:     r.lastStable,
		InViewChange:   r.inViewChange,
		ExecQueueDepth: r.exec.QueueDepth(),
		IngressBacklog: r.ingress.backlog(),
		BatchWindow:    r.cfg.Opts.MaxBatch,
		ClientSessions: r.nodes.sessionCount(),
		Stats:          st,
	}
	if ck := r.ckpts[r.lastStable]; ck != nil {
		info.StableDigest = ck.digest
	}
	return info
}

func (r *Replica) wedged() bool {
	e := r.log[r.lastExec+1]
	return e != nil && e.missingBody
}

// FlightDump snapshots the replica's per-request flight recorder: the
// last completed request timelines, retained slow requests and protocol
// events (see internal/trace). It returns the zero Dump when no
// recorder is installed. Safe to call from any goroutine, in any
// lifecycle state, concurrently with the protocol loop — unlike
// Inspect it never enters the loop.
func (r *Replica) FlightDump() trace.Dump {
	if r.rec == nil {
		return trace.Dump{Replica: r.id}
	}
	return r.rec.Dump()
}

// SetClock injects a clock for tests. Must be called before Run.
func (r *Replica) SetClock(now func() time.Time) { r.now = now }

// SetNonDet overrides the non-determinism upcalls (§2.5). Must be called
// before Run. A nil provider or validator keeps the default.
func (r *Replica) SetNonDet(provider func() wire.NonDet, validator func(wire.NonDet) bool) {
	if provider != nil {
		r.ndProvider = provider
	}
	if validator != nil {
		r.ndValidator = validator
	}
}

// run is the event loop: one goroutine owns every piece of protocol state.
// It consumes pre-verified, typed messages from the ingress pipeline.
// Teardown order (the deferred calls run in reverse registration order):
// the execution engine stops first — draining in-flight applies and
// detached reads, whose replies are still sent over the open connection —
// then the connection closes, the ingress pipeline winds down, and doneCh
// releases Shutdown waiters.
func (r *Replica) run() {
	defer close(r.doneCh)
	defer func() { // before doneCh: Shutdown returnees see Stopped
		r.lcMu.Lock()
		r.lcState = lcStopped
		r.lcMu.Unlock()
	}()
	defer func() { // after the loop: nothing persists anymore
		if r.durable != nil {
			r.durable.close()
		}
	}()
	defer r.ingress.stop()
	defer r.conn.Close()
	defer r.exec.Stop() // drain in-flight applies and detached reads
	// The reaper stops first (LIFO): the engine keeps executing its
	// queued tasks until exec.Stop, so every span the reaper still holds
	// completes and is sent before the connection closes.
	r.reaper.start()
	defer r.reaper.stop()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-r.stopCh:
			r.drainForShutdown()
			return
		case fn := <-r.ctl:
			fn()
		case m, ok := <-r.ingress.out:
			if !ok {
				return
			}
			r.handleVerified(m)
			putInMsg(m)
		case <-r.reaper.notify:
			// Spans the reaper finished between protocol events:
			// integrate them (reply cache, stats) on the loop.
			r.collectReaped()
		case <-tick.C:
			r.onTick()
		}
	}
}

// drainForShutdown is the graceful half of Shutdown: before the
// connection closes, process every message the ingress pipeline already
// admitted, so requests the group committed while this replica's loop
// was busy still execute and their replies are flushed. beginSettle
// stops the intake first — the drain handles a finite backlog (what was
// inside the pipeline at the stop signal), not a live flood — and the
// reply path stays open (handleVerified sends replies through
// tryExecute/reapApplies on the still-open connection). Consuming out
// until it closes is what lets the settling pipeline finish: a worker or
// forwarder may be parked mid-delivery on a full channel.
func (r *Replica) drainForShutdown() {
	r.ingress.beginSettle()
	for m := range r.ingress.out {
		r.handleVerified(m)
		putInMsg(m)
	}
	// Flush any replies still parked in the engine before the deferred
	// teardown closes the connection.
	r.reapApplies()
}

// handleVerified dispatches one authenticated message from the ingress
// pipeline to its protocol handler. All cryptography already happened in
// the verifier pool; what remains is stateful validation and the protocol
// transitions themselves.
//
// Message types whose decoded forms are full copies — requests (relayed
// synchronously, the decoded Op is a copy), prepares, commits, status
// gossip, session hellos, and state-transfer traffic (fetches answer
// immediately; node children and page data are decoded copies) — hand
// their receive buffer back to the transport pool after the handler
// returns. Types whose raw form is retained (pre-prepares in the log,
// checkpoint and view-change votes as proofs, join state) keep theirs
// for the garbage collector. The caller recycles the message slot itself
// (putInMsg) after this returns; no handler retains any part of it.
func (r *Replica) handleVerified(m *inMsg) {
	env := &m.env
	switch env.Type {
	case wire.MTPrePrepare, wire.MTPrepare, wire.MTCommit, wire.MTCheckpoint,
		wire.MTViewChange, wire.MTNewView, wire.MTStatus:
		// What the ingress verified against a replica's key (state-transfer
		// traffic is unauthenticated, everything else comes from clients).
		r.heard[env.Sender] = r.tickAt
	}
	switch env.Type {
	case wire.MTRequest:
		if m.req.System() && env.Sender == JoinSender {
			if !r.cfg.Opts.DynamicClients {
				return
			}
			r.onJoinRequest(env, m.req)
			return
		}
		client := r.nodes.get(env.Sender)
		if client == nil {
			// Authenticated against a session the protocol loop has
			// since evicted; treat like any other failed auth.
			r.stats.DroppedBadAuth++
			m.releaseRaw()
			return
		}
		if m.authPending {
			// The worker failed to authenticate. If the auth view has
			// not moved since, that verdict stands (re-verification
			// would return the same answer — this is what keeps forged
			// floods off the loop); otherwise re-verify at processing
			// time, which is where a racing session install or join has
			// been applied by now.
			if r.ingress.clients.generation() == m.authGen || !r.reverifyClient(env, client) {
				r.stats.DroppedBadAuth++
				m.releaseRaw()
				return
			}
		} else if !pubKeyEqual(client.Pub, m.verifiedPub) && !r.reverifyClient(env, client) {
			// The id was vacated and reassigned while the packet was in
			// the pipeline: the worker's verification vouched for a
			// different principal.
			r.stats.DroppedBadAuth++
			m.releaseRaw()
			return
		}
		r.onRequest(m.req, client, m.raw)
		m.releaseRaw()
	case wire.MTPrePrepare:
		r.acceptPrePrepare(m.pp, env.Sender, m.raw)
	case wire.MTPrepare:
		r.onPrepare(m.prep)
		m.releaseRaw()
	case wire.MTCommit:
		r.onCommit(m.cmt)
		m.releaseRaw()
	case wire.MTCheckpoint:
		r.onCheckpoint(m.ckpt, m.raw)
	case wire.MTViewChange:
		r.onViewChange(env, m.raw)
	case wire.MTNewView:
		r.onNewView(env, m.raw)
	case wire.MTSessionHello:
		r.onSessionHello(m)
		m.releaseRaw()
	case wire.MTStatus:
		r.onStatus(m.status)
		m.releaseRaw()
	case wire.MTFetch:
		r.onFetch(env)
		m.releaseRaw()
	case wire.MTStateNode:
		r.onStateNode(env)
		m.releaseRaw()
	case wire.MTStatePage:
		r.onStatePage(env)
		m.releaseRaw()
	}
}

// onTick drives timers: status gossip, view-change timeouts, sync
// re-requests and primary queue flushing.
func (r *Replica) onTick() {
	now := r.now()
	if now.Sub(r.tickAt) > r.cfg.Opts.StatusInterval {
		// The loop was not listening (start-up, a long handler, a starved
		// scheduler): it cannot tell silence from its own absence.
		r.listeningSince = now
	}
	r.tickAt = now
	if now.Sub(r.lastStatus) >= r.cfg.Opts.StatusInterval {
		r.lastStatus = now
		r.broadcastStatus()
	}
	r.checkLiveness(now)
	r.resendSync(now)
	r.maybeRecoverFromLag()
	if r.isPrimary() && !r.inViewChange {
		r.tryPropose()
	}
}

func (r *Replica) isPrimary() bool {
	return r.cfg.Primary(r.view) == r.id
}

// broadcast is the egress fan-out: seal once, marshal once, ship the same
// byte slice to every other replica through the transport's native
// broadcast path.
func (r *Replica) broadcast(env *wire.Envelope) {
	_ = transport.Broadcast(r.conn, r.peerAddrs, env.Raw())
}

// broadcastTransient seals and broadcasts a message whose bytes nothing
// retains (agreement votes, status gossip), then returns both the payload
// writer and the sealed wire form to the buffer arena: the transports
// consume the bytes before Broadcast returns, so the buffers are free the
// moment it does.
func (r *Replica) broadcastTransient(t wire.MsgType, pw *wire.Writer) {
	env := r.sealToReplicas(t, pw.Bytes())
	r.broadcast(env)
	env.ReleaseRaw()
	pw.Free()
}

// sendToReplica sends an envelope to one replica.
func (r *Replica) sendToReplica(id uint32, env *wire.Envelope) {
	if int(id) >= r.n || id == r.id {
		return
	}
	_ = r.conn.Send(r.cfg.Replicas[id].Addr, env.Raw())
}

// sendToAddr sends an envelope to an arbitrary address (clients).
func (r *Replica) sendToAddr(addr string, env *wire.Envelope) {
	_ = r.conn.Send(addr, env.Raw())
}

// broadcastStatus gossips progress so lagging peers get retransmissions.
func (r *Replica) broadcastStatus() {
	st := wire.Status{
		View:       r.view,
		LastExec:   r.lastExec,
		LastStable: r.lastStable,
		Replica:    r.id,
	}
	sw := wire.GetWriter(64)
	st.Encode(sw)
	r.broadcastTransient(wire.MTStatus, sw)
}
