package core

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/crypto"
	"repro/internal/trace"
)

// Options selects the library configuration. The exported fields mirror
// the configuration axes of Table 1 of the paper: UseMACs, AllBig,
// Batching and DynamicClients.
type Options struct {
	// F is the number of Byzantine faults to tolerate; the replica group
	// must have 3F+1 members.
	F int

	// UseMACs authenticates protocol messages with per-pair MACs and
	// authenticators instead of public-key signatures ("mac"/"nomac").
	UseMACs bool

	// AllBig treats every request as "big": clients multicast request
	// bodies to all replicas and the primary forwards only digests
	// ("allbig"/"noallbig"). This is the big-request threshold of 0
	// preferred by the original implementation.
	AllBig bool

	// BigThreshold is the size in bytes at which a request is treated
	// as big when AllBig is false. Zero means "never big".
	BigThreshold int

	// Batching enables request batching behind a congestion window
	// ("batch"/"nobatch").
	Batching bool

	// CongestionWindow is the number of agreed-but-unexecuted sequence
	// numbers the primary allows before deferring new pre-prepares
	// (only meaningful with Batching).
	CongestionWindow int

	// MaxBatch bounds how many requests one pre-prepare carries (only
	// meaningful with Batching; zero or less means unbounded). It is
	// reported as ReplicaInfo.BatchWindow and the pbft_batch_window
	// gauge.
	MaxBatch int

	// MaxBatchBytes bounds a pre-prepare's payload size so it fits in
	// one datagram. Inline (non-big) request bodies count in full;
	// digest-only entries cost ~44 bytes — this is why the big-request
	// optimization interacts with batching (§2.1).
	MaxBatchBytes int

	// DynamicClients enables the Join/Leave membership extension
	// ("sta"/"nosta").
	DynamicClients bool

	// MaxNodes bounds the node table (replicas + clients) when
	// DynamicClients is enabled.
	MaxNodes int

	// SessionStaleAfter is the age beyond which an idle session may be
	// evicted to make room for a new Join.
	SessionStaleAfter time.Duration

	// TentativeExecution executes requests after prepare and marks
	// replies tentative (clients then need 2f+1 matching replies).
	TentativeExecution bool

	// CheckpointInterval is K: a checkpoint every K sequence numbers.
	CheckpointInterval uint64

	// LogWindow is L, the high-watermark distance; 0 means 2K.
	LogWindow uint64

	// StateSize is the size in bytes of the replicated state region.
	StateSize int64

	// PageSize is the state page granularity (0 = state.DefaultPageSize).
	PageSize int

	// ViewChangeTimeout is how long a backup waits for a pending
	// request to execute before starting a view change, whatever the
	// primary is doing meanwhile, and how long it waits for a view change
	// it voted for to install before voting for the next view. A primary
	// that has gone completely silent while the other replicas keep
	// talking is given up sooner, after max(ViewChangeTimeout/4,
	// 3 x StatusInterval) of silence with a request pending (see
	// Replica.primarySilent). Zero or negative disables both triggers.
	ViewChangeTimeout time.Duration

	// StatusInterval is the period of status gossip. Gossip drives
	// retransmission (to a lagging peer, and between level peers of
	// entries that sat unexecuted for longer than one interval) and lag
	// detection, and it is the heartbeat crash suspicion listens for:
	// three missed intervals bound the suspicion window from below, two
	// bound how recently the other replicas must have been heard, and a
	// replica whose own ticks are further apart than one does not judge.
	StatusInterval time.Duration

	// HelloInterval is the period at which clients blindly retransmit
	// their session establishment (the authenticator retransmission
	// timer of §2.3).
	HelloInterval time.Duration

	// RequestTimeout is how long a client waits for a reply quorum
	// before retransmitting to all replicas.
	RequestTimeout time.Duration

	// MaxTimeDrift is the tolerance of the default non-determinism
	// validator (§2.5).
	MaxTimeDrift time.Duration

	// ValidateNonDet disables the time-delta validation entirely when
	// false (the blunt fix discussed in §2.5).
	ValidateNonDet bool

	// VerifyWorkers sizes the ingress verification pool: the goroutines
	// that authenticate and decode inbound packets in parallel before
	// they reach the protocol loop. 0 means GOMAXPROCS.
	VerifyWorkers int

	// AsyncReap overlaps agreement with application execution: instead of
	// draining the execution engine before returning to the protocol
	// loop, completed applies are reaped — and their replies sealed and
	// sent, still strictly in sequence order — by a dedicated reaper
	// goroutine, so agreement on sequence n+1 runs while the application
	// is still working on n. Barrier points (checkpoints, membership
	// operations, view-change rollback, state transfer, shutdown) force a
	// full drain exactly as before, which is what keeps checkpoint
	// digests byte-identical to synchronous reaping at any shard count.
	// Purely local (never part of the replicated contract).
	AsyncReap bool

	// ExecShards sizes the sharded execution engine: the workers that
	// apply committed operations behind the ordered commit stream. An
	// application implementing Sharder gets non-conflicting operations
	// applied concurrently across shards; everything else (and every
	// operation at 1 shard) applies serially in commit order. 0 or 1
	// selects the serial configuration. Unlike ClientWindow, the shard
	// count is a purely local tuning knob — replicas with different
	// values stay digest-identical (see Sharder).
	ExecShards int

	// ClientWindow is W, the per-client window of outstanding request
	// timestamps a replica tracks for deduplication and reply caching.
	// A pipelined client can keep up to W requests in flight; requests
	// whose timestamp falls at or below the window floor are dropped as
	// duplicates. Duplicate detection decides execution, so W is part of
	// the replicated-state contract and must match across the group.
	// 0 means DefaultClientWindow.
	ClientWindow uint64

	// MaxClientSessions bounds the per-client state a replica carries for
	// a massive client population. It caps two structures:
	//
	//   - the MAC session table (local): at most this many clients hold
	//     live session keys at once; establishing one more evicts the
	//     least-recently-active session. An evicted client's identity
	//     survives — its next periodic hello re-establishes the session.
	//   - the deduplication windows (replicated): at each checkpoint,
	//     windows beyond the cap are compacted — oldest first by highest
	//     executed timestamp — down to a tombstone that keeps exact
	//     replay protection but drops the cached replies.
	//
	// The compaction half runs deterministically at checkpoints and feeds
	// the checkpoint digest, so like ClientWindow this value is part of
	// the replicated-state contract and must match across the group.
	// 0 means DefaultMaxClientSessions; negative disables both bounds.
	MaxClientSessions int

	// DataDir roots the replica's durable state on disk: a WAL-backed
	// page image plus a manifest persisting the protocol-critical
	// minimum (stable checkpoint digest + seq, view, membership
	// generation, client dedup windows) at every stable checkpoint. A
	// replica restarted over the same directory rejoins at its last
	// stable checkpoint and fetches only the delta via state transfer.
	// Empty (the default) keeps the replica diskless; the durable hooks
	// then cost one nil check. Local, excluded from deployment files —
	// each replica names its own directory.
	DataDir string `json:"-"`

	// Tracer receives the replica's protocol events (view changes,
	// checkpoints, state transfer, batches, commits, client sessions)
	// on its protocol loop. Nil (the default) disables tracing at zero
	// hot-loop cost. Tracing is a purely local observer: it never
	// influences protocol behaviour and is excluded from deployment
	// files. See Tracer for the blocking rules it must obey.
	Tracer Tracer `json:"-"`

	// Recorder is the per-request flight recorder: the replica stamps
	// phase marks (ingress arrival, verification, loop dispatch, batch
	// enqueue, quorums, execution, reply) keyed by (clientID, timestamp)
	// and publishes completed timelines plus protocol events into its
	// bounded rings (see internal/trace). One recorder serves exactly
	// one replica. Nil (the default) disables recording: every stamp
	// site costs one nil check and allocates nothing. Purely local,
	// excluded from deployment files.
	Recorder *trace.Recorder `json:"-"`
}

// DefaultClientWindow is the per-client pipeline window replicas track
// when Options.ClientWindow is zero.
const DefaultClientWindow = 16

// DefaultMaxClientSessions is the session-table and dedup-window bound in
// force when Options.MaxClientSessions is zero.
const DefaultMaxClientSessions = 4096

// DefaultOptions returns the configuration the original library shipped
// with: every optimization enabled (first row of Table 1), f = 1.
func DefaultOptions() Options {
	return Options{
		F:                  1,
		UseMACs:            true,
		AllBig:             true,
		Batching:           true,
		CongestionWindow:   1,
		MaxBatch:           64,
		MaxBatchBytes:      8000,
		DynamicClients:     false,
		MaxNodes:           256,
		SessionStaleAfter:  10 * time.Minute,
		TentativeExecution: true,
		CheckpointInterval: 128,
		StateSize:          16 << 20,
		ViewChangeTimeout:  2 * time.Second,
		StatusInterval:     150 * time.Millisecond,
		HelloInterval:      500 * time.Millisecond,
		RequestTimeout:     500 * time.Millisecond,
		MaxTimeDrift:       time.Minute,
		ValidateNonDet:     true,
		ExecShards:         1,
		AsyncReap:          true,
		ClientWindow:       DefaultClientWindow,
	}
}

// execShards resolves the effective execution shard count.
func (o *Options) execShards() int {
	if o.ExecShards > 0 {
		return o.ExecShards
	}
	return 1
}

// verifyWorkers resolves the effective ingress pool size.
func (o *Options) verifyWorkers() int {
	if o.VerifyWorkers > 0 {
		return o.VerifyWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// Robust mirrors the paper's "most robust" configuration
// (nomac, noallbig): signatures everywhere and full request bodies through
// the primary, trading throughput for fault resilience (§4.1).
func (o Options) Robust() Options {
	o.UseMACs = false
	o.AllBig = false
	return o
}

// NodeInfo is the public identity of one node (replica or pre-provisioned
// static client).
type NodeInfo struct {
	ID     uint32
	Addr   string
	PubKey crypto.PublicKey
}

// Config is the static deployment description every node starts from:
// the replica group and, without dynamic membership, the client list.
type Config struct {
	Opts     Options
	Replicas []NodeInfo
	// Clients lists the pre-provisioned clients (static membership).
	// Their IDs must not collide with replica IDs.
	Clients []NodeInfo
}

// Validate checks group sizing and identifier rules.
func (c *Config) Validate() error {
	if c.Opts.F < 1 {
		return errors.New("core: F must be >= 1")
	}
	if got, want := len(c.Replicas), 3*c.Opts.F+1; got < want {
		return fmt.Errorf("core: need %d replicas to tolerate %d faults, have %d", want, c.Opts.F, got)
	}
	for i, ri := range c.Replicas {
		if ri.ID != uint32(i) {
			return fmt.Errorf("core: replica %d must have ID %d, has %d", i, i, ri.ID)
		}
	}
	seen := make(map[uint32]bool, len(c.Clients))
	for _, ci := range c.Clients {
		if int(ci.ID) < len(c.Replicas) {
			return fmt.Errorf("core: client ID %d collides with replica IDs", ci.ID)
		}
		if seen[ci.ID] {
			return fmt.Errorf("core: duplicate client ID %d", ci.ID)
		}
		seen[ci.ID] = true
	}
	if c.Opts.CheckpointInterval == 0 {
		return errors.New("core: CheckpointInterval must be positive")
	}
	if c.Opts.StateSize <= 0 {
		return errors.New("core: StateSize must be positive")
	}
	if c.Opts.VerifyWorkers < 0 {
		return errors.New("core: VerifyWorkers must be >= 0")
	}
	if c.Opts.ExecShards < 0 {
		return errors.New("core: ExecShards must be >= 0")
	}
	return nil
}

// N returns the replica group size.
func (c *Config) N() int { return len(c.Replicas) }

// Quorum returns the 2f+1 quorum size.
func (c *Config) Quorum() int { return 2*c.Opts.F + 1 }

// Primary returns the primary replica of a view.
func (c *Config) Primary(view uint64) uint32 {
	return uint32(view % uint64(len(c.Replicas)))
}

// LogWindow returns L (defaults to twice the checkpoint interval).
func (c *Config) LogWindow() uint64 {
	if c.Opts.LogWindow != 0 {
		return c.Opts.LogWindow
	}
	return 2 * c.Opts.CheckpointInterval
}

// ClientWindow returns W, the per-client pipeline window (defaults to
// DefaultClientWindow).
func (c *Config) ClientWindow() uint64 {
	if c.Opts.ClientWindow != 0 {
		return c.Opts.ClientWindow
	}
	return DefaultClientWindow
}

// MaxClientSessions resolves the session/dedup-window bound: the default
// when unset, unlimited (0) when negative.
func (c *Config) MaxClientSessions() int {
	switch {
	case c.Opts.MaxClientSessions > 0:
		return c.Opts.MaxClientSessions
	case c.Opts.MaxClientSessions < 0:
		return 0
	default:
		return DefaultMaxClientSessions
	}
}

// IsBig reports whether a request body of the given size takes the
// big-request path.
func (c *Config) IsBig(size int) bool {
	if c.Opts.AllBig {
		return true
	}
	return c.Opts.BigThreshold > 0 && size >= c.Opts.BigThreshold
}
