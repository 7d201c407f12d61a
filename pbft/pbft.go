// Package pbft is the public API of the PBFT middleware: Practical
// Byzantine Fault Tolerance (Castro–Liskov) with the extensions studied
// in "On the Practicality of 'Practical' Byzantine Fault Tolerance"
// (MIDDLEWARE 2012) — dynamic client membership and a pluggable
// application interface whose state lives in a replicated, checkpointed
// memory region.
//
// A service deployment is N = 3f+1 replicas, each running a Replica
// around an Application, plus any number of clients. Clients either come
// pre-provisioned in the Config (static membership) or Join at runtime
// (§3.1 of the paper). See package sqlstate for the SQL/ACID state
// abstraction of §3.2 and the examples directory for complete programs.
//
// # Replica lifecycle and observability
//
// A replica is an observable node runtime with a one-shot, context-aware
// lifecycle: Run(ctx) blocks while the replica serves, and Shutdown(ctx)
// stops it gracefully — the ingress backlog is drained, the execution
// engine is reaped, and pending replies are flushed before the
// connection closes, so requests the group committed still get answers.
// Shutdown is idempotent and safe in every state; Run after Shutdown
// returns ErrStopped.
//
//	rep, _ := pbft.NewReplica(cfg, id, kp, conn, app)
//	go rep.Run(ctx)
//	...
//	_ = rep.Shutdown(shutdownCtx)
//
// Protocol progress is observable two ways: Replica.Info returns a
// polled snapshot (including the execution-engine queue depth and the
// ingress verify backlog), and Options.Tracer installs a Tracer whose
// one method, OnEvent, receives every protocol Event — one flat struct
// tagged by an EventKind (view change start/install, checkpoint taken/
// stable, state transfer start/finish/abort, batch, commit, client
// session hello/join/leave/evict) — from the protocol loop, at zero
// hot-loop cost when no tracer is installed:
//
//	func (t *myTracer) OnEvent(ev pbft.Event) {
//		if ev.Kind == pbft.EvViewChangeInstall {
//			t.installs.Add(1) // must not block or call back into the replica
//		}
//	}
//
// Package pbft/metrics is the batteries-included Tracer: an aggregating
// registry with counters and latency histograms served over HTTP
// (/metrics, /healthz). See ARCHITECTURE.md ("Observability") for the
// kind → fields → sinks table and the blocking rules a tracer must obey.
//
// # Clients, concurrency and pipelining
//
// A Client is safe for concurrent use and pipelines requests: Submit
// returns a *Call future immediately, and up to WithPipelineDepth
// requests stay in flight at once while a single demux goroutine collects
// reply quorums for all of them. The synchronous wrappers block per call
// but may be used from many goroutines over one client:
//
//	cl, _ := pbft.NewClient(cfg, id, kp, conn, pbft.WithPipelineDepth(16))
//	call := cl.Submit(ctx, op)          // asynchronous: a future
//	result, err := call.Result()        // wait for the reply quorum
//	result, err = cl.Invoke(ctx, op)    // synchronous wrapper
//	result, err = cl.InvokeReadOnly(ctx, op)
//
// Every submission takes a context.Context; cancellation or a deadline
// completes the call promptly with the context's error. Replicas track a
// per-client window of Options.ClientWindow outstanding timestamps, so a
// pipelined client's requests are ordered and executed concurrently
// without being dropped as duplicates.
//
// # Sharded execution
//
// Replicas apply committed operations through a deterministic sharded
// execution engine. An Application that also implements Sharder declares
// each operation's conflict keyset; with Options.ExecShards > 1
// non-conflicting operations apply
// concurrently on different shard workers while conflicting ones keep
// commit order, replies are released strictly in sequence order, and
// checkpoint digests stay byte-identical to serial execution. Read-only
// operations are dispatched through the same engine, so slow reads never
// run on the replica's protocol loop. The shard count is a local tuning
// knob, not part of the replicated contract — replicas may differ. See
// ARCHITECTURE.md for the determinism rules a Sharder must obey. The SQL
// application (package sqlstate) is not a Sharder: it runs serially at
// any shard count.
//
// # Hot-path performance
//
// Batches are bounded as in §2.1: the primary holds new pre-prepares
// while CongestionWindow sequence numbers await execution, and a batch
// carries at most MaxBatch requests and MaxBatchBytes of payload (the
// bound in force is ReplicaInfo.BatchWindow and the pbft_batch_window
// gauge). DefaultOptions also enables Options.AsyncReap, a local knob
// outside the replicated contract, which overlaps agreement with
// application execution: completed applies are reaped — and replies
// sent, still strictly in sequence order — off the protocol loop, with
// checkpoints, membership operations and view changes draining
// everything exactly as before, so checkpoint digests stay
// byte-identical to synchronous reaping.
// Message memory (sealed envelopes, seal/verify scratch, MAC states, UDP
// receive buffers) is pooled; see ARCHITECTURE.md, "Hot path & memory
// discipline", for the ownership rules and the allocation budget CI
// enforces.
package pbft

import (
	"io"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/state"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Re-exported protocol types. The aliases make the internal packages'
// documented types available as pbft.X without an import maze.
type (
	// Options selects the library configuration (the axes of the
	// paper's Table 1: UseMACs, AllBig, Batching, DynamicClients).
	// Options.DataDir makes a replica durable: crash-restart then
	// recovers from the WAL-backed on-disk state instead of a full
	// state transfer.
	Options = core.Options
	// Config describes a deployment: the replica group and the static
	// clients.
	Config = core.Config
	// NodeInfo is one node's public identity.
	NodeInfo = core.NodeInfo
	// Replica is one member of the PBFT group.
	Replica = core.Replica
	// ReplicaInfo is a progress snapshot of a replica.
	ReplicaInfo = core.Info
	// Tracer receives a replica's protocol events through its one
	// method, OnEvent (install via Options.Tracer). See the core.Tracer
	// blocking rules: it runs on the protocol loop and must not block
	// or call back in.
	Tracer = core.Tracer
	// Event is one protocol event, flat across kinds: which fields a
	// kind fills is documented on the EventKind constants.
	Event = trace.Event
	// EventKind tags an Event; EventKind.String is the snake_case label
	// the flight-dump JSON uses.
	EventKind = trace.EventKind
	// Client invokes operations against the replicated service. It is
	// safe for concurrent use and pipelines up to WithPipelineDepth
	// requests.
	Client = client.Client
	// Call is one in-flight request: a future returned by Client.Submit.
	Call = client.Call
	// ClientOption configures a client at construction
	// (WithPipelineDepth, WithMaxRetries).
	ClientOption = client.Option
	// CallOption configures one Submit (ReadOnly).
	CallOption = client.CallOption
	// Application is the replicated service implementation.
	Application = core.Application
	// Sharder is implemented by applications that opt into sharded
	// execution: Keys returns an operation's conflict keyset (nil =
	// barrier). See the determinism rules on core.Sharder.
	Sharder = core.Sharder
	// ShardObserver is notified of the engine's effective shard count
	// before the replica starts (optional).
	ShardObserver = core.ShardObserver
	// Authorizer admits dynamic clients at the application level.
	Authorizer = core.Authorizer
	// StateUser receives the replicated state region before start.
	StateUser = core.StateUser
	// StateRegion is the replicated memory region handed to StateUser
	// applications: free reads, modify notification before writes
	// (WriteAt notifies itself).
	StateRegion = state.Region
	// NonDetValues carries the agreed non-deterministic inputs.
	NonDetValues = core.NonDetValues
	// KeyPair is a node's long-term key material.
	KeyPair = crypto.KeyPair
	// PublicKey is a node's public identity.
	PublicKey = crypto.PublicKey
	// Conn is a datagram endpoint (UDP or in-memory).
	Conn = transport.Conn
	// UDPConn is the real-socket endpoint behind ListenUDP. Beyond Conn
	// it exposes the syscall batching counters (BatchStats) that the
	// observability surface and the benchmark's UDP probe report.
	UDPConn = transport.UDPConn
	// BatchStats is a snapshot of a UDP endpoint's syscall batching
	// counters: syscalls issued, datagrams moved, and the
	// datagrams-per-syscall occupancy histograms.
	BatchStats = transport.BatchStats
	// Network is the in-memory fault-injecting network.
	Network = transport.Network
	// Faults configures link behaviour on the in-memory network.
	Faults = transport.Faults
	// FlightRecorder is the per-node request-lifecycle flight recorder:
	// phase stamps keyed by (client, timestamp) flow into a lock-free
	// ring of completed timelines, a protocol-event ring and a
	// rolling-quantile slow-request log. Install on a replica with
	// Options.Recorder and on a client with WithClientRecorder; dump
	// with Replica.FlightDump or the /debug/flight endpoint
	// (metrics.Mux + Metrics.AddFlight).
	FlightRecorder = trace.Recorder
	// FlightRecorderConfig sizes a FlightRecorder (zero values select
	// the defaults documented on trace.Config).
	FlightRecorderConfig = trace.Config
	// FlightDump is a point-in-time recorder snapshot in JSON shape.
	FlightDump = trace.Dump
	// TimelineDump is one request's stamped phases in JSON shape.
	TimelineDump = trace.TimelineDump
	// Phase identifies one request-lifecycle stamp point (client submit
	// through reply quorum); Phase.String is the snake_case label used by
	// the pbft_phase_seconds metric and the flight-dump JSON.
	Phase = trace.Phase
	// PhaseSink receives per-phase latencies from a FlightRecorder as
	// timelines complete (implemented by metrics.Metrics).
	PhaseSink = trace.Sink
)

// BatchOccupancyBounds are the inclusive upper bounds of the first four
// BatchStats occupancy buckets (the fifth is unbounded).
var BatchOccupancyBounds = transport.BatchOccupancyBounds

// MaxDatagram is the largest datagram the UDP transport sends: a request
// or message whose encoding exceeds it is refused with a size error.
const MaxDatagram = transport.MaxDatagram

// Event kinds a Tracer receives, re-exported for switch statements.
const (
	EvViewChangeStart     = trace.EvViewChangeStart
	EvViewChangeInstall   = trace.EvViewChangeInstall
	EvCheckpoint          = trace.EvCheckpoint
	EvCheckpointStable    = trace.EvCheckpointStable
	EvStateTransferStart  = trace.EvStateTransferStart
	EvStateTransferFinish = trace.EvStateTransferFinish
	EvStateTransferAbort  = trace.EvStateTransferAbort
	EvBatch               = trace.EvBatch
	EvCommit              = trace.EvCommit
	EvSessionHello        = trace.EvSessionHello
	EvSessionJoin         = trace.EvSessionJoin
	EvSessionLeave        = trace.EvSessionLeave
	EvSessionEvict        = trace.EvSessionEvict
)

// Causes carried by an EvViewChangeStart event (Event.Cause): which
// trigger made the replica abandon its view.
const (
	CauseRequestTimeout = trace.CauseRequestTimeout // a request sat unexecuted for ViewChangeTimeout
	CausePrimarySilent  = trace.CausePrimarySilent  // a request was pending and the primary went silent
	CauseJoined         = trace.CauseJoined         // f+1 other replicas voted for a higher view
	CauseStalled        = trace.CauseStalled        // the view change being voted did not install in time
)

// Request-lifecycle phases, re-exported for PhaseSink implementations
// and flight-dump consumers (pipeline order).
const (
	PhaseClientSubmit    = trace.ClientSubmit
	PhaseClientSealed    = trace.ClientSealed
	PhaseClientFirstSend = trace.ClientFirstSend
	PhaseIngressArrive   = trace.IngressArrive
	PhaseVerifyDone      = trace.VerifyDone
	PhaseLoopDispatch    = trace.LoopDispatch
	PhaseBatchEnqueue    = trace.BatchEnqueue
	PhasePrePrepareSent  = trace.PrePrepareSent
	PhasePrepareQuorum   = trace.PrepareQuorum
	PhaseCommitQuorum    = trace.CommitQuorum
	PhaseExecSchedule    = trace.ExecSchedule
	PhaseExecDone        = trace.ExecDone
	PhaseReplySealed     = trace.ReplySealed
	PhaseReplySent       = trace.ReplySent
	PhaseClientComplete  = trace.ClientComplete
	// NumPhases is the count of stampable phases; PhaseEndToEnd is the
	// synthetic first-to-last sink phase emitted per completed timeline.
	NumPhases     = trace.NumPhases
	PhaseEndToEnd = trace.EndToEnd
)

// NewFlightRecorder builds a request-lifecycle flight recorder. Install
// it with Options.Recorder (replica side) or WithClientRecorder
// (client side); a nil recorder costs one nil check per stamp point.
func NewFlightRecorder(cfg FlightRecorderConfig) *FlightRecorder {
	return trace.New(cfg)
}

// WithClientRecorder attaches a flight recorder to a client: Submit
// stamps the client-side phases and quorum completion onto the
// per-request timeline.
func WithClientRecorder(rec *FlightRecorder) ClientOption {
	return client.WithRecorder(rec)
}

// ErrJoinDenied is returned by Client.Join when the service refuses.
type ErrJoinDenied = client.ErrJoinDenied

// Client sentinel errors, re-exported for errors.Is checks.
var (
	// ErrClosed is returned by operations on a closed client.
	ErrClosed = client.ErrClosed
	// ErrTimeout is returned when a call's retransmission budget ran out
	// before a reply quorum assembled.
	ErrTimeout = client.ErrTimeout
	// ErrNotJoined is returned when a dynamic client invokes before Join.
	ErrNotJoined = client.ErrNotJoined
)

// Replica lifecycle sentinel errors, re-exported for errors.Is checks.
var (
	// ErrStopped is returned by Replica.Run after Shutdown: the replica
	// lifecycle is one-shot; build a new replica to restart.
	ErrStopped = core.ErrStopped
	// ErrRunning is returned by Replica.Run while the replica runs.
	ErrRunning = core.ErrRunning
)

// WithPipelineDepth bounds how many requests a client keeps in flight at
// once (0 selects the deployment's Options.ClientWindow).
func WithPipelineDepth(n int) ClientOption { return client.WithPipelineDepth(n) }

// WithMaxRetries sizes the per-call retry budget: a call fails with
// ErrTimeout after n x Options.RequestTimeout without a reply quorum.
// Retransmissions are paced adaptively within that budget (dense at
// first, then exponential backoff), so fewer than n sends may occur.
func WithMaxRetries(n int) ClientOption { return client.WithMaxRetries(n) }

// WithBackoffCap bounds the per-call retransmission backoff ceiling
// (0 or negative selects the default of 8x Options.RequestTimeout; a cap
// at or below RequestTimeout selects fixed-interval retransmission).
func WithBackoffCap(d time.Duration) ClientOption { return client.WithBackoffCap(d) }

// ReadOnly marks one Submit read-only (immediate execution, 2f+1 quorum).
func ReadOnly() CallOption { return client.ReadOnly() }

// DefaultOptions returns the original library's preferred configuration:
// every optimization on (first row of Table 1).
func DefaultOptions() Options { return core.DefaultOptions() }

// GenerateKeyPair creates node key material (rng nil means crypto/rand).
func GenerateKeyPair(rng io.Reader) (*KeyPair, error) {
	return crypto.GenerateKeyPair(rng)
}

// NewReplica builds a replica over the connection; drive it with
// Run(ctx) and stop it with Shutdown(ctx).
func NewReplica(cfg *Config, id uint32, kp *KeyPair, conn Conn, app Application) (*Replica, error) {
	return core.NewReplica(cfg, id, kp, conn, app)
}

// NewClient builds a pre-provisioned (static membership) client.
func NewClient(cfg *Config, id uint32, kp *KeyPair, conn Conn, opts ...ClientOption) (*Client, error) {
	return client.New(cfg, id, kp, conn, opts...)
}

// NewDynamicClient builds a client that must Join before invoking (§3.1).
func NewDynamicClient(cfg *Config, kp *KeyPair, conn Conn, opts ...ClientOption) (*Client, error) {
	return client.NewDynamic(cfg, kp, conn, opts...)
}

// ListenUDP opens a UDP endpoint (the original deployment transport).
func ListenUDP(addr string) (Conn, error) {
	return transport.ListenUDP(addr)
}

// NewNetwork creates an in-memory network with fault injection, used by
// tests, benchmarks and the fault-behaviour demos (§2.4).
func NewNetwork(seed int64) *Network {
	return transport.NewNetwork(seed)
}
