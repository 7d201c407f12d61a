package core

import (
	"time"

	"repro/internal/state"
)

// NonDetValues carries the agreed non-deterministic inputs of a batch: the
// primary's wall clock and a shared random seed (§2.5). All replicas
// execute with identical values.
type NonDetValues struct {
	Time time.Time
	Rand [32]byte
}

// Application is the service replicated by the middleware. Execute runs in
// the replica's event loop; it must be deterministic given (op, nd) and
// the current content of the state region, and it must route every state
// mutation through the region (or a VFS on top of it).
type Application interface {
	// Execute applies one ordered operation and returns the reply body.
	// readOnly marks the optimized read-only path: the operation must
	// not mutate state.
	Execute(op []byte, nd NonDetValues, readOnly bool) []byte
}

// Sharder is implemented by applications that opt into the sharded
// execution engine (Options.ExecShards > 1). Keys returns the conflict
// keyset of an operation: the set of logical entities the operation reads
// or writes. The engine runs operations with disjoint keysets
// concurrently on different shard workers and serializes operations that
// share a key in commit order; a nil/empty keyset marks the operation a
// barrier (it runs alone, after everything before it and before
// everything after it).
//
// An implementation must obey the determinism rules (see ARCHITECTURE.md):
//
//   - Keys must be a pure function of the operation bytes.
//   - Execute must be safe to call concurrently for operations with
//     disjoint keysets.
//   - Operations with disjoint keysets must commute at the byte level:
//     their state-region footprints are disjoint, and neither's reply nor
//     writes depend on whether the other ran first. Operations that
//     cannot satisfy this (whole-state scans, allocator-order-sensitive
//     writes) must return nil and take the barrier path.
//
// The shard count itself is NOT part of the replicated-state contract:
// replicas with different ExecShards values (including 1) produce
// identical reply streams and checkpoint digests, because conflicting
// operations are ordered identically everywhere and non-conflicting
// operations commute.
type Sharder interface {
	// Keys returns the operation's conflict keyset (nil = barrier).
	Keys(op []byte) [][]byte
}

// ShardObserver is implemented by applications that adapt their
// execution strategy to the engine's shard count. The replica calls it
// once, before Start.
type ShardObserver interface {
	// ObserveExecShards reports the engine's effective shard count.
	ObserveExecShards(shards int)
}

// Authorizer is implemented by applications that admit dynamic clients
// (§3.1). The identification buffer from the Join request is passed down;
// the application maps it to a stable principal (e.g. a user id). The
// middleware then guarantees a single live session per principal.
type Authorizer interface {
	// Authorize validates the application-level identification buffer
	// of a Join. ok=false denies the join.
	Authorize(appAuth []byte) (principal string, ok bool)
}

// StateUser is implemented by applications that need the state region
// handed to them before the replica starts (most applications; the SQL
// layer mounts its database file on it).
type StateUser interface {
	// AttachState gives the application its replicated memory region.
	AttachState(region *state.Region)
}
