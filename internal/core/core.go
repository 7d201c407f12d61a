// Package core implements the PBFT replica: the three-phase agreement
// protocol of Castro–Liskov with its performance optimizations (MAC
// authenticators, big-request handling, tentative execution, read-only
// requests, batching with a congestion window), checkpointing with Merkle
// state snapshots, view changes, state transfer, and the paper's dynamic
// client membership extension (§3.1).
//
// # Staged packet pipeline
//
// A replica processes packets in three stages, so the cryptographic hot
// path (§2.1 of the paper: MAC authenticators are what make agreement
// affordable) scales across cores while the protocol itself stays
// sequential:
//
//  1. Ingress (ingress.go): a pool of Options.VerifyWorkers goroutines
//     pulls raw datagrams from the transport, unmarshals envelopes, and
//     performs all stateless work — authenticator/signature checks,
//     request digest computation, session-key derivation — in parallel.
//     A reorder buffer then hands the surviving messages to the protocol
//     loop in transport arrival order, preserving per-sender FIFO.
//  2. Protocol loop (replica.go run): a single goroutine owns every piece
//     of protocol state (log, node table, checkpoints, view-change and
//     sync records) and performs only stateful validation and protocol
//     transitions. Nothing outside this goroutine may touch that state;
//     external access goes through Inspect.
//  3. Egress (auth.go seals + Replica.broadcast): messages to the group
//     are sealed and marshaled exactly once and the same byte slice is
//     fanned out through transport.Broadcast.
//
// Ownership rules between the stages: ingress workers read only immutable
// key material plus the clientAuthTable, a read-only view of client keys
// that the protocol loop republishes (syncClientAuth) after every
// membership or session mutation; a message instance is owned by one
// goroutine at a time (worker, then loop); sealed envelopes and their
// memoized wire forms are immutable once broadcast.
//
// # Lifecycle and observability
//
// A replica runs a one-shot, context-driven lifecycle — Run(ctx) blocks
// while serving, Shutdown(ctx) drains gracefully (ingress backlog,
// execution engine, pending replies) before closing, and both are
// idempotent and safe in every state (ErrStopped / ErrRunning). Protocol
// code reports view changes, checkpoints, state transfers, batches,
// commits and client sessions through one emit point (tracer.go), which
// bumps the mirrored Stats counters, feeds the flight recorder's event
// ring and calls the optional Options.Tracer on the protocol loop; see
// trace.EventKind for the taxonomy and Tracer for the blocking rules.
package core
