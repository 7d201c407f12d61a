package core

import "repro/internal/trace"

// Tracer receives the replica's protocol events (trace.Event, one flat
// type tagged by trace.EventKind). Install one through Options.Tracer
// before the replica is built; a nil tracer costs the hot loop one
// predictable nil check per event.
//
// Goroutine and blocking rules (see also ARCHITECTURE.md, "Observability"):
//
//   - OnEvent fires on the replica's protocol-loop goroutine, after the
//     state transition it reports has been applied. A tracer therefore
//     observes the events of one replica in a total order, and never
//     concurrently with each other.
//   - OnEvent MUST NOT block and MUST NOT call back into the replica
//     (Info, Inspect, Shutdown): the protocol loop is stalled for as long
//     as it runs, and Inspect from a tracer deadlocks. Aggregate cheaply
//     (counters, ring buffers, non-blocking channel sends) and do
//     expensive work elsewhere.
//   - One Tracer instance may be shared by several replicas (the metrics
//     registry and the bench harness do this); every event carries the
//     reporting replica's id, but OnEvent must then be safe for
//     concurrent use.
type Tracer interface {
	OnEvent(trace.Event)
}

// emit is the one point protocol code reports an event through: it
// stamps the replica id, bumps the Stats counter that mirrors the kind,
// feeds the flight recorder's event ring (which keeps only the kinds it
// retains) and calls the tracer — always in that order, so the three
// surfaces cannot disagree about what happened.
func (r *Replica) emit(ev trace.Event) {
	ev.Replica = r.id
	switch ev.Kind {
	case trace.EvViewChangeStart:
		r.stats.ViewChanges++
	case trace.EvCheckpoint:
		r.stats.Checkpoints++
	case trace.EvCheckpointStable:
		r.stats.StableCkpts++
	case trace.EvStateTransferStart:
		r.stats.StateTransfers++
	case trace.EvBatch:
		r.stats.Batches++
	case trace.EvSessionJoin:
		r.stats.JoinsExecuted++
	case trace.EvSessionLeave:
		r.stats.LeavesExecuted++
	case trace.EvSessionEvict:
		r.stats.SessionsEvicted++
	}
	if r.rec != nil {
		r.rec.RecordEvent(ev)
	}
	if r.tracer != nil {
		r.tracer.OnEvent(ev)
	}
}
