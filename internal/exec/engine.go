// Package exec implements the deterministic sharded execution engine:
// the pipeline stage between the ordered commit stream and the
// application.
//
// The replica's protocol loop hands the engine committed operations in
// sequence order, each tagged with its conflict keyset (core.Sharder).
// The engine hashes keysets onto a fixed set of shard workers: operations
// whose keys land on different shards run concurrently, operations on the
// same shard run FIFO in commit order, and operations without a keyset —
// or whose keys span shards — run as barriers that rendezvous every
// worker. Results are reaped by the submitter in submission order, so
// replies are released strictly in sequence order no matter how the work
// was scheduled.
//
// # Determinism
//
// The engine preserves the replicated-state contract without any
// cross-replica coordination:
//
//   - Conflicting operations (sharing a key, or involving a barrier)
//     execute in commit order on every replica, because same-key implies
//     same-shard and each shard queue is FIFO in submission order.
//   - Non-conflicting operations may interleave differently on different
//     replicas, but the Sharder contract requires them to commute at the
//     byte level (disjoint state footprints), so the region content at
//     every barrier — and therefore every checkpoint digest — is
//     independent of the interleaving.
//
// Consequently the shard count is a purely local tuning knob: replicas
// with different shard counts (including 1, the serial configuration)
// produce identical reply streams and checkpoint digests.
package exec

import (
	"sync"
	"sync/atomic"
)

// queueDepth bounds each shard's pending-task channel. The submitter (the
// replica's protocol loop) blocks when a queue is full; workers always
// drain their queues, so this backpressure cannot deadlock (a worker only
// waits at a gate that is already in its own queue).
const queueDepth = 1024

// Task is one scheduled unit of application work. Done is closed after
// the task's function returned; the submitter reaps tasks in submission
// order to release results in sequence order.
type Task struct {
	fn      func()
	gate    *gate
	ordered bool
	done    chan struct{}
}

// Done returns a channel closed when the task has executed.
func (t *Task) Done() <-chan struct{} { return t.done }

// gate is a barrier task: every worker must arrive before the function
// runs, exclusively, on the last arriver.
type gate struct {
	pending atomic.Int32
	release chan struct{}
}

// idleWaiter is one parked WaitIdle call: the channel is closed by the
// worker whose completion brings finishedOrdered up to target.
type idleWaiter struct {
	ch     chan struct{}
	target uint64
}

// Stats are cumulative scheduling counters (atomics; readable while the
// engine runs).
type Stats struct {
	// Sharded counts operations routed to a single shard (the
	// concurrent path).
	Sharded uint64
	// Barriers counts operations executed as all-shard barriers
	// (unkeyed or multi-shard keysets, plus explicit drains).
	Barriers uint64
}

// Engine schedules application execution across a fixed set of shard
// worker goroutines. All submission methods must be called from a single
// goroutine (the replica's protocol loop); Done channels and Stats may be
// read from anywhere.
type Engine struct {
	queues []chan *Task
	wg     sync.WaitGroup

	// queued counts every submitted-but-unfinished queue task (ordered
	// and detached). In the serial configuration the submitter runs an
	// ordered task inline — no queue hop, no wakeup, exactly the
	// pre-engine schedule — whenever this is zero (nothing, such as a
	// detached read, is in flight that the task would have to order
	// behind).
	queued atomic.Int64
	// submittedOrdered / finishedOrdered are monotone counters of
	// Submit tasks only (detached reads are excluded: they complete on
	// their own and nothing mutates state, so checkpoints and reply
	// reaping need not wait for them). WaitIdle parks until
	// finishedOrdered catches up with the submission count it
	// observed — exact accounting, so a finisher of an older span can
	// never wake a waiter armed for a newer one.
	submittedOrdered atomic.Uint64 // written by the submitter only
	finishedOrdered  atomic.Uint64 // written by workers
	idleW            atomic.Pointer[idleWaiter]
	inlineTask       *Task // shared pre-completed task for the inline path

	sharded  atomic.Uint64
	barriers atomic.Uint64
}

// New starts an engine with the given shard count (values below 1 are
// treated as 1, the serial configuration).
func New(shards int) *Engine {
	if shards < 1 {
		shards = 1
	}
	e := &Engine{queues: make([]chan *Task, shards)}
	e.inlineTask = &Task{done: make(chan struct{})}
	close(e.inlineTask.done)
	for i := range e.queues {
		q := make(chan *Task, queueDepth)
		e.queues[i] = q
		e.wg.Add(1)
		go e.worker(q)
	}
	return e
}

// Serial reports whether the engine runs a single shard (commit-order
// execution, no concurrency).
func (e *Engine) Serial() bool { return len(e.queues) == 1 }

// QueueDepth returns the number of submitted-but-unfinished tasks
// (ordered applies plus detached reads). Readable from any goroutine;
// the metrics surface exposes it as the execution backlog gauge.
func (e *Engine) QueueDepth() int { return int(e.queued.Load()) }

// Submit schedules an ordered operation with the given conflict keyset
// and returns its task. A nil/empty keyset, or one whose keys hash onto
// more than one shard, makes the operation a barrier: it runs
// exclusively, after all previously submitted work and before anything
// submitted later. WaitIdle waits for every Submit task.
func (e *Engine) Submit(keys [][]byte, fn func()) *Task {
	if len(e.queues) == 1 {
		// Serial: run inline while the single worker is idle (a queued
		// task would execute after everything outstanding anyway, and
		// there is no parallelism to gain). The workers' completion
		// decrements are the happens-before edges that make their
		// effects visible here once queued reads zero.
		if e.queued.Load() == 0 {
			if fn != nil {
				fn()
			}
			return e.inlineTask
		}
	}
	e.submittedOrdered.Add(1)
	return e.enqueue(keys, fn, true)
}

// SubmitDetached schedules fire-and-forget work (the read-only
// optimization): same conflict ordering as Submit, but WaitIdle does not
// wait for it — it must not mutate replicated state.
func (e *Engine) SubmitDetached(keys [][]byte, fn func()) {
	e.enqueue(keys, fn, false)
}

// enqueue routes one task onto its shard queue (or all queues, as a
// gate).
func (e *Engine) enqueue(keys [][]byte, fn func(), isOrdered bool) *Task {
	t := &Task{fn: fn, done: make(chan struct{}), ordered: isOrdered}
	e.queued.Add(1)
	if shard, ok := e.shardOf(keys); ok {
		if len(e.queues) > 1 {
			e.sharded.Add(1)
		}
		e.queues[shard] <- t
		return t
	}
	if len(e.queues) == 1 {
		e.queues[0] <- t
		return t
	}
	e.barriers.Add(1)
	t.gate = &gate{release: make(chan struct{})}
	t.gate.pending.Store(int32(len(e.queues)))
	for _, q := range e.queues {
		q <- t
	}
	return t
}

// finish accounts one completed queue task and signals an armed idle
// waiter once the waiter's observed submission count has been reached.
// The exact target makes the signal race-free in both directions: a
// stale finisher of an older span sees finished < target and stays
// silent; the finisher that reaches the target closes the channel even
// if it was armed concurrently (the waiter's re-check covers the
// load-before-arm window).
func (e *Engine) finish(t *Task) {
	e.queued.Add(-1)
	if !t.ordered {
		return
	}
	fin := e.finishedOrdered.Add(1)
	if w := e.idleW.Load(); w != nil && fin >= w.target && e.idleW.CompareAndSwap(w, nil) {
		close(w.ch)
	}
}

// WaitIdle blocks until every previously Submitted (ordered) task has
// executed: one park for a whole span of work, however many shards ran
// it. Only the submitting goroutine may call it. Detached reads may
// still be in flight afterwards.
func (e *Engine) WaitIdle() {
	target := e.submittedOrdered.Load() // exact: only this goroutine submits
	if e.finishedOrdered.Load() >= target {
		return
	}
	w := &idleWaiter{ch: make(chan struct{}), target: target}
	e.idleW.Store(w)
	if e.finishedOrdered.Load() >= target {
		// Drained between the first check and arming. Whether or not
		// the finisher claimed the waiter, the work is done; clear the
		// arm if it is still ours (an unclaimed channel is just
		// garbage-collected).
		e.idleW.CompareAndSwap(w, nil)
		return
	}
	<-w.ch
}

// Drain blocks until every previously submitted task — ordered and
// detached — has executed.
func (e *Engine) Drain() {
	<-e.Submit(nil, nil).Done()
}

// Stop drains outstanding work and terminates the workers. No submission
// may follow.
func (e *Engine) Stop() {
	for _, q := range e.queues {
		close(q)
	}
	e.wg.Wait()
}

// Stats returns the cumulative scheduling counters.
func (e *Engine) Stats() Stats {
	return Stats{Sharded: e.sharded.Load(), Barriers: e.barriers.Load()}
}

// worker executes one shard's queue FIFO, rendezvousing at gates.
func (e *Engine) worker(q chan *Task) {
	defer e.wg.Done()
	for t := range q {
		if t.gate == nil {
			if t.fn != nil {
				t.fn()
			}
			close(t.done)
			e.finish(t)
			continue
		}
		if t.gate.pending.Add(-1) == 0 {
			// Last worker to arrive: every other shard is parked at
			// this gate, so the task runs exclusively.
			if t.fn != nil {
				t.fn()
			}
			close(t.done)
			close(t.gate.release)
			e.finish(t)
		} else {
			<-t.gate.release
		}
	}
}

// shardOf maps a keyset onto a shard; ok is false when the keyset is
// empty or spans shards (barrier cases). The hash is FNV-1a, a fixed
// function of the key bytes, so conflicting operations land on the same
// shard at every replica regardless of its shard count.
func (e *Engine) shardOf(keys [][]byte) (int, bool) {
	if len(keys) == 0 {
		return 0, false
	}
	shard := -1
	for _, k := range keys {
		s := int(Hash64(k) % uint64(len(e.queues)))
		if shard == -1 {
			shard = s
		} else if shard != s {
			return 0, false
		}
	}
	return shard, true
}

// Hash64 is the engine's key hash (64-bit FNV-1a, allocation-free
// unlike hash/fnv): a fixed function of the key bytes, so conflicting
// operations land on the same shard at every replica regardless of its
// shard count. Exported for in-module applications that map names onto
// storage cells (harness.CounterApp); applications outside the module
// are free to use any fixed hash for their own cell mapping — conflict
// keys are opaque to the engine.
func Hash64(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}
