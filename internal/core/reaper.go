package core

import "sync"

// reaper overlaps agreement with application execution: the protocol
// loop hands it spans of submitted-but-unfinished applies (the applyQueue
// of one tryExecute pass) and returns to agreement work immediately; the reaper goroutine waits for each
// span's engine tasks in submission order, makes the span's flush point
// durable (see flushPoint), seals and sends the replies — still in
// sequence order per client, from state snapshotted at submission (see
// sendSpanReplies) — and hands the span back for loop-side integration
// (reply cache, stats, client liveness).
//
// Integration is the only part that touches loop-owned state, and it runs
// only on the protocol loop: opportunistically when the reaper's notify
// channel fires, and exhaustively at every barrier (checkpoint,
// membership operation, view-change rollback, state transfer, shutdown)
// via drain. The barrier discipline is what keeps checkpoint digests
// byte-identical to reaping every span inline: a snapshot is never taken
// with a span in flight.
type reaper struct {
	r *Replica

	mu   sync.Mutex
	cond *sync.Cond // guards/wakes queue consumers and drain waiters
	// queue holds spans handed off and not yet reply-sent; done holds
	// spans reply-sent and not yet integrated by the loop; outstanding
	// counts both (handed off minus integrated).
	queue       []span
	done        []span
	outstanding int
	stopped     bool

	// notify wakes the protocol loop (capacity 1, non-blocking sends) to
	// integrate completed spans between protocol events.
	notify chan struct{}
	wg     sync.WaitGroup
}

func newReaper(r *Replica) *reaper {
	rp := &reaper{r: r, notify: make(chan struct{}, 1)}
	rp.cond = sync.NewCond(&rp.mu)
	return rp
}

// start launches the reaper goroutine (called from the replica's run).
func (rp *reaper) start() {
	rp.wg.Add(1)
	go rp.run()
}

// stop winds the reaper down after the current queue empties and waits
// for the goroutine. The engine keeps executing queued tasks regardless
// of the replica's lifecycle, so every handed-off span completes.
func (rp *reaper) stop() {
	rp.mu.Lock()
	rp.stopped = true
	rp.cond.Broadcast()
	rp.mu.Unlock()
	rp.wg.Wait()
}

// submit hands one span to the reaper. Loop-side only.
func (rp *reaper) submit(sp span) {
	rp.mu.Lock()
	rp.queue = append(rp.queue, sp)
	rp.outstanding++
	rp.cond.Broadcast()
	rp.mu.Unlock()
}

// idle reports whether no span is in flight or awaiting integration.
// Loop-side gate for the inline fast path: replies may leave the loop
// directly only when nothing older could be reordered behind them.
func (rp *reaper) idle() bool {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	return rp.outstanding == 0
}

// collect returns the spans that have been reply-sent and now await
// integration. Loop-side only.
func (rp *reaper) collect() []span {
	rp.mu.Lock()
	spans := rp.done
	rp.done = nil
	rp.outstanding -= len(spans)
	if rp.outstanding == 0 {
		rp.cond.Broadcast()
	}
	rp.mu.Unlock()
	return spans
}

// drain blocks until every handed-off span has been reply-sent and
// integrated, invoking integrate (loop-side) for each span in order. This
// is the barrier entry point behind Replica.reapApplies.
func (rp *reaper) drain(integrate func(span)) {
	rp.mu.Lock()
	for {
		for len(rp.done) > 0 {
			sp := rp.done[0]
			rp.done = rp.done[1:]
			rp.outstanding--
			rp.mu.Unlock()
			integrate(sp)
			rp.mu.Lock()
		}
		if rp.outstanding == 0 {
			break
		}
		rp.cond.Wait()
	}
	rp.mu.Unlock()
}

// run is the reaper goroutine: send each span's replies as its tasks
// finish, hand it back.
func (rp *reaper) run() {
	defer rp.wg.Done()
	for {
		rp.mu.Lock()
		for len(rp.queue) == 0 && !rp.stopped {
			rp.cond.Wait()
		}
		if len(rp.queue) == 0 {
			rp.mu.Unlock()
			return
		}
		sp := rp.queue[0]
		rp.queue = rp.queue[1:]
		rp.mu.Unlock()

		if sp.flush != nil {
			// The capture is a barrier behind the span's mutations;
			// its persist — the span's fsyncs, overlapping the loop's
			// agreement on the next span — precedes the first reply.
			<-sp.flush.task.Done()
			rp.r.runPersist(sp.flush)
		}
		rp.r.sendSpanReplies(sp.applies)

		rp.mu.Lock()
		rp.done = append(rp.done, sp)
		rp.cond.Broadcast()
		rp.mu.Unlock()
		select {
		case rp.notify <- struct{}{}:
		default:
		}
	}
}
