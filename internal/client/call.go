package client

import (
	"context"
	"math/rand/v2"
	"sync"
	"time"

	"repro/internal/crypto"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Call is one in-flight request: a future that completes when a reply
// quorum assembles, the submission context is cancelled, the
// retransmission budget runs out, or the client closes. Calls are created
// by Client.Submit and are safe for concurrent use.
type Call struct {
	c         *Client
	ctx       context.Context
	clientID  uint32
	timestamp uint64
	env       *wire.Envelope
	multicast bool // big/read-only/system: every send broadcasts
	windowed  bool // sequential timestamp, counted against the span window

	mu         sync.Mutex
	finished   bool
	attempts   int
	sentView   uint64    // view whose primary last received this call
	start      time.Time // first transmission; anchors the retry budget
	byDigest   map[crypto.Digest]*replyQuorum
	timer      *time.Timer
	stopCtx    func() bool
	holdsSlot  bool
	registered bool

	done   chan struct{}
	result []byte
	err    error
}

// Done returns a channel closed when the call completes.
func (call *Call) Done() <-chan struct{} { return call.done }

// Result blocks until the call completes and returns its outcome. It may
// be called any number of times from any goroutine.
func (call *Call) Result() ([]byte, error) {
	<-call.done
	return call.result, call.err
}

// Err returns nil while the call is in flight, and the call's outcome
// error (possibly nil) once it completed.
func (call *Call) Err() error {
	select {
	case <-call.done:
		return call.err
	default:
		return nil
	}
}

// failedCall builds an already-completed Call (Submit never returns nil).
func failedCall(err error) *Call {
	call := &Call{finished: true, err: err, done: make(chan struct{})}
	close(call.done)
	return call
}

// armCtx wires context cancellation into the call. context.AfterFunc
// keeps this allocation-only: no goroutine is parked per call.
func (call *Call) armCtx() {
	if call.ctx == nil || call.ctx.Done() == nil {
		return
	}
	call.mu.Lock()
	if call.finished {
		call.mu.Unlock()
		return
	}
	ctx := call.ctx
	call.stopCtx = context.AfterFunc(ctx, func() {
		call.finish(nil, ctx.Err())
	})
	call.mu.Unlock()
}

// armTimer starts the per-call retransmission timer. One time.AfterFunc
// per call, stopped on completion — timers cannot leak past the call by
// construction (the old awaitReplies allocated a fresh timer per round
// and leaked the final one on early return).
func (call *Call) armTimer(d time.Duration) {
	call.mu.Lock()
	if !call.finished {
		call.start = time.Now()
		call.timer = time.AfterFunc(d, call.onTimeout)
	}
	call.mu.Unlock()
}

// backoffGraceRounds is how many retransmission rounds stay at the base
// interval before exponential backoff starts. Early retransmissions are
// what drive recovery — they re-arm backup liveness timers through a
// view change and re-deliver requests a dead primary swallowed — so the
// first rounds stay dense and only a persistently unresponsive service
// gets backed off.
const backoffGraceRounds = 3

// retransmitDelay is the adaptive per-call backoff: the base interval
// (Options.RequestTimeout) holds for the grace rounds, then grows
// exponentially with the retransmission round, capped at the client's
// backoff ceiling; the wait is jittered across [d/2, d] (floored at the
// base) so a fleet of calls stalled by the same outage does not
// retransmit in lockstep when the service returns.
func (call *Call) retransmitDelay(attempt int) time.Duration {
	base := call.c.cfg.Opts.RequestTimeout
	d := base
	cap := call.c.backoffCap
	for i := backoffGraceRounds; i < attempt && d < cap; i++ {
		d *= 2
	}
	if d > cap {
		d = cap
	}
	if half := d / 2; half > 0 {
		d = half + rand.N(half+1)
	}
	if d < base {
		// A cap at or below the base interval degrades to the old
		// fixed-interval scheme — backoff must never retransmit FASTER
		// than the base rate.
		d = base
	}
	return d
}

// onTimeout fires when a reply quorum did not assemble within one round:
// retransmit and back off. The call's total time budget stays maxRetries
// x RequestTimeout — what the fixed-interval scheme spent — so backoff
// changes how often a stalled service is hammered, not how long a caller
// waits for ErrTimeout.
//
// Retransmission is view-aware: a call still addressed to the primary of
// a view older than the client's f+1-supported estimate is retargeted at
// the new view's primary, which may simply have never seen it (dispatch
// normally did that already, the moment the estimate advanced). Only when
// the view estimate is unchanged does the call fall back to blind
// broadcast, the heavyweight path that makes every backup relay to the
// primary and arm its view-change timer.
func (call *Call) onTimeout() {
	call.mu.Lock()
	if call.finished {
		call.mu.Unlock()
		return
	}
	call.attempts++
	budget := time.Duration(call.c.maxRetries) * call.c.cfg.Opts.RequestTimeout
	remaining := budget - time.Since(call.start)
	if remaining <= 0 {
		call.mu.Unlock()
		call.finish(nil, ErrTimeout)
		return
	}
	delay := call.retransmitDelay(call.attempts)
	if delay > remaining {
		delay = remaining
	}
	call.timer.Reset(delay)
	call.mu.Unlock()
	call.c.maybeHello()
	if !call.multicast && call.retarget(call.c.viewEstimate()) {
		return
	}
	_ = call.c.broadcast(call.env)
}

// retarget re-sends a primary-routed call to the primary of view when the
// call was last sent in an older one, and reports whether it did. The
// demux goroutine calls it the moment the f+1-supported view estimate
// advances, onTimeout as a fallback for an advance the call missed.
func (call *Call) retarget(view uint64) bool {
	call.mu.Lock()
	behind := !call.finished && call.sentView < view
	if behind {
		call.sentView = view
	}
	call.mu.Unlock()
	if behind {
		_ = call.c.conn.Send(call.c.primaryAddr(view), call.env.Raw())
	}
	return behind
}

// deliver folds one authenticated, routed reply into the quorum state.
func (call *Call) deliver(rep *wire.Reply) {
	call.mu.Lock()
	if call.finished {
		call.mu.Unlock()
		return
	}
	result, ok := recordReply(call.byDigest, rep, call.c.f, call.c.quorum)
	call.mu.Unlock()
	if ok {
		call.finish(result, nil)
	}
}

// finish completes the call exactly once: record the outcome, stop the
// retransmission timer and context hook, leave the routing table, close
// Done, and release the pipeline slot.
func (call *Call) finish(result []byte, err error) {
	call.mu.Lock()
	if call.finished {
		call.mu.Unlock()
		return
	}
	call.finished = true
	call.result, call.err = result, err
	timer := call.timer
	stopCtx := call.stopCtx
	call.mu.Unlock()

	if timer != nil {
		timer.Stop()
	}
	if stopCtx != nil {
		stopCtx()
	}
	if call.registered {
		c := call.c
		c.mu.Lock()
		if c.calls[call.timestamp] == call {
			delete(c.calls, call.timestamp)
		}
		c.mu.Unlock()
	}
	if err == nil && call.c != nil && call.c.rec != nil {
		// Quorum assembled: seal the client-side timeline. Failed calls
		// stay unfinished in the recorder and age out by eviction.
		call.c.rec.Finish(call.clientID, call.timestamp, trace.ClientComplete)
	}
	close(call.done)
	if call.holdsSlot {
		call.c.slots <- struct{}{}
	}
}
