package main

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
)

// The load generator owns every client connection of a run. Each client is
// driven by exactly ONE submitter goroutine that calls client.Submit and
// hands the returned *Call to a pool of waiters; the pool is as large as the
// client's pipeline window, so every in-flight call has a waiter parked on
// its Done channel and a completion is timed when it happens, never behind
// an older call. See README.md ("Known defect") for why this does not reuse
// harness.RunPipelined.

// phaseKind tags a sample with the part of the run it belongs to.
type phaseKind uint8

const (
	phaseWarm phaseKind = iota // set-up traffic: session priming, warm-up
	phaseOpen
	phaseClosed
)

// sample is one completed (or failed) request. Times are nanoseconds since
// the generator's origin instant.
type sample struct {
	phase phaseKind
	ok    bool
	start int64 // open loop: the instant the request was DUE; closed loop: submit
	done  int64
}

// pendingCall is what the submitter hands to the waiters.
type pendingCall struct {
	call   *client.Call
	phase  phaseKind
	start  int64
	tag    uint64
	closed bool // holds a closed-loop window token
}

// loadClient is one client connection with its submitter-side state.
type loadClient struct {
	idx     int
	cl      *client.Client
	rng     *rand.Rand
	n       int              // operations generated so far
	pending chan pendingCall // submitter -> waiters
	tokens  chan struct{}    // closed-loop window
	lag     []int64          // open-loop generator lateness, ns
}

type loadGen struct {
	w       opSource
	origin  time.Time
	clients []*loadClient

	inflight sync.WaitGroup // submitted and not yet recorded
	waiters  sync.WaitGroup

	mu      sync.Mutex
	samples []sample
	badMsg  string // first wrong reply, for the error report

	errs  atomic.Int64 // calls that ended in an error (timeout, closed)
	wrong atomic.Int64 // replies that failed the workload's check
}

// closedWindow is the closed-loop in-flight bound per client.
const closedWindow = 8

// newLoadGen wraps already-joined clients. seed feeds the per-client op
// generators only.
func newLoadGen(w opSource, clients []*client.Client, seed int64) *loadGen {
	g := &loadGen{w: w, origin: time.Now()}
	for i, cl := range clients {
		lc := &loadClient{
			idx: i,
			cl:  cl,
			rng: rand.New(rand.NewSource(seed*7919 + int64(i))),
			// Sized to the pipeline window: Submit itself blocks beyond
			// that, so the channel never holds more.
			pending: make(chan pendingCall, cl.PipelineDepth()),
			tokens:  make(chan struct{}, closedWindow),
		}
		for t := 0; t < closedWindow; t++ {
			lc.tokens <- struct{}{}
		}
		g.clients = append(g.clients, lc)
		for k := 0; k < cl.PipelineDepth(); k++ {
			g.waiters.Add(1)
			go g.wait(lc)
		}
	}
	return g
}

func (g *loadGen) now() int64 { return int64(time.Since(g.origin)) }

// wait is one waiter: it parks on a call, times its completion, checks the
// reply and keeps the sample; samples are merged when the waiter exits.
func (g *loadGen) wait(lc *loadClient) {
	defer g.waiters.Done()
	var local []sample
	for p := range lc.pending {
		reply, err := p.call.Result()
		done := g.now()
		ok := err == nil
		if err != nil {
			g.errs.Add(1)
		} else if cerr := g.w.check(p.tag, reply); cerr != nil {
			ok = false
			if g.wrong.Add(1) == 1 {
				g.mu.Lock()
				g.badMsg = cerr.Error()
				g.mu.Unlock()
			}
		}
		if p.closed {
			lc.tokens <- struct{}{}
		}
		local = append(local, sample{phase: p.phase, ok: ok, start: p.start, done: done})
		g.inflight.Done()
	}
	g.mu.Lock()
	g.samples = append(g.samples, local...)
	g.mu.Unlock()
}

// submit generates the client's next operation and submits it. start is the
// instant latency is timed from.
func (g *loadGen) submit(lc *loadClient, phase phaseKind, start int64, closed bool) {
	body, readOnly, tag := g.w.next(lc.idx, lc.n, lc.rng)
	lc.n++
	var call *client.Call
	if readOnly {
		call = lc.cl.Submit(context.Background(), body, client.ReadOnly())
	} else {
		call = lc.cl.Submit(context.Background(), body)
	}
	g.inflight.Add(1)
	lc.pending <- pendingCall{call: call, phase: phase, start: start, tag: tag, closed: closed}
}

// prime sends one request per client, one client at a time, and waits for
// each: it establishes every client's session.
func (g *loadGen) prime() {
	for _, lc := range g.clients {
		g.submit(lc, phaseWarm, g.now(), false)
		g.inflight.Wait()
	}
}

// openLoop offers rate requests per second, split evenly over the clients,
// for d. Request i of a client is due at a fixed instant whatever happened
// to request i-1: when Submit blocks on a full pipeline window (an outage),
// the schedule keeps running and the late requests are still timed from the
// instant they were due.
func (g *loadGen) openLoop(rate float64, d time.Duration) {
	begin := g.now() + int64(time.Millisecond)
	interval := float64(time.Second) * float64(len(g.clients)) / rate
	var wg sync.WaitGroup
	for _, lc := range g.clients {
		wg.Add(1)
		go func(lc *loadClient) {
			defer wg.Done()
			offset := interval * float64(lc.idx) / float64(len(g.clients))
			for i := 0; ; i++ {
				due := begin + int64(offset+interval*float64(i))
				if due-begin >= int64(d) {
					return
				}
				if wait := due - g.now(); wait > 0 {
					time.Sleep(time.Duration(wait))
					// Lateness is the generator's own: it is sampled only
					// when the generator slept, not when it was held back
					// by the system under test.
					lc.lag = append(lc.lag, g.now()-due)
				}
				g.submit(lc, phaseOpen, due, false)
			}
		}(lc)
	}
	wg.Wait()
}

// closedLoop keeps closedWindow requests in flight per client for d, over
// the same Submit path as the open loop.
func (g *loadGen) closedLoop(phase phaseKind, d time.Duration) {
	end := g.now() + int64(d)
	var wg sync.WaitGroup
	for _, lc := range g.clients {
		wg.Add(1)
		go func(lc *loadClient) {
			defer wg.Done()
			for g.now() < end {
				<-lc.tokens
				g.submit(lc, phase, g.now(), true)
			}
		}(lc)
	}
	wg.Wait()
}

// drain waits for every submitted call to complete. Calls are never
// cancelled: a phase ends when its last request has an outcome.
func (g *loadGen) drain() { g.inflight.Wait() }

// stop ends the waiters (after a drain) and returns all samples; they are
// complete only once stop has returned.
func (g *loadGen) stop() []sample {
	g.drain()
	for _, lc := range g.clients {
		close(lc.pending)
	}
	g.waiters.Wait()
	return g.samples
}

// lagSamples returns every open-loop lateness sample, in ns.
func (g *loadGen) lagSamples() []int64 {
	var out []int64
	for _, lc := range g.clients {
		out = append(out, lc.lag...)
	}
	return out
}
