package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/state"
	"repro/internal/trace"
	"repro/internal/transport"
)

// The traced run measures each layer from outside: a transport.Conn wrapper
// and a core.Application wrapper on replica 0, and one trace.Sink fed by
// every replica's flight recorder. None of this exists in the untraced run,
// whose numbers are the end-to-end ones.

// timedConn counts and times replica 0's sends.
type timedConn struct {
	transport.Conn
	calls  atomic.Int64 // Send + Broadcast calls
	busyNs atomic.Int64
}

func (c *timedConn) Send(to string, data []byte) error {
	t0 := time.Now()
	err := c.Conn.Send(to, data)
	c.busyNs.Add(int64(time.Since(t0)))
	c.calls.Add(1)
	return err
}

// Broadcast keeps the wrapped transport's fan-out fast path (one call, one
// payload copy); without it the wrapper would change what it measures.
func (c *timedConn) Broadcast(addrs []string, data []byte) error {
	t0 := time.Now()
	err := transport.Broadcast(c.Conn, addrs, data)
	c.busyNs.Add(int64(time.Since(t0)))
	c.calls.Add(1)
	return err
}

// durations is a concurrency-safe sample list (nanoseconds, saturating at
// ~4.29 s to halve the memory of a multi-million-sample run).
type durations struct {
	mu sync.Mutex
	on bool
	ns []uint32
}

func (d *durations) add(v time.Duration) {
	if v < 0 {
		v = 0
	}
	if v > 1<<32-1 {
		v = 1<<32 - 1
	}
	d.mu.Lock()
	if d.on {
		d.ns = append(d.ns, uint32(v))
	}
	d.mu.Unlock()
}

func (d *durations) enable(on bool) {
	d.mu.Lock()
	d.on = on
	d.mu.Unlock()
}

func (d *durations) snapshot() []float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]float64, len(d.ns))
	for i, v := range d.ns {
		out[i] = float64(v)
	}
	return out
}

// timedApp times replica 0's Application.Execute and forwards the optional
// application interfaces, so the replica configures itself exactly as it
// would over the bare application. Absent interfaces forward to the
// behaviour core applies when they are absent.
type timedApp struct {
	inner core.Application
	exec  durations
}

func (a *timedApp) Execute(op []byte, nd core.NonDetValues, readOnly bool) []byte {
	t0 := time.Now()
	out := a.inner.Execute(op, nd, readOnly)
	a.exec.add(time.Since(t0))
	return out
}

func (a *timedApp) AttachState(region *state.Region) {
	if su, ok := a.inner.(core.StateUser); ok {
		su.AttachState(region)
	}
}

func (a *timedApp) ObserveExecShards(shards int) {
	if so, ok := a.inner.(core.ShardObserver); ok {
		so.ObserveExecShards(shards)
	}
}

func (a *timedApp) Authorize(appAuth []byte) (string, bool) {
	if au, ok := a.inner.(core.Authorizer); ok {
		return au.Authorize(appAuth)
	}
	return "", true
}

// timedShardedApp adds core.Sharder: a replica treats an application that
// implements it differently from one that does not, so only applications
// that do get the method.
type timedShardedApp struct{ *timedApp }

func (a timedShardedApp) Keys(op []byte) [][]byte { return a.inner.(core.Sharder).Keys(op) }

func wrapApp(t *timedApp) core.Application {
	if _, ok := t.inner.(core.Sharder); ok {
		return timedShardedApp{t}
	}
	return t
}

// phaseSink keeps every per-phase duration the flight recorders publish
// (trace.Sink), one shard per recorder so four replicas do not contend.
type phaseSink struct {
	shards []*phaseShard
}

type phaseShard struct {
	phase [trace.NumPhases + 1]durations
}

func newPhaseSink(recorders int) *phaseSink {
	s := &phaseSink{}
	for i := 0; i < recorders; i++ {
		s.shards = append(s.shards, &phaseShard{})
	}
	return s
}

func (s *phaseSink) ObservePhase(recorder uint32, phase trace.Phase, d time.Duration) {
	if int(recorder) < len(s.shards) && phase <= trace.NumPhases {
		s.shards[recorder].phase[phase].add(d)
	}
}

func (s *phaseSink) enable(on bool) {
	for _, sh := range s.shards {
		for p := range sh.phase {
			sh.phase[p].enable(on)
		}
	}
}

// samples merges one phase's durations over recorders [from, to).
func (s *phaseSink) samples(phase trace.Phase, from, to int) []float64 {
	var out []float64
	for _, sh := range s.shards[from:to] {
		out = append(out, sh.phase[phase].snapshot()...)
	}
	return out
}

// tracing is everything the traced run adds to a cluster.
type tracing struct {
	conn      *timedConn
	app       *timedApp
	sink      *phaseSink
	recorders []*trace.Recorder // replicas first, then clients
	replicas  int
}

func newTracing(replicas, clients int) *tracing {
	return &tracing{sink: newPhaseSink(replicas + clients), replicas: replicas}
}

// recorder builds the flight recorder with sink index idx; a restarted
// replica gets a fresh one (a recorder never spans two incarnations).
func (t *tracing) recorder(idx int) *trace.Recorder {
	rec := trace.New(trace.Config{Replica: idx, Sink: t.sink})
	t.recorders = append(t.recorders, rec)
	return rec
}

func (t *tracing) enable(on bool) {
	t.sink.enable(on)
	t.app.exec.enable(on)
}
