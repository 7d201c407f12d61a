package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/trace"
	"repro/internal/transport"
)

// runConfig is one benchmark run: one workload, one process.
type runConfig struct {
	w       *workload
	seed    int64
	seconds float64 // measured time: open phase + closed phase
	traced  bool
	// Set-up is performed and timed setups times, and then again until
	// setupBudget is spent or maxSetups are done: a workload that sets up in
	// milliseconds gets a median of many samples.
	setups      int
	setupBudget time.Duration
	scratch     string // directory for durable state and span dumps
}

// plan splits the measured seconds into phases. Every workload spends half
// in the open loop and half in the closed loop, after a warm-up of an
// eighth; primary_crash gets a longer open phase on top, to fit the kill,
// the view change, the restart and the catch-up.
type plan struct {
	warm, open, closed time.Duration
	killAt, restartAt  time.Duration // from the start of the open phase
}

func planFor(w *workload, seconds float64) plan {
	s := time.Duration(seconds * float64(time.Second))
	p := plan{warm: s / 8, open: s / 2, closed: s / 2}
	if w.crash {
		// The view-change timeout does not shrink with the run, so short
		// (test) runs keep absolute minimums.
		p.killAt = s / 8
		p.restartAt = p.killAt + max(s/4, 3*time.Second)
		p.open = p.restartAt + max(s/4, 2*time.Second)
	}
	return p
}

// What a full run passes as runConfig.setups and setupBudget, and the cap.
const (
	minSetups   = 5
	setupBudget = 1500 * time.Millisecond
	maxSetups   = 25
)

// env is one set-up cluster with its joined, primed clients.
type env struct {
	dir     string
	cluster *harness.Cluster
	clients []*client.Client
	ops     opSource
	gen     *loadGen
	tr      *tracing // nil in an untraced cluster
}

// bandwidth is the paper's testbed link: 1 GbE measured at 938 Mbit/s. The
// mem network charges egress serialization at this speed and injects NO
// delay: latency here is processor time plus serialization, not a network.
const bandwidth = 938e6 / 8

// setUp builds a cluster for the workload, joins and primes the clients and
// preloads the state: everything a user waits for before the first request
// can be measured.
func setUp(cfg runConfig, nth int, tr *tracing) (_ *env, err error) {
	e := &env{tr: tr}
	nclients := runtime.GOMAXPROCS(0)
	e.ops = cfg.w.ops(cfg.seed, nclients)
	e.dir = filepath.Join(cfg.scratch, fmt.Sprintf("%s-seed%d-%d", cfg.w.name, cfg.seed, nth))
	if err := os.RemoveAll(e.dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return nil, err
	}
	app := cfg.w.app(e.dir)
	co := harness.ClusterOptions{
		Opts:      cfg.w.options(),
		Seed:      cfg.seed,
		App:       app,
		Bandwidth: bandwidth,
	}
	if !cfg.w.dynamic {
		co.NumClients = nclients
	}
	if cfg.w.dataDir {
		co.DataDir = filepath.Join(e.dir, "replicas")
	}
	if tr != nil {
		co.App = func(id uint32) core.Application {
			if id != 0 {
				return app(id)
			}
			// A restarted replica 0 gets a fresh application; the timing
			// wrapper carries over.
			tr.app.inner = app(id)
			return wrapApp(tr.app)
		}
		co.Recorder = func(id uint32) *trace.Recorder { return tr.recorder(int(id)) }
	}
	if e.cluster, err = harness.NewCluster(co); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			e.tearDown()
		}
	}()
	if tr != nil {
		// The only public way to interpose on a replica's connection is
		// the adversary hook, which needs a vacant slot.
		e.cluster.StopReplica(0)
		if err := e.startTracedPrimary(); err != nil {
			return nil, err
		}
	}
	ctx := context.Background()
	for i := 0; i < nclients; i++ {
		var opts []client.Option
		if tr != nil {
			opts = append(opts, client.WithRecorder(tr.recorder(tr.replicas+i)))
		}
		var cl *client.Client
		if cfg.w.dynamic {
			cl, err = e.cluster.DynamicClient(fmt.Sprintf("bench-client-%d", i), opts...)
		} else {
			cl, err = e.cluster.Client(i, opts...)
		}
		if err != nil {
			return nil, fmt.Errorf("client %d: %w", i, err)
		}
		e.clients = append(e.clients, cl)
		if cfg.w.dynamic {
			if err := cl.Join(ctx, []byte(fmt.Sprintf("bench%d:sesame", i))); err != nil {
				return nil, fmt.Errorf("client %d: join: %w", i, err)
			}
		}
	}
	for _, stmt := range e.ops.preload() {
		reply, err := e.clients[0].Invoke(ctx, stmt)
		if err == nil {
			err = e.ops.check(preloadTag, reply)
		}
		if err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	e.gen = newLoadGen(e.ops, e.clients, cfg.seed)
	e.gen.prime()
	if err := e.healthy("set-up"); err != nil {
		return nil, err
	}
	return e, nil
}

// startTracedPrimary (re)starts replica 0 behind the timing connection.
func (e *env) startTracedPrimary() error {
	return e.cluster.StartAdversary(0, func(c transport.Conn) transport.Conn {
		e.tr.conn.Conn = c
		return e.tr.conn
	})
}

// healthy fails when any request so far errored or was answered wrongly.
func (e *env) healthy(when string) error {
	if n := e.gen.errs.Load(); n > 0 {
		return fmt.Errorf("%s: %d requests failed", when, n)
	}
	if n := e.gen.wrong.Load(); n > 0 {
		return fmt.Errorf("%s: %d wrong replies, first: %s", when, n, e.gen.badMsg)
	}
	return nil
}

func (e *env) tearDown() {
	if e.gen != nil {
		e.gen.stop()
	}
	for _, cl := range e.clients {
		_ = cl.Close()
	}
	e.cluster.Stop()
	_ = os.RemoveAll(e.dir)
}

// closedBurst warms the cluster up and measures a short closed loop: the
// untraced twin of a traced run's closed phase, for trace.overhead_share.
// The cluster's generator is spent afterwards.
func (e *env) closedBurst(d time.Duration) (opsPerSecond float64) {
	g := e.gen
	g.closedLoop(phaseWarm, d)
	g.drain()
	from := g.now()
	g.closedLoop(phaseClosed, d)
	g.drain()
	to := g.now()
	ok := 0
	for _, s := range g.stop() {
		if s.phase == phaseClosed && s.ok {
			ok++
		}
	}
	e.gen = nil
	return float64(ok) / (float64(to-from) / 1e9)
}

// observed is everything a run measured, before it is turned into metrics.
type observed struct {
	cfg        runConfig
	plan       plan
	setupS     []float64 // one per set-up performed
	samples    []sample
	lagNs      []int64
	before     counters
	after      counters
	closedFrom int64 // generator-origin ns: closed phase start and end of drain
	closedTo   int64
	gauges     gauges
	fault      faultReport
	killNs     int64 // generator-origin ns of the kill (crash workloads)
	tr         *tracing
	untracedTP float64           // traced run: closed-loop ops/s of an untraced twin cluster
	probes     map[string]metric // traced run: filled in by the caller (runProbes)
	wrong      int64
	wrongMsg   string
	digestErr  error
	verifyErr  error
}

// run performs one benchmark run and returns what it measured.
func run(cfg runConfig) (*observed, error) {
	p := planFor(cfg.w, cfg.seconds)
	ob := &observed{cfg: cfg, plan: p}
	// Set-up is repeated so that setup_s is a median. The last cluster is
	// the one measured.
	var e *env
	var spent time.Duration
	for k := 0; e == nil; k++ {
		last := k+1 >= cfg.setups && (spent >= cfg.setupBudget || k+1 >= maxSetups)
		var tr *tracing
		if cfg.traced && last {
			tr = newTracing(3*cfg.w.options().F+1, runtime.GOMAXPROCS(0))
			tr.conn, tr.app = &timedConn{}, &timedApp{}
		}
		runtime.GC() // every set-up starts from the same heap state
		t0 := time.Now()
		next, err := setUp(cfg, k, tr)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", k, err)
		}
		took := time.Since(t0)
		spent += took
		ob.setupS = append(ob.setupS, took.Seconds())
		if last {
			e = next
			break
		}
		if cfg.traced && k == 0 {
			ob.untracedTP = next.closedBurst(p.warm)
		}
		next.tearDown()
	}
	defer e.tearDown()
	ob.tr = e.tr
	g := e.gen

	g.closedLoop(phaseWarm, p.warm)
	g.drain()
	if err := e.healthy("warm-up"); err != nil {
		return nil, err
	}

	// Open phase. The fault script runs beside it and owns the replica
	// table until it returns.
	faultDone := make(chan struct{})
	if cfg.w.crash {
		go func() {
			defer close(faultDone)
			restart := func() error { return e.cluster.RestartReplica(0) }
			if e.tr != nil {
				restart = e.startTracedPrimary
			}
			ob.fault = crashPrimary(e.cluster, p.killAt, p.restartAt, restart)
		}()
	} else {
		close(faultDone)
	}
	g.openLoop(cfg.w.rate, p.open)
	g.drain()
	<-faultDone
	if ob.fault.err != nil {
		return nil, ob.fault.err
	}
	if cfg.w.crash {
		ob.killNs = int64(ob.fault.killedAt.Sub(g.origin))
	}

	// Closed phase, bracketed by counter readings.
	stopGauges, gaugesDone := make(chan struct{}), make(chan struct{})
	go ob.gauges.sample(e.cluster, stopGauges, gaugesDone)
	if e.tr != nil {
		e.tr.enable(true)
	}
	ob.before = readCounters(e.cluster, e.tr)
	ob.closedFrom = g.now()
	g.closedLoop(phaseClosed, p.closed)
	g.drain()
	ob.closedTo = g.now()
	ob.after = readCounters(e.cluster, e.tr)
	if e.tr != nil {
		e.tr.enable(false)
	}
	close(stopGauges)
	<-gaugesDone

	// Correctness over the live cluster, then the samples.
	ob.digestErr = stableAgreement(e.cluster, 10*time.Second)
	ob.verifyErr = e.ops.verify(context.Background(), e.clients[0])
	ob.lagNs = g.lagSamples()
	ob.samples = g.stop()
	e.gen = nil
	ob.wrong, ob.wrongMsg = g.wrong.Load(), g.badMsg

	if cfg.traced {
		if err := writeSpans(cfg, e.tr); err != nil {
			return nil, err
		}
	}
	return ob, nil
}

// stableAgreement waits for every live replica to report the same
// LastStable and then requires byte-identical stable digests there.
func stableAgreement(c *harness.Cluster, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		var infos []core.Info
		for _, r := range c.Replicas {
			if r != nil {
				infos = append(infos, r.Info())
			}
		}
		same := true
		for _, in := range infos[1:] {
			same = same && in.LastStable == infos[0].LastStable
		}
		if same {
			for i, in := range infos[1:] {
				if in.StableDigest != infos[0].StableDigest {
					return fmt.Errorf("stable digests differ at checkpoint %d: live replica #%d has %x, #0 has %x",
						in.LastStable, i+1, in.StableDigest[:8], infos[0].StableDigest[:8])
				}
			}
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replicas did not reach a common stable checkpoint within %s", timeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// writeSpans dumps what the flight recorders still hold (completed
// timelines with their phase marks, slow-request log, protocol events): the
// spans were kept in memory for the whole run and are written once, here.
func writeSpans(cfg runConfig, tr *tracing) error {
	dumps := make([]trace.Dump, 0, len(tr.recorders))
	for _, rec := range tr.recorders {
		dumps = append(dumps, rec.Dump())
	}
	raw, err := json.Marshal(dumps)
	if err != nil {
		return err
	}
	dir := filepath.Join(cfg.scratch, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", cfg.w.name, cfg.seed)), raw, 0o644)
}
