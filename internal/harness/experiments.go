package harness

import (
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/transport"
)

// LibConfig names one library configuration of the paper's Table 1.
type LibConfig struct {
	Name    string
	Static  bool // static client management ("sta"/"nosta")
	MACs    bool // authenticators ("mac"/"nomac")
	AllBig  bool // all requests treated as big ("allbig"/"noallbig")
	Batch   bool // request batching ("batch"/"nobatch")
	Durable bool // ACID for the SQL experiments
}

// Table1Configs are the ten rows of Table 1, in the paper's order.
func Table1Configs() []LibConfig {
	return []LibConfig{
		{Name: "sta_mac_allbig_batch", Static: true, MACs: true, AllBig: true, Batch: true},
		{Name: "sta_mac_allbig_nobatch", Static: true, MACs: true, AllBig: true, Batch: false},
		{Name: "sta_mac_noallbig_batch", Static: true, MACs: true, AllBig: false, Batch: true},
		{Name: "sta_mac_noallbig_nobatch", Static: true, MACs: true, AllBig: false, Batch: false},
		{Name: "sta_nomac_allbig_batch", Static: true, MACs: false, AllBig: true, Batch: true},
		{Name: "sta_nomac_allbig_nobatch", Static: true, MACs: false, AllBig: true, Batch: false},
		{Name: "sta_nomac_noallbig_batch", Static: true, MACs: false, AllBig: false, Batch: true},
		{Name: "sta_nomac_noallbig_nobatch", Static: true, MACs: false, AllBig: false, Batch: false},
		{Name: "nosta_nomac_noallbig_batch", Static: false, MACs: false, AllBig: false, Batch: true},
		{Name: "nosta_nomac_noallbig_nobatch", Static: false, MACs: false, AllBig: false, Batch: false},
	}
}

// Fig5Configs are the configurations of Figure 5 (batching always on,
// per §4.2).
func Fig5Configs() []LibConfig {
	return []LibConfig{
		{Name: "sta_mac_allbig", Static: true, MACs: true, AllBig: true, Batch: true, Durable: true},
		{Name: "sta_mac_noallbig", Static: true, MACs: true, AllBig: false, Batch: true, Durable: true},
		{Name: "sta_nomac_allbig", Static: true, MACs: false, AllBig: true, Batch: true, Durable: true},
		{Name: "sta_nomac_noallbig", Static: true, MACs: false, AllBig: false, Batch: true, Durable: true},
		{Name: "nosta_nomac_noallbig", Static: false, MACs: false, AllBig: false, Batch: true, Durable: true},
	}
}

// ExperimentOptions sizes an experiment run.
// Tracer re-exports the protocol event tracer interface so commands
// outside the internal tree (pbft-bench) can populate the tracer hooks
// of ExperimentOptions without importing internal/core.
type Tracer = core.Tracer

type ExperimentOptions struct {
	// NumClients is the closed-loop client count (the paper uses 12).
	NumClients int
	// Duration is the measured window per configuration.
	Duration time.Duration
	// Warmup runs the workload briefly before measuring.
	Warmup time.Duration
	// RequestSize is the null request/response size (Table 1: 1024).
	RequestSize int
	// PipelineDepth is how many requests each load client keeps in
	// flight (0 or 1 = the paper's closed-loop model).
	PipelineDepth int
	// Seed makes the simulated network reproducible.
	Seed int64
	// Out receives the report (defaults to stdout).
	Out io.Writer
	// Tracer, when set, is installed on every replica of every cluster
	// an experiment builds (one shared aggregating instance; its hooks
	// must be safe for concurrent use). pbft-bench -metrics uses it to
	// print a protocol-event summary per experiment.
	Tracer core.Tracer
	// GroupTracer, when set, supersedes Tracer for partitioned
	// experiments: it builds the tracer for one consensus group, so a
	// group-aware registry (metrics.Metrics.Group) can label events per
	// group instead of folding every group into one aggregate.
	GroupTracer func(group int) Tracer
	// Record, when set, receives one machine-readable row per measured
	// configuration, in addition to the human-readable report on Out.
	// pbft-bench -json aggregates the rows into an experiment summary
	// file (the perf-trajectory artifacts like BENCH_PR5.json).
	Record func(ExperimentResult)
	// AddTransport, when set, receives every real UDP endpoint an
	// experiment binds (currently the swarm's loopback phase), keyed by
	// replica id. pbft-bench -metrics points it at the metrics
	// registry's AddTransport so the pbft_udp_* syscall-batching series
	// cover the bench the same way they cover pbft-server.
	AddTransport func(id uint32, stats func() transport.BatchStats)
}

// ExperimentResult is one machine-readable measurement row: an experiment
// family, the configuration name within it, and the core numbers. Extra
// carries experiment-specific series (packets per request, sharded-op
// counts, ...).
type ExperimentResult struct {
	Experiment string             `json:"experiment"`
	Name       string             `json:"name"`
	TPS        float64            `json:"tps"`
	Ops        uint64             `json:"ops"`
	Errors     uint64             `json:"errors"`
	Extra      map[string]float64 `json:"extra,omitempty"`
}

// record emits one row to the Record hook, if installed.
func (o *ExperimentOptions) record(experiment, name string, res RunResult, extra map[string]float64) {
	if o.Record == nil {
		return
	}
	o.Record(ExperimentResult{
		Experiment: experiment,
		Name:       name,
		TPS:        res.TPS(),
		Ops:        res.Ops,
		Errors:     res.Errors,
		Extra:      extra,
	})
}

// DefaultExperimentOptions mirrors the paper's setup scaled to a quick
// local run.
func DefaultExperimentOptions() ExperimentOptions {
	return ExperimentOptions{
		NumClients:  12,
		Duration:    3 * time.Second,
		Warmup:      500 * time.Millisecond,
		RequestSize: 1024,
		Seed:        42,
	}
}

// tracerFactory adapts the shared experiment tracer to the cluster's
// per-replica factory shape.
func (o *ExperimentOptions) tracerFactory() func(uint32) core.Tracer {
	if o.Tracer == nil {
		return nil
	}
	return func(uint32) core.Tracer { return o.Tracer }
}

func (o *ExperimentOptions) out() io.Writer {
	if o.Out != nil {
		return o.Out
	}
	return os.Stdout
}

// BenchOptionsFor maps a LibConfig onto library options (exported for
// the root-level benchmarks).
func BenchOptionsFor(lc LibConfig) core.Options {
	return buildOptions(lc)
}

// buildOptions maps a LibConfig onto library options.
func buildOptions(lc LibConfig) core.Options {
	o := core.DefaultOptions()
	o.UseMACs = lc.MACs
	o.AllBig = lc.AllBig
	o.Batching = lc.Batch
	o.DynamicClients = !lc.Static
	o.CheckpointInterval = 64
	o.StateSize = 8 << 20
	o.ViewChangeTimeout = 5 * time.Second
	o.RequestTimeout = time.Second
	return o
}

// MeasureConfig runs one configuration with the null workload and
// returns its throughput (one Table 1 cell).
func MeasureConfig(lc LibConfig, opts ExperimentOptions, app AppFactory, w Workload) (RunResult, error) {
	co := buildOptions(lc)
	numClients := opts.NumClients
	cluster, err := NewCluster(ClusterOptions{
		Opts:       co,
		NumClients: numClients,
		Seed:       opts.Seed,
		App:        app,
		// The paper's testbed: 1 GbE measured at 938 Mbit/s by iperf.
		Bandwidth: 938e6 / 8,
		Tracer:    opts.tracerFactory(),
	})
	if err != nil {
		return RunResult{}, err
	}
	defer cluster.Stop()
	depth := opts.PipelineDepth
	if depth < 1 {
		depth = 1
	}
	if opts.Warmup > 0 {
		if _, err := cluster.RunPipelined(numClients, depth, w, opts.Warmup, !lc.Static); err != nil {
			return RunResult{}, err
		}
	}
	return cluster.RunPipelined(numClients, depth, w, opts.Duration, !lc.Static)
}

// RunTable1 regenerates Table 1: every library configuration measured
// with null operations at the given request size.
func RunTable1(opts ExperimentOptions) error {
	w := opts.out()
	fmt.Fprintf(w, "Table 1 — null-operation throughput, %d clients, %d-byte requests/responses\n",
		opts.NumClients, opts.RequestSize)
	fmt.Fprintf(w, "%-30s %8s %10s %8s\n", "Name", "TPS", "ops", "errors")
	for _, lc := range Table1Configs() {
		res, err := MeasureConfig(lc, opts, NewEchoFactory(opts.RequestSize), &NullWorkload{Size: opts.RequestSize})
		if err != nil {
			return fmt.Errorf("config %s: %w", lc.Name, err)
		}
		opts.record("table1", lc.Name, res, nil)
		fmt.Fprintf(w, "%-30s %8.0f %10d %8d\n", lc.Name, res.TPS(), res.Ops, res.Errors)
	}
	return nil
}

// RunFigure4 regenerates Figure 4: the Table 1 series, one bar per
// configuration, at the representative 1024-byte size (other sizes via
// opts.RequestSize).
func RunFigure4(opts ExperimentOptions) error {
	w := opts.out()
	fmt.Fprintf(w, "Figure 4 — PBFT tests (null ops, %d bytes)\n", opts.RequestSize)
	max := 0.0
	type bar struct {
		name string
		tps  float64
	}
	bars := make([]bar, 0, 10)
	for _, lc := range Table1Configs() {
		res, err := MeasureConfig(lc, opts, NewEchoFactory(opts.RequestSize), &NullWorkload{Size: opts.RequestSize})
		if err != nil {
			return fmt.Errorf("config %s: %w", lc.Name, err)
		}
		opts.record("fig4", lc.Name, res, nil)
		bars = append(bars, bar{lc.Name, res.TPS()})
		if res.TPS() > max {
			max = res.TPS()
		}
	}
	for _, b := range bars {
		width := 0
		if max > 0 {
			width = int(b.tps / max * 50)
		}
		fmt.Fprintf(w, "%-30s %8.0f %s\n", b.name, b.tps, barString(width))
	}
	return nil
}

func barString(n int) string {
	out := make([]byte, n)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}

// RunFigure5 regenerates Figure 5: single-row INSERTs through the
// replicated ACID SQL state (batching on, §4.2).
func RunFigure5(opts ExperimentOptions, diskRoot string) error {
	w := opts.out()
	fmt.Fprintf(w, "Figure 5 — PBFT + SQL benchmark (single-row INSERT per request, ACID)\n")
	fmt.Fprintf(w, "%-30s %8s %10s %8s\n", "Name", "TPS", "ops", "errors")
	for _, lc := range Fig5Configs() {
		root, err := os.MkdirTemp(diskRoot, "fig5-"+lc.Name+"-*")
		if err != nil {
			return err
		}
		res, err := MeasureConfig(lc, opts, NewSQLFactory(lc.Durable, root), &SQLInsertWorkload{})
		_ = os.RemoveAll(root)
		if err != nil {
			return fmt.Errorf("config %s: %w", lc.Name, err)
		}
		opts.record("fig5", lc.Name, res, nil)
		fmt.Fprintf(w, "%-30s %8.0f %10d %8d\n", lc.Name, res.TPS(), res.Ops, res.Errors)
	}
	return nil
}

// RunACIDComparison regenerates the §4.2 isolation experiment: the most
// robust configuration with and without ACID semantics (the paper
// measured 534 vs 1155 TPS, about a 2x gap).
func RunACIDComparison(opts ExperimentOptions, diskRoot string) error {
	w := opts.out()
	fmt.Fprintf(w, "§4.2 — ACID vs no-ACID, most robust configuration, dynamic clients\n")
	fmt.Fprintf(w, "%-30s %8s %10s %8s\n", "Mode", "TPS", "ops", "errors")
	base := LibConfig{Name: "acid", Static: false, MACs: false, AllBig: false, Batch: true, Durable: true}
	for _, durable := range []bool{true, false} {
		lc := base
		lc.Durable = durable
		name := "ACID (journal+fsync)"
		if !durable {
			name = "No-ACID (no journal/sync)"
		}
		root := ""
		if durable {
			var err error
			root, err = os.MkdirTemp(diskRoot, "acid-*")
			if err != nil {
				return err
			}
		}
		res, err := MeasureConfig(lc, opts, NewSQLFactory(durable, root), &SQLInsertWorkload{})
		if root != "" {
			_ = os.RemoveAll(root)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		opts.record("acid", name, res, nil)
		fmt.Fprintf(w, "%-30s %8.0f %10d %8d\n", name, res.TPS(), res.Ops, res.Errors)
	}
	return nil
}

// RunLossyBatchAblation backs the Table 1 divergence note: under even
// mild packet loss (the §2.4 premise that UDP drops under stress), the
// unbatched configuration collapses — its per-request message storm keeps
// tripping timeouts and recovery — while batching shrugs it off. This is
// the mechanism behind the paper's 16x batch/nobatch gap.
func RunLossyBatchAblation(opts ExperimentOptions, lossRates []float64) error {
	w := opts.out()
	fmt.Fprintf(w, "Table 1 ablation — mac_allbig batch vs nobatch under uniform packet loss\n")
	fmt.Fprintf(w, "%8s %14s %14s %8s\n", "loss", "batch TPS", "nobatch TPS", "ratio")
	for _, loss := range lossRates {
		tps := make(map[bool]float64)
		for _, batch := range []bool{true, false} {
			lc := LibConfig{Static: true, MACs: true, AllBig: true, Batch: batch}
			co := buildOptions(lc)
			cluster, err := NewCluster(ClusterOptions{
				Opts:       co,
				NumClients: opts.NumClients,
				Seed:       opts.Seed,
				App:        NewEchoFactory(opts.RequestSize),
				Bandwidth:  938e6 / 8,
			})
			if err != nil {
				return err
			}
			cluster.Net.SetDefaultFaults(transport.Faults{LossRate: loss})
			res, err := cluster.RunClosedLoop(opts.NumClients, &NullWorkload{Size: opts.RequestSize}, opts.Duration, false)
			cluster.Stop()
			if err != nil {
				return err
			}
			name := fmt.Sprintf("loss=%.3f_batch=%v", loss, batch)
			opts.record("lossy", name, res, map[string]float64{"loss": loss})
			tps[batch] = res.TPS()
		}
		ratio := 0.0
		if tps[false] > 0 {
			ratio = tps[true] / tps[false]
		}
		fmt.Fprintf(w, "%7.1f%% %14.0f %14.0f %7.1fx\n", loss*100, tps[true], tps[false], ratio)
	}
	return nil
}

// RunDynamicOverhead measures the §4.1 dynamic-client overhead in
// isolation (the paper: 988 vs 992 TPS, ~0.5%).
func RunDynamicOverhead(opts ExperimentOptions) error {
	w := opts.out()
	fmt.Fprintf(w, "§4.1 — dynamic client management overhead (most robust configuration)\n")
	fmt.Fprintf(w, "%-30s %8s\n", "Mode", "TPS")
	for _, lc := range []LibConfig{
		{Name: "static (sta_nomac_noallbig_batch)", Static: true, Batch: true},
		{Name: "dynamic (nosta_nomac_noallbig_batch)", Static: false, Batch: true},
	} {
		res, err := MeasureConfig(lc, opts, NewEchoFactory(opts.RequestSize), &NullWorkload{Size: opts.RequestSize})
		if err != nil {
			return fmt.Errorf("config %s: %w", lc.Name, err)
		}
		opts.record("dynamic", lc.Name, res, nil)
		fmt.Fprintf(w, "%-30s %8.0f\n", lc.Name, res.TPS())
	}
	return nil
}

// RunPipelineComparison measures what request pipelining buys: the same
// total in-flight budget arranged as many closed-loop clients (the
// paper's model: one outstanding request each, one endpoint per simulated
// user) versus one pipelined client multiplexing the whole window. The
// pipelined arrangement is how a single gateway endpoint serves a large
// user population without a goroutine+connection per user.
func RunPipelineComparison(opts ExperimentOptions, depths []int) error {
	w := opts.out()
	if len(depths) == 0 {
		depths = []int{1, 4, 8, 16}
	}
	fmt.Fprintf(w, "Pipelined client — %d in-flight requests: N clients x depth 1 vs 1 client x depth N\n", depths[len(depths)-1])
	fmt.Fprintf(w, "%8s %18s %18s %8s\n", "inflight", "N clients TPS", "pipelined TPS", "errors")
	// Every cluster runs with a flight recorder per replica sinking into
	// one collector: the per-phase latency breakdown below is where a
	// pipeline depth's extra throughput comes from (and what it costs in
	// per-request queueing).
	phases := &PhaseCollector{}
	for _, depth := range depths {
		run := func(numClients, d int) (RunResult, error) {
			cluster, err := NewCluster(ClusterOptions{
				Opts:       buildOptions(LibConfig{Static: true, MACs: true, AllBig: true, Batch: true}),
				NumClients: numClients,
				Seed:       opts.Seed,
				App:        NewEchoFactory(opts.RequestSize),
				Bandwidth:  938e6 / 8,
				Recorder:   phases.Factory(),
			})
			if err != nil {
				return RunResult{}, err
			}
			defer cluster.Stop()
			return cluster.RunPipelined(numClients, d, &NullWorkload{Size: opts.RequestSize}, opts.Duration, false)
		}
		wide, err := run(depth, 1)
		if err != nil {
			return err
		}
		deep, err := run(1, depth)
		if err != nil {
			return err
		}
		opts.record("pipeline", fmt.Sprintf("%dclients_x_depth1", depth), wide, nil)
		opts.record("pipeline", fmt.Sprintf("1client_x_depth%d", depth), deep, nil)
		fmt.Fprintf(w, "%8d %18.0f %18.0f %8d\n", depth, wide.TPS(), deep.TPS(), wide.Errors+deep.Errors)
	}
	rows := phases.Snapshot().Rows()
	if len(rows) > 0 {
		fmt.Fprintf(w, "\nPer-phase latency breakdown (replica flight recorders, all runs merged)\n")
		fmt.Fprintf(w, "%-18s %10s %12s\n", "phase", "samples", "mean")
		for _, r := range rows {
			fmt.Fprintf(w, "%-18s %10d %12s\n", r.Phase.String(), r.Count, r.Mean.Round(time.Microsecond))
			if opts.Record != nil {
				opts.Record(ExperimentResult{
					Experiment: "pipeline_phase",
					Name:       r.Phase.String(),
					Ops:        r.Count,
					Extra:      map[string]float64{"mean_ms": r.Mean.Seconds() * 1e3},
				})
			}
		}
	}
	return nil
}

// RunExecShardComparison measures the sharded execution engine: the
// keyed-counter workload (mostly non-conflicting operations) against the
// same cluster at each shard count. Shards beyond the host's core count
// cannot help; on a single-core host the interesting result is that
// sharding does not regress (the engine's scheduling overhead is paid but
// unusable).
func RunExecShardComparison(opts ExperimentOptions, shards []int) error {
	w := opts.out()
	if len(shards) == 0 {
		shards = []int{1, 2, 4}
	}
	fmt.Fprintf(w, "Sharded execution — keyed counter workload, %d clients x depth %d\n",
		opts.NumClients, max(opts.PipelineDepth, 1))
	fmt.Fprintf(w, "%8s %10s %10s %12s %10s %8s\n", "shards", "TPS", "ops", "sharded-ops", "barriers", "errors")
	for _, s := range shards {
		o := buildOptions(LibConfig{Static: true, MACs: true, AllBig: true, Batch: true})
		o.ExecShards = s
		cluster, err := NewCluster(ClusterOptions{
			Opts:       o,
			NumClients: opts.NumClients,
			Seed:       opts.Seed,
			App:        NewCounterFactory(),
			Bandwidth:  938e6 / 8,
			Tracer:     opts.tracerFactory(),
		})
		if err != nil {
			return err
		}
		depth := max(opts.PipelineDepth, 1)
		if opts.Warmup > 0 {
			if _, err := cluster.RunPipelined(opts.NumClients, depth, &KeyedCounterWorkload{}, opts.Warmup, false); err != nil {
				cluster.Stop()
				return err
			}
		}
		res, err := cluster.RunPipelined(opts.NumClients, depth, &KeyedCounterWorkload{}, opts.Duration, false)
		info := cluster.Replicas[0].Info()
		cluster.Stop()
		if err != nil {
			return err
		}
		opts.record("exec", fmt.Sprintf("shards=%d", s), res, map[string]float64{
			"sharded_ops": float64(info.Stats.ExecSharded),
			"barriers":    float64(info.Stats.ExecBarriers),
		})
		sharded, barriers := fmt.Sprint(info.Stats.ExecSharded), fmt.Sprint(info.Stats.ExecBarriers)
		if s <= 1 {
			sharded, barriers = "-", "-" // serial: nothing is routed by keyset
		}
		fmt.Fprintf(w, "%8d %10.0f %10d %12s %10s %8d\n",
			s, res.TPS(), res.Ops, sharded, barriers, res.Errors)
	}
	return nil
}

// RunWANScaling demonstrates the quadratic message complexity the paper
// cites as the WAN obstacle (§3.3.3): protocol messages per executed
// request as the group size grows.
func RunWANScaling(opts ExperimentOptions, fs []int) error {
	w := opts.out()
	fmt.Fprintf(w, "§3.3.3 — message complexity vs group size (n = 3f+1)\n")
	fmt.Fprintf(w, "%4s %4s %12s %14s %12s\n", "f", "n", "requests", "packets", "pkts/req")
	for _, f := range fs {
		o := core.DefaultOptions()
		o.F = f
		o.CheckpointInterval = 64
		o.StateSize = 4 << 20
		o.ViewChangeTimeout = 10 * time.Second
		o.Batching = false // isolate per-request agreement cost
		cluster, err := NewCluster(ClusterOptions{
			Opts:       o,
			NumClients: 2,
			Seed:       opts.Seed,
			App:        NewEchoFactory(64),
			Tracer:     opts.tracerFactory(),
		})
		if err != nil {
			return err
		}
		cluster.Net.ResetStats()
		res, err := cluster.RunClosedLoop(2, &NullWorkload{Size: 64}, opts.Duration, false)
		stats := cluster.Net.Stats()
		cluster.Stop()
		if err != nil {
			return err
		}
		perReq := 0.0
		if res.Ops > 0 {
			perReq = float64(stats.Packets) / float64(res.Ops)
		}
		opts.record("wan", fmt.Sprintf("f=%d_n=%d", f, 3*f+1), res, map[string]float64{
			"packets":      float64(stats.Packets),
			"pkts_per_req": perReq,
		})
		fmt.Fprintf(w, "%4d %4d %12d %14d %12.1f\n", f, 3*f+1, res.Ops, stats.Packets, perReq)
	}
	return nil
}

// RunLossExperiment reproduces §2.4: with all-big requests, client→replica
// loss wedges a replica until a checkpoint-driven state transfer; without
// big handling the client's retransmission makes progress all-or-nothing.
func RunLossExperiment(opts ExperimentOptions) error {
	w := opts.out()
	fmt.Fprintf(w, "§2.4 — behaviour under client→replica packet loss\n")
	for _, allBig := range []bool{true, false} {
		o := buildOptions(LibConfig{Static: true, MACs: true, AllBig: allBig, Batch: true})
		o.CheckpointInterval = 16
		cluster, err := NewCluster(ClusterOptions{
			Opts:       o,
			NumClients: 2,
			Seed:       opts.Seed,
			App:        NewEchoFactory(64),
			Tracer:     opts.tracerFactory(),
		})
		if err != nil {
			return err
		}
		// 30% loss from every client to replica 3 only.
		for i := 0; i < 2; i++ {
			cluster.Net.SetLinkFaults(ClientAddr(i), ReplicaAddr(3), transport.Faults{LossRate: 0.3})
		}
		res, err := cluster.RunClosedLoop(2, &NullWorkload{Size: 64}, opts.Duration, false)
		if err != nil {
			cluster.Stop()
			return err
		}
		info := cluster.Replicas[3].Info()
		mode := "allbig"
		if !allBig {
			mode = "noallbig"
		}
		fmt.Fprintf(w, "%-10s TPS=%7.0f replica3: exec=%d stable=%d wedged=%v state-transfers=%d\n",
			mode, res.TPS(), info.LastExec, info.LastStable, info.Stats.WedgedNow, info.Stats.StateTransfers)
		cluster.Stop()
	}
	return nil
}

// RunRecoveryExperiment reproduces §2.3: a restarted replica cannot
// authenticate logged client requests until the blind session-hello
// retransmission arrives; recovery time tracks the hello interval.
func RunRecoveryExperiment(opts ExperimentOptions, helloIntervals []time.Duration) error {
	w := opts.out()
	fmt.Fprintf(w, "§2.3 — replica restart recovery vs authenticator retransmission period\n")
	fmt.Fprintf(w, "%14s %16s\n", "hello period", "recovery time")
	for _, hi := range helloIntervals {
		o := buildOptions(LibConfig{Static: true, MACs: true, AllBig: true, Batch: true})
		o.CheckpointInterval = 16
		o.HelloInterval = hi
		cluster, err := NewCluster(ClusterOptions{
			Opts:       o,
			NumClients: 2,
			Seed:       opts.Seed,
			App:        NewEchoFactory(64),
			Tracer:     opts.tracerFactory(),
		})
		if err != nil {
			return err
		}
		// Drive load, crash and restart replica 3, measure how long it
		// takes to execute again.
		stop := make(chan struct{})
		go func() {
			_, _ = cluster.RunClosedLoop(2, &NullWorkload{Size: 64}, opts.Duration+4*time.Second, false)
			close(stop)
		}()
		time.Sleep(500 * time.Millisecond)
		cluster.StopReplica(3)
		time.Sleep(300 * time.Millisecond)
		restart := time.Now()
		if err := cluster.RestartReplica(3); err != nil {
			cluster.Stop()
			return err
		}
		// Direct execution (not mere state transfer) requires the
		// replica to authenticate client bodies again, which waits on
		// the blind hello retransmission — the §2.3 stall.
		recovered := time.Duration(0)
		for recovered == 0 {
			info := cluster.Replicas[3].Info()
			if info.Stats.Executed > 0 {
				recovered = time.Since(restart)
				break
			}
			select {
			case <-stop:
				recovered = -1
			case <-time.After(5 * time.Millisecond):
			}
		}
		fmt.Fprintf(w, "%14s %16s\n", hi, recovered)
		<-stop
		cluster.Stop()
	}
	return nil
}
