// Command pbft-server runs one PBFT replica over UDP, the deployment
// model of the original implementation.
//
// Generate a 4-replica, 2-client local deployment:
//
//	pbft-server -gen -dir ./deploy -replicas 4 -clients 2
//
// Then run each replica (in separate terminals or with &):
//
//	pbft-server -dir ./deploy -id 0 -app sql
//	pbft-server -dir ./deploy -id 1 -app sql
//	pbft-server -dir ./deploy -id 2 -app sql
//	pbft-server -dir ./deploy -id 3 -app sql
//
// and talk to the service with pbft-client.
//
// Durability: -data DIR makes the replica durable — the replicated
// state region and the protocol-critical minimum (stable checkpoint,
// view, client dedup windows) persist under DIR through a WAL-backed
// store, so a crash-restarted replica rejoins at its last stable
// checkpoint and fetches only the delta from its peers. Without -data
// (the default) the replica is diskless, as in the original paper.
//
// Observability: the metrics endpoint serves /metrics (Prometheus),
// /healthz, and /debug/flight — the flight recorder's last-N request
// timelines with per-phase latency marks (disable the recorder with
// -flight=false). -debug additionally mounts net/http/pprof under
// /debug/pprof on the same mux.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/harness"
	"repro/pbft"
	"repro/pbft/metrics"
	"repro/sqlstate"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "pbft-server:", err)
		os.Exit(1)
	}
}

// newLogger builds the daemon's structured logger on stderr.
func newLogger(level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %w", level, err)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})), nil
}

func run() error {
	gen := flag.Bool("gen", false, "generate a deployment into -dir and exit")
	dir := flag.String("dir", "./deploy", "deployment directory (config.json + key files)")
	replicas := flag.Int("replicas", 4, "replica count for -gen (3f+1)")
	clients := flag.Int("clients", 2, "static client count for -gen")
	basePort := flag.Int("baseport", 7000, "first UDP port for -gen")
	host := flag.String("host", "127.0.0.1", "host/IP for -gen addresses")
	dynamic := flag.Bool("dynamic", false, "enable dynamic client membership for -gen (§3.1)")
	robust := flag.Bool("robust", false, "use the most robust configuration for -gen (nomac, noallbig)")
	id := flag.Uint("id", 0, "replica id to run")
	app := flag.String("app", "sql", "application: echo | counter | sql")
	data := flag.String("data", "", "durable state directory for this replica (WAL-backed pages + manifest; empty = diskless)")
	metricsAddr := flag.String("metrics", "127.0.0.1:0", "HTTP address for /metrics, /healthz and /debug/flight (empty disables)")
	flight := flag.Bool("flight", true, "record per-request phase timelines (served at /debug/flight)")
	debug := flag.Bool("debug", false, "mount net/http/pprof under /debug/pprof on the metrics mux")
	logLevel := flag.String("log-level", "info", "log verbosity: debug|info|warn|error")
	drainTimeout := flag.Duration("drain", 10*time.Second, "graceful shutdown budget on SIGINT/SIGTERM")
	flag.Parse()

	logger, err := newLogger(*logLevel)
	if err != nil {
		return err
	}

	if *gen {
		return generate(logger, *dir, *replicas, *clients, *basePort, *host, *dynamic, *robust)
	}

	dep, err := pbft.LoadDeployment(filepath.Join(*dir, "config.json"))
	if err != nil {
		return err
	}
	cfg, err := dep.Config()
	if err != nil {
		return err
	}
	kp, err := pbft.LoadKeyFile(filepath.Join(*dir, fmt.Sprintf("replica-%d.key", *id)))
	if err != nil {
		return err
	}
	conn, err := pbft.ListenUDP(cfg.Replicas[*id].Addr)
	if err != nil {
		return err
	}

	var application pbft.Application
	switch *app {
	case "echo":
		application = &harness.EchoApp{RespSize: 32}
	case "counter":
		application = &harness.CounterApp{}
	case "sql":
		application = sqlstate.NewApp(sqlstate.Options{
			DiskDir: filepath.Join(*dir, fmt.Sprintf("replica-%d-data", *id)),
			Durable: true,
			InitSQL: harness.VotesSchema,
		})
	default:
		return fmt.Errorf("unknown application %q", *app)
	}

	// The metrics registry doubles as the replica's event tracer; the
	// HTTP mux serves it as /metrics plus a /healthz tied to the
	// replica's lifecycle.
	reg := metrics.New()
	cfg.Opts.Tracer = reg

	// Durable replica state (-data): crash-restart recovers from the
	// WAL-backed pages file and manifest instead of a full state
	// transfer. Diskless (the default) keeps the original fault model.
	if *data != "" {
		cfg.Opts.DataDir = *data
	}

	// The flight recorder stamps every request's lifecycle phases; its
	// per-phase segments feed the registry's pbft_phase_seconds series
	// and its timeline ring serves /debug/flight.
	var rec *pbft.FlightRecorder
	if *flight {
		rec = pbft.NewFlightRecorder(pbft.FlightRecorderConfig{Replica: int(*id), Sink: reg})
		cfg.Opts.Recorder = rec
	}

	rep, err := pbft.NewReplica(cfg, uint32(*id), kp, conn, application)
	if err != nil {
		return err
	}
	reg.AddReplica(uint32(*id), rep.Info)
	if rec != nil {
		reg.AddFlight(uint32(*id), rec.Dump)
	}
	if uc, ok := conn.(*pbft.UDPConn); ok {
		// Syscall batching counters: recv/send totals and the
		// datagrams-per-syscall occupancy histograms.
		reg.AddTransport(uint32(*id), uc.BatchStats)
	}

	var metricsSrv *http.Server
	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		mux := metrics.Mux(reg, rep.Running)
		if *debug {
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		}
		metricsSrv = &http.Server{
			Handler:           mux,
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() { _ = metricsSrv.Serve(ln) }()
		logger.Info("metrics listening",
			"replica", *id, "addr", ln.Addr().String(),
			"flight", rec != nil, "pprof", *debug)
	}

	runErr := make(chan error, 1)
	go func() { runErr <- rep.Run(context.Background()) }()
	logger.Info("replica listening",
		"replica", *id, "addr", cfg.Replicas[*id].Addr, "app", *app,
		"f", cfg.Opts.F, "n", cfg.N())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case <-sig:
	case err := <-runErr:
		return err
	}
	// Graceful, bounded shutdown: drain the ingress backlog, reap the
	// execution engine, flush pending replies, then close.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := rep.Shutdown(ctx); err != nil {
		logger.Error("graceful shutdown failed", "replica", *id, "err", err)
	}
	if metricsSrv != nil {
		_ = metricsSrv.Close()
	}
	info := rep.Info()
	logger.Info("replica stopped",
		"replica", *id, "view", info.View,
		"last_exec", info.LastExec, "last_stable", info.LastStable)
	return nil
}

func generate(logger *slog.Logger, dir string, replicas, clients, basePort int, host string, dynamic, robust bool) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	opts := pbft.DefaultOptions()
	if robust {
		opts = opts.Robust()
	}
	opts.DynamicClients = dynamic
	dep := &pbft.Deployment{Options: opts}
	port := basePort
	for i := 0; i < replicas; i++ {
		kp, err := pbft.GenerateKeyPair(nil)
		if err != nil {
			return err
		}
		if err := pbft.SaveKeyFile(filepath.Join(dir, fmt.Sprintf("replica-%d.key", i)), kp); err != nil {
			return err
		}
		dep.Replicas = append(dep.Replicas, pbft.DeployNode{
			ID:     uint32(i),
			Addr:   fmt.Sprintf("%s:%d", host, port),
			PubKey: pbft.PublicKeyHex(kp),
		})
		port++
	}
	for i := 0; i < clients; i++ {
		kp, err := pbft.GenerateKeyPair(nil)
		if err != nil {
			return err
		}
		if err := pbft.SaveKeyFile(filepath.Join(dir, fmt.Sprintf("client-%d.key", i)), kp); err != nil {
			return err
		}
		dep.Clients = append(dep.Clients, pbft.DeployNode{
			ID:     uint32(replicas + i),
			Addr:   fmt.Sprintf("%s:%d", host, port),
			PubKey: pbft.PublicKeyHex(kp),
		})
		port++
	}
	if err := dep.Save(filepath.Join(dir, "config.json")); err != nil {
		return err
	}
	logger.Info("deployment written",
		"path", filepath.Join(dir, "config.json"),
		"replicas", replicas, "clients", clients, "f", opts.F)
	return nil
}
