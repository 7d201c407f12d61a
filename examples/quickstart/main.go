// Quickstart: a 4-replica PBFT cluster (f = 1) and one client, all in
// this process over the in-memory network. The replicated service is a
// ten-line echo application.
//
// Both halves of the API are context-aware. Replicas run under the node
// runtime lifecycle: Run(ctx) blocks until Shutdown(ctx) drains the
// replica gracefully (in-flight committed requests still get replies),
// and an Options.Tracer observes typed protocol events — here a
// metrics registry that aggregates them. Clients are asynchronous:
// Submit returns a *pbft.Call future, Invoke is its synchronous
// wrapper, and one client safely serves many goroutines at once,
// pipelining up to pbft.WithPipelineDepth requests. This program shows
// all of it: Run/Shutdown, a metrics tracer, a plain Invoke, a batch of
// futures, and concurrent goroutines sharing the client.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"sync"
	"time"

	"repro/pbft"
	"repro/pbft/metrics"
)

// echoApp is the smallest possible Application: it returns the operation
// it was asked to execute. Null-ish operations like this are what most
// BFT papers benchmark (§4.1 of the paper).
type echoApp struct{}

func (echoApp) Execute(op []byte, nd pbft.NonDetValues, readOnly bool) []byte {
	return append([]byte("echo: "), op...)
}

func main() {
	if err := run(); err != nil {
		slog.Error("quickstart failed", "err", err)
		os.Exit(1)
	}
}

func run() error {
	const f = 1
	n := 3*f + 1
	ctx := context.Background()

	// Every node needs key material and a network endpoint.
	net := pbft.NewNetwork(1)
	defer net.Close()

	opts := pbft.DefaultOptions()
	cfg := &pbft.Config{Opts: opts}

	replicaKeys := make([]*pbft.KeyPair, n)
	for i := 0; i < n; i++ {
		kp, err := pbft.GenerateKeyPair(nil)
		if err != nil {
			return err
		}
		replicaKeys[i] = kp
		cfg.Replicas = append(cfg.Replicas, pbft.NodeInfo{
			ID:     uint32(i),
			Addr:   fmt.Sprintf("replica-%d", i),
			PubKey: kp.Public(),
		})
	}
	clientKey, err := pbft.GenerateKeyPair(nil)
	if err != nil {
		return err
	}
	cfg.Clients = append(cfg.Clients, pbft.NodeInfo{
		ID:     uint32(n),
		Addr:   "client-0",
		PubKey: clientKey.Public(),
	})

	// One metrics registry aggregates the protocol events of all four
	// replicas (its OnEvent is safe for concurrent use).
	reg := metrics.New()
	cfg.Opts.Tracer = reg

	// A flight recorder on replica 0 stamps every request's lifecycle
	// phases (ingress → agreement quorums → execution → reply), keeps
	// the last N timelines, and feeds per-phase durations into the
	// registry. pbft-server serves the same dump at /debug/flight.
	rec := pbft.NewFlightRecorder(pbft.FlightRecorderConfig{Replica: 0, Sink: reg})
	reg.AddFlight(0, rec.Dump)

	// Start the replicas under the node runtime: Run(ctx) blocks until
	// the context ends or Shutdown is called, so each replica gets a
	// goroutine here.
	replicas := make([]*pbft.Replica, n)
	for i := 0; i < n; i++ {
		conn, err := net.Listen(cfg.Replicas[i].Addr)
		if err != nil {
			return err
		}
		rcfg := cfg
		if i == 0 {
			recCfg := *cfg
			recCfg.Opts.Recorder = rec
			rcfg = &recCfg
		}
		rep, err := pbft.NewReplica(rcfg, uint32(i), replicaKeys[i], conn, echoApp{})
		if err != nil {
			return err
		}
		reg.AddReplica(uint32(i), rep.Info)
		go func() {
			if err := rep.Run(ctx); err != nil {
				slog.Error("replica stopped unexpectedly", "replica", rep.ID(), "err", err)
			}
		}()
		replicas[i] = rep
	}
	defer func() {
		// Graceful, bounded teardown: drain ingress, reap the execution
		// engine, flush pending replies, then close.
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		for _, r := range replicas {
			if err := r.Shutdown(sctx); err != nil {
				slog.Error("graceful shutdown failed", "replica", r.ID(), "err", err)
			}
		}
	}()

	// One client, pipelining up to 8 requests. The connection is owned
	// by the client afterwards; Close releases it.
	conn, err := net.Listen("client-0")
	if err != nil {
		return err
	}
	cl, err := pbft.NewClient(cfg, uint32(n), clientKey, conn, pbft.WithPipelineDepth(8))
	if err != nil {
		return err
	}
	defer cl.Close()

	// Synchronous: each Invoke runs the full three-phase agreement
	// across the four replicas before the reply quorum is accepted
	// (Figure 1 of the paper).
	resp, err := cl.Invoke(ctx, []byte("hello"))
	if err != nil {
		return err
	}
	fmt.Printf("invoke(%q) -> %q\n", "hello", resp)

	// Asynchronous: Submit returns futures; the requests travel through
	// agreement together (pipelined), not one after the other.
	var calls []*pbft.Call
	for _, msg := range []string{"byzantine", "fault", "tolerance"} {
		calls = append(calls, cl.Submit(ctx, []byte(msg)))
	}
	for i, call := range calls {
		resp, err := call.Result()
		if err != nil {
			return err
		}
		fmt.Printf("call %d -> %q\n", i, resp)
	}

	// Concurrent: many goroutines may share one client.
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if _, err := cl.Invoke(ctx, []byte(fmt.Sprintf("worker-%d", g))); err != nil {
				errs <- err
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return err
	}

	for i, r := range replicas {
		info := r.Info()
		fmt.Printf("replica %d: view=%d executed=%d\n", i, info.View, info.Stats.Executed)
	}
	// The tracer saw every batch and commit across the group.
	fmt.Printf("metrics: %s\n", reg.Snapshot().Summary())

	// The flight recorder kept the most recent request timelines; print
	// the newest one's per-phase breakdown — the raw material for
	// debugging a slow request (see ARCHITECTURE.md, "Observability").
	d := rec.Dump()
	if len(d.Completed) > 0 {
		tl := d.Completed[len(d.Completed)-1]
		fmt.Printf("flight: client=%d ts=%d seq=%d end-to-end=%s\n",
			tl.Client, tl.Timestamp, tl.Seq, time.Duration(tl.EndToEnd))
		for _, seg := range tl.Segments {
			fmt.Printf("  %-18s %s\n", seg.Phase, time.Duration(seg.DurNs))
		}
	}
	return nil
}
