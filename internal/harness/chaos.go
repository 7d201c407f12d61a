package harness

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// chaosTracer timestamps view installs (the recovery point the chaos
// phases measure to) and forwards everything to an optional outer
// tracer. One shared instance serves every replica; OnEvent is
// concurrency-safe.
type chaosTracer struct {
	fwd core.Tracer // may be nil

	mu       sync.Mutex
	installs []chaosInstall
}

type chaosInstall struct {
	replica uint32
	view    uint64
	at      time.Time
}

func (c *chaosTracer) OnEvent(ev trace.Event) {
	if ev.Kind == trace.EvViewChangeInstall {
		c.mu.Lock()
		c.installs = append(c.installs, chaosInstall{replica: ev.Replica, view: ev.View, at: time.Now()})
		c.mu.Unlock()
	}
	if c.fwd != nil {
		c.fwd.OnEvent(ev)
	}
}

// installOf returns the newest install of view v on replica id after
// cutoff.
func (c *chaosTracer) installOf(id uint32, v uint64, cutoff time.Time) (time.Time, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := len(c.installs) - 1; i >= 0; i-- {
		in := c.installs[i]
		if in.replica == id && in.view == v && in.at.After(cutoff) {
			return in.at, true
		}
	}
	return time.Time{}, false
}

// RunChaos drives the adversary suite under load and measures recovery
// latencies: equivocation-inject → view install, corrupt-MAC storm →
// (asserted) zero protocol effect, partition → heal → convergence. Each
// phase emits one result row; the -json artifact turns them into the
// BENCH_PR7 recovery table. Every adversary schedule and the network
// fault RNG derive from opts.Seed.
func RunChaos(opts ExperimentOptions) error {
	w := opts.out()
	fmt.Fprintf(w, "Chaos suite — scripted Byzantine faults under load (%d clients, seed %d)\n",
		opts.NumClients, opts.Seed)
	fmt.Fprintf(w, "%-22s %8s %8s %8s %16s\n", "Phase", "TPS", "ops", "errors", "recovery")

	o := buildOptions(LibConfig{Static: true, MACs: true, AllBig: true, Batch: true})
	o.CheckpointInterval = 16
	o.ViewChangeTimeout = 800 * time.Millisecond
	o.RequestTimeout = 300 * time.Millisecond

	loadClients := opts.NumClients
	if loadClients < 1 {
		loadClients = 4
	}
	tracer := &chaosTracer{fwd: opts.Tracer}
	// Per-replica flight recorders feed one collector; each chaos phase
	// snapshots it so its result row carries per-phase attribution for
	// the recovery interval (where the lifecycle stalled while the
	// adversary was active).
	phases := &PhaseCollector{}
	cluster, err := NewCluster(ClusterOptions{
		Opts:       o,
		NumClients: loadClients,
		Seed:       opts.Seed,
		App:        NewCounterFactory(),
		Bandwidth:  938e6 / 8,
		Tracer:     func(uint32) core.Tracer { return tracer },
		Recorder:   phases.Factory(),
	})
	if err != nil {
		return err
	}
	defer cluster.Stop()

	// Rebuild replica 0 as the scripted adversary: a disarmed gate in
	// front of an equivocator, with the conn handle kept for later
	// behavior swaps.
	ident, err := cluster.ReplicaIdentity(0)
	if err != nil {
		return err
	}
	gate := adversary.NewGate(adversary.NewEquivocator(ident))
	var advConn *adversary.Conn
	cluster.StopReplica(0)
	if err := cluster.StartAdversary(0, func(conn transport.Conn) transport.Conn {
		advConn = adversary.Wrap(conn, gate)
		return advConn
	}); err != nil {
		return err
	}

	phaseDur := opts.Duration
	if phaseDur < 3*time.Second {
		phaseDur = 3 * time.Second
	}

	// Phase 1 — equivocating primary. Arm mid-load and time the view
	// change on the slowest correct replica.
	type loadOut struct {
		res RunResult
		err error
	}
	done := make(chan loadOut, 1)
	phaseBase := phases.Snapshot()
	go func() {
		res, err := cluster.RunClosedLoop(loadClients, &NullWorkload{Size: 64}, phaseDur, false)
		done <- loadOut{res, err}
	}()
	time.Sleep(phaseDur / 4)
	armed := time.Now()
	gate.Arm()
	out := <-done
	if out.err != nil {
		return fmt.Errorf("chaos equivocate load: %w", out.err)
	}
	gate.Disarm()
	var recovery time.Duration
	for _, id := range []uint32{1, 2, 3} {
		var at time.Time
		installDeadline := time.Now().Add(10 * time.Second)
		for {
			var ok bool
			if at, ok = tracer.installOf(id, 1, armed); ok {
				break
			}
			if time.Now().After(installDeadline) {
				return fmt.Errorf("chaos: replica %d never installed view 1 after equivocation", id)
			}
			time.Sleep(5 * time.Millisecond)
		}
		if d := at.Sub(armed); d > recovery {
			recovery = d
		}
	}
	phaseWin := phases.Snapshot()
	opts.record("chaos", "equivocate_primary", out.res, phaseWin.Sub(phaseBase).Attr(map[string]float64{
		"recovery_ms": float64(recovery.Milliseconds()),
	}))
	phaseBase = phaseWin
	fmt.Fprintf(w, "%-22s %8.0f %8d %8d %16s\n", "equivocate_primary", out.res.TPS(), out.res.Ops, out.res.Errors, recovery)

	// Phase 2 — corrupt MACs from a backup: all of replica 0's votes are
	// garbage-authenticated. The group must mask it with zero protocol
	// effect; the receivers' auth-failure counters are the evidence the
	// storm actually happened.
	baselineView := cluster.Replicas[1].Info().View
	var baseAuth uint64
	for _, id := range []uint32{1, 2, 3} {
		baseAuth += cluster.Replicas[id].Info().Stats.DroppedBadAuth
	}
	advConn.SetBehavior(adversary.NewCorruptor(opts.Seed, 1, wire.MTPrepare, wire.MTCommit, wire.MTCheckpoint))
	res, err := cluster.RunClosedLoop(loadClients, &NullWorkload{Size: 64}, phaseDur, false)
	if err != nil {
		return fmt.Errorf("chaos corrupt load: %w", err)
	}
	advConn.SetBehavior(nil)
	var nowAuth uint64
	for _, id := range []uint32{1, 2, 3} {
		nowAuth += cluster.Replicas[id].Info().Stats.DroppedBadAuth
	}
	if v := cluster.Replicas[1].Info().View; v != baselineView {
		return fmt.Errorf("chaos: corrupt MACs moved the view %d -> %d; must be masked", baselineView, v)
	}
	if nowAuth == baseAuth {
		return fmt.Errorf("chaos: corrupt-MAC phase produced no counted rejections")
	}
	phaseWin = phases.Snapshot()
	opts.record("chaos", "corrupt_macs", res, phaseWin.Sub(phaseBase).Attr(map[string]float64{
		"auth_failures": float64(nowAuth - baseAuth),
		"view_changes":  0,
	}))
	phaseBase = phaseWin
	fmt.Fprintf(w, "%-22s %8.0f %8d %8d %16s\n", "corrupt_macs", res.TPS(), res.Ops, res.Errors,
		fmt.Sprintf("%d rejected", nowAuth-baseAuth))

	// Phase 3 — asymmetric partition and heal: replica 3 goes deaf (its
	// outbound stays up), the group advances, then the partition heals
	// and we time replica 3's convergence back to the group's frontier.
	for _, peer := range []uint32{0, 1, 2} {
		cluster.Net.SetLinkFaults(ReplicaAddr(peer), ReplicaAddr(3), transport.Faults{Partitioned: true})
	}
	done = make(chan loadOut, 1)
	go func() {
		res, err := cluster.RunClosedLoop(loadClients, &NullWorkload{Size: 64}, phaseDur, false)
		done <- loadOut{res, err}
	}()
	time.Sleep(phaseDur / 2)
	var frontier uint64
	for _, id := range []uint32{0, 1, 2} {
		if e := cluster.Replicas[id].Info().LastExec; e > frontier {
			frontier = e
		}
	}
	healed := time.Now()
	for _, peer := range []uint32{0, 1, 2} {
		cluster.Net.ClearLinkFaults(ReplicaAddr(peer), ReplicaAddr(3))
	}
	out = <-done
	if out.err != nil {
		return fmt.Errorf("chaos partition load: %w", out.err)
	}
	var converge time.Duration
	deadline := time.Now().Add(30 * time.Second)
	for {
		if cluster.Replicas[3].Info().LastExec >= frontier {
			converge = time.Since(healed)
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("chaos: replica 3 never converged after heal (frontier %d, at %d)",
				frontier, cluster.Replicas[3].Info().LastExec)
		}
		time.Sleep(5 * time.Millisecond)
	}
	opts.record("chaos", "partition_heal", out.res, phases.Snapshot().Sub(phaseBase).Attr(map[string]float64{
		"heal_convergence_ms": float64(converge.Milliseconds()),
	}))
	fmt.Fprintf(w, "%-22s %8.0f %8d %8d %16s\n", "partition_heal", out.res.TPS(), out.res.Ops, out.res.Errors, converge)
	return nil
}
