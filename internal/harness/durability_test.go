package harness

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// waitReplicaStable polls until replica id reports a stable checkpoint
// at or past minStable. For a durable replica that also means its
// manifest is on disk: persist runs synchronously inside makeStable,
// before Info can observe the new LastStable.
func waitReplicaStable(t *testing.T, c *Cluster, id uint32, minStable uint64, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if info := c.Replicas[id].Info(); info.LastStable >= minStable {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica %d never reached stable checkpoint %d (at %d)",
				id, minStable, c.Replicas[id].Info().LastStable)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// restartTransferStats runs the shared delta-transfer scenario — dirty
// many state pages, crash replica 3, advance the group well past its
// checkpoint, restart it — and reports how many pages the restarted
// incarnation fetched plus its tracer-observed transfer finishes.
func restartTransferStats(t *testing.T, durable bool, seed int64) (info core.Info, finishes int) {
	t.Helper()
	tracers := make(map[uint32]*recordingTracer)
	var mu sync.Mutex
	co := ClusterOptions{
		Opts:       fastOpts(),
		NumClients: 1,
		Seed:       seed,
		App:        NewCounterFactory(),
		Tracer: func(id uint32) core.Tracer {
			tr := &recordingTracer{}
			mu.Lock()
			tracers[id] = tr // a restart replaces the entry: fresh incarnation, fresh trace
			mu.Unlock()
			return tr
		},
	}
	if durable {
		co.DataDir = t.TempDir()
	}
	c, err := NewCluster(co)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	cl, err := c.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Phase 1: distinct keys spread writes over most of the counter
	// table's pages — the bulk a diskless restart has to re-fetch.
	for i := 0; i < 120; i++ {
		invokeMust(t, cl, fmt.Sprintf("bump key-%d", i))
	}
	waitReplicaStable(t, c, 3, 112, 10*time.Second)
	c.StopReplica(3)

	// Phase 2: a single hot key — the delta is narrow — while the group
	// moves ≥ 2K past replica 3's checkpoint, forcing its restarted
	// incarnation through state transfer rather than log replay.
	for i := 0; i < 24; i++ {
		invokeMust(t, cl, "bump key-7")
	}
	if err := c.RestartReplica(3); err != nil {
		t.Fatal(err)
	}
	if !c.WaitConverged(144, 30*time.Second) {
		t.Fatalf("restarted replica never converged: %+v", c.Replicas[3].Info())
	}
	info = c.Replicas[3].Info()
	if info.Stats.StateTransfers == 0 {
		t.Fatal("restarted replica recovered without a state transfer; the scenario is not exercising the sync path")
	}
	mu.Lock()
	tr := tracers[3]
	mu.Unlock()
	for _, e := range tr.stateTransfers() {
		if e.Kind == trace.EvStateTransferFinish {
			finishes++
		}
	}
	waitStableDigests(t, c, []uint32{0, 1, 2, 3}, 136, 20*time.Second)
	return info, finishes
}

// TestDurableRestartDeltaTransfer is the delta-recovery acceptance
// test: the same crash-restart scenario runs once durable and once
// diskless, and the durable restart must fetch strictly fewer pages —
// its WAL-restored region already holds everything up to the manifest
// checkpoint, so the syncer (seeded from the restored leaf digests)
// requests only the pages that changed since.
func TestDurableRestartDeltaTransfer(t *testing.T) {
	durInfo, durFinishes := restartTransferStats(t, true, 201)
	dlInfo, dlFinishes := restartTransferStats(t, false, 201)

	if durFinishes == 0 || dlFinishes == 0 {
		t.Fatalf("tracer saw no StateTransferFinish (durable=%d diskless=%d)", durFinishes, dlFinishes)
	}
	st := durInfo.Stats
	if !st.DurableNow {
		t.Fatal("durable replica does not report DurableNow")
	}
	if st.Restarts != 1 {
		t.Fatalf("durable replica reports %d restarts, want 1", st.Restarts)
	}
	if st.RecoveryNanos == 0 {
		t.Fatal("durable replica reports zero recovery duration")
	}
	if dlInfo.Stats.PagesFetched == 0 {
		t.Fatal("diskless control fetched zero pages")
	}
	if st.PagesFetched >= dlInfo.Stats.PagesFetched {
		t.Fatalf("durable restart fetched %d pages, diskless fetched %d: recovery is not delta-only",
			st.PagesFetched, dlInfo.Stats.PagesFetched)
	}
}

// TestDurableRestartStormSimultaneous kills every replica at once —
// more than f failures, beyond the BFT fault model, survivable only
// because state is on disk — while load is in flight, restarts them
// all, and requires the group to resume committing from its durable
// checkpoints with byte-identical stable digests. The storm runs twice
// back to back on one cluster: the second storm recovers from manifests
// written after the first.
func TestDurableRestartStormSimultaneous(t *testing.T) {
	const storms = 2
	c, err := NewCluster(ClusterOptions{
		Opts:       fastOpts(),
		NumClients: 1 + 2*storms,
		Seed:       202,
		App:        NewCounterFactory(),
		DataDir:    t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	cl, err := c.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 40; i++ {
		invokeMust(t, cl, fmt.Sprintf("bump key-%d", i))
	}

	stable := uint64(32)
	for storm := 1; storm <= storms; storm++ {
		// Every replica must have a manifest on disk before the storm.
		for id := uint32(0); id < 4; id++ {
			waitReplicaStable(t, c, id, stable, 10*time.Second)
		}

		// Background load so the kill lands mid-traffic: requests are in
		// flight (some committed above the stable checkpoint, some not)
		// at the crash point.
		loader, err := c.Client(2*storm - 1)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				cctx, ccancel := context.WithTimeout(ctx, time.Second)
				_, _ = loader.Invoke(cctx, []byte("bump storm"))
				ccancel()
			}
		}()
		time.Sleep(200 * time.Millisecond)
		for id := uint32(0); id < 4; id++ {
			c.StopReplica(id)
		}
		cancel()
		wg.Wait()
		loader.Close()

		for id := uint32(0); id < 4; id++ {
			if err := c.RestartReplica(id); err != nil {
				t.Fatalf("storm %d: restart replica %d: %v", storm, id, err)
			}
		}
		// A fresh client: its wall-clock timestamps land above the dedup
		// windows the replicas recovered from their manifests.
		post, err := c.Client(2 * storm)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 24; i++ {
			invokeMust(t, post, fmt.Sprintf("bump post-%d-%d", storm, i))
		}
		post.Close()
		waitStableDigests(t, c, []uint32{0, 1, 2, 3}, stable+8, 30*time.Second)
		// The next storm waits only for the checkpoint every replica has
		// reached; one replica can already stand a checkpoint further.
		stable = ^uint64(0)
		for id := uint32(0); id < 4; id++ {
			info := c.Replicas[id].Info()
			stable = min(stable, info.LastStable)
			st := info.Stats
			if !st.DurableNow {
				t.Fatalf("replica %d lost its data dir across storm %d", id, storm)
			}
			if st.Restarts != uint64(storm) {
				t.Fatalf("replica %d reports %d manifest recoveries after storm %d, want %d", id, st.Restarts, storm, storm)
			}
			if st.PersistErrors != 0 {
				t.Fatalf("replica %d latched %d persist errors", id, st.PersistErrors)
			}
		}
	}
}

// TestDurableRollingRestartUnderLoad cycles a crash-restart through
// every replica — including the primary — while a client keeps
// submitting, then requires full digest convergence with each replica
// having recovered from its manifest exactly once.
func TestDurableRollingRestartUnderLoad(t *testing.T) {
	c, err := NewCluster(ClusterOptions{
		Opts:       fastOpts(),
		NumClients: 2,
		Seed:       203,
		App:        NewCounterFactory(),
		DataDir:    t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	cl, err := c.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 24; i++ {
		invokeMust(t, cl, fmt.Sprintf("bump key-%d", i))
	}

	loader, err := c.Client(1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ctx.Err() == nil {
			cctx, ccancel := context.WithTimeout(ctx, 2*time.Second)
			_, _ = loader.Invoke(cctx, []byte("bump roll"))
			ccancel()
		}
	}()

	for id := uint32(0); id < 4; id++ {
		waitReplicaStable(t, c, id, 16, 15*time.Second)
		// Snapshot the live peers' frontier before the crash.
		var frontier uint64
		for peer := uint32(0); peer < 4; peer++ {
			if peer == id {
				continue
			}
			if e := c.Replicas[peer].Info().LastExec; e > frontier {
				frontier = e
			}
		}
		if err := c.RestartReplica(id); err != nil {
			t.Fatalf("rolling restart replica %d: %v", id, err)
		}
		// Catch-up is judged against the LIVE frontier once it has moved
		// past the pre-crash snapshot, not against the snapshot itself:
		// the restarted replica rejoins at its durable stable checkpoint,
		// which can already satisfy the old frontier while the replica is
		// still wedged on a request body it missed (§2.4 — under AllBig,
		// bodies travel only by client multicast, and a completed call is
		// never rebroadcast). Restarting the next replica while this one
		// is wedged livelocks the group: with two of four replicas unable
		// to execute, no newer checkpoint can stabilize, so the state
		// transfer that would heal the wedge never gets a target. Catching
		// a frontier that advanced past the crash point proves the replica
		// re-executed (or state-transferred) through any such gap.
		deadline := time.Now().Add(30 * time.Second)
		for {
			var cur uint64
			for peer := uint32(0); peer < 4; peer++ {
				if peer == id {
					continue
				}
				if e := c.Replicas[peer].Info().LastExec; e > cur {
					cur = e
				}
			}
			if info := c.Replicas[id].Info(); cur > frontier && info.LastExec >= cur {
				break
			}
			if time.Now().After(deadline) {
				var peers []core.Info
				for p := uint32(0); p < 4; p++ {
					peers = append(peers, c.Replicas[p].Info())
				}
				t.Fatalf("replica %d never recaught the live frontier (pre-crash %d, at %d); group: %+v",
					id, frontier, c.Replicas[id].Info().LastExec, peers)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	cancel()
	wg.Wait()
	loader.Close()

	// Quiesce with fresh traffic so the final checkpoint postdates
	// every restart, then require byte-identical digests.
	for i := 0; i < 16; i++ {
		invokeMust(t, cl, "bump tail")
	}
	waitStableDigests(t, c, []uint32{0, 1, 2, 3}, 32, 30*time.Second)
	for id := uint32(0); id < 4; id++ {
		st := c.Replicas[id].Info().Stats
		if st.Restarts != 1 {
			t.Fatalf("replica %d reports %d manifest recoveries, want 1", id, st.Restarts)
		}
	}
}

// TestDurableManifestLossBootsClean regression-tests the crash window
// before a manifest lands: the pages file holds content but no
// manifest describes it. Every replica's manifest is deleted while its
// pages (and WAL) are left behind; the restarted group must boot on
// genuinely clean genesis state — the unverifiable page image must
// never be applied to the region — and re-converge from scratch. If a
// replica kept the dirty image, re-executing the fresh workload on top
// of it would produce divergent checkpoint digests and the group would
// never converge.
func TestDurableManifestLossBootsClean(t *testing.T) {
	c, err := NewCluster(ClusterOptions{
		Opts:       fastOpts(),
		NumClients: 2,
		Seed:       205,
		App:        NewCounterFactory(),
		DataDir:    t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	cl, err := c.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 40; i++ {
		invokeMust(t, cl, fmt.Sprintf("bump key-%d", i))
	}
	for id := uint32(0); id < 4; id++ {
		waitReplicaStable(t, c, id, 32, 10*time.Second)
	}
	for id := uint32(0); id < 4; id++ {
		c.StopReplica(id)
	}
	// Asymmetric wipe: every manifest goes, but only replicas 0-2 lose
	// their page files too. Replica 3 restarts with orphaned page
	// content and must discard it — if the unverified image leaked into
	// its region, its genesis checkpoint digest would differ from the
	// truly-clean peers below.
	for id := uint32(0); id < 4; id++ {
		dir := c.ReplicaDataDir(id)
		if err := os.Remove(filepath.Join(dir, "manifest")); err != nil {
			t.Fatalf("replica %d: delete manifest: %v", id, err)
		}
		if id == 3 {
			var pageBytes int64
			for _, name := range []string{"pages", "pages.wal"} {
				if fi, err := os.Stat(filepath.Join(dir, name)); err == nil {
					pageBytes += fi.Size()
				}
			}
			if pageBytes == 0 {
				t.Fatal("replica 3 has no page content on disk; scenario is vacuous")
			}
			continue
		}
		for _, name := range []string{"pages", "pages.wal"} {
			if err := os.Remove(filepath.Join(dir, name)); err != nil && !os.IsNotExist(err) {
				t.Fatalf("replica %d: delete %s: %v", id, name, err)
			}
		}
	}
	for id := uint32(0); id < 4; id++ {
		if err := c.RestartReplica(id); err != nil {
			t.Fatalf("restart replica %d: %v", id, err)
		}
	}
	// Before any traffic: everyone sits at the genesis checkpoint, and
	// its digest is computed over the boot-time region. A replica that
	// applied the orphaned pages would already disagree here.
	genesis := c.Replicas[0].Info()
	if genesis.LastStable != 0 {
		t.Fatalf("replica 0 recovered a stable checkpoint (%d) with no manifest", genesis.LastStable)
	}
	for id := uint32(1); id < 4; id++ {
		info := c.Replicas[id].Info()
		if info.LastStable != 0 {
			t.Fatalf("replica %d recovered a stable checkpoint (%d) with no manifest", id, info.LastStable)
		}
		if info.StableDigest != genesis.StableDigest {
			t.Fatalf("replica %d boots on a dirty region: genesis digest %x != %x",
				id, info.StableDigest[:8], genesis.StableDigest[:8])
		}
	}
	// A fresh client: the recovered dedup windows are gone with the
	// manifests, so this is logically a brand-new cluster.
	cl2, err := c.Client(1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	for i := 0; i < 24; i++ {
		invokeMust(t, cl2, fmt.Sprintf("bump fresh-%d", i))
	}
	waitStableDigests(t, c, []uint32{0, 1, 2, 3}, 16, 30*time.Second)
	for id := uint32(0); id < 4; id++ {
		st := c.Replicas[id].Info().Stats
		if !st.DurableNow {
			t.Fatalf("replica %d lost its data dir", id)
		}
		if st.Restarts != 0 {
			t.Fatalf("replica %d counted %d manifest recoveries after manifest loss, want 0", id, st.Restarts)
		}
	}
}

// TestDurableKillMidWALAppend simulates kill -9 during a WAL append
// and worse: first a torn tail (garbage after the last commit record —
// recovery must truncate it and rejoin from the manifest), then a cut
// into committed WAL history (pages regress behind the manifest root —
// recovery must reset to a clean first boot and re-fetch everything,
// never serve divergent state).
func TestDurableKillMidWALAppend(t *testing.T) {
	c, err := NewCluster(ClusterOptions{
		Opts:       fastOpts(),
		NumClients: 1,
		Seed:       204,
		App:        NewCounterFactory(),
		DataDir:    t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	cl, err := c.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 40; i++ {
		invokeMust(t, cl, fmt.Sprintf("bump key-%d", i))
	}
	waitReplicaStable(t, c, 3, 32, 10*time.Second)
	c.StopReplica(3)

	// Torn tail: the crash interrupted an append after the last commit
	// record. 0xA7 is not a valid record kind, so recovery truncates
	// back to the last complete commit — the manifest still matches.
	walPath := filepath.Join(c.ReplicaDataDir(3), "pages.wal")
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn := make([]byte, 300)
	for i := range torn {
		torn[i] = 0xA7
	}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartReplica(3); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		invokeMust(t, cl, fmt.Sprintf("bump torn-%d", i))
	}
	if !c.WaitConverged(56, 30*time.Second) {
		t.Fatalf("replica never converged after torn-tail recovery: %+v", c.Replicas[3].Info())
	}
	st := c.Replicas[3].Info().Stats
	if !st.DurableNow || st.Restarts != 1 {
		t.Fatalf("torn-tail recovery did not use the manifest: %+v", st)
	}
	waitStableDigests(t, c, []uint32{0, 1, 2, 3}, 48, 20*time.Second)

	// Cut into committed history: the WAL now ends before the state the
	// manifest promises, so the restored root cannot match. The replica
	// must reset its disk and rejoin via a full state transfer.
	c.StopReplica(3)
	fi, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == 0 {
		t.Fatal("WAL empty after post-restart checkpoints; scenario cannot cut history")
	}
	if err := os.Truncate(walPath, fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartReplica(3); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		invokeMust(t, cl, fmt.Sprintf("bump cut-%d", i))
	}
	if !c.WaitConverged(72, 30*time.Second) {
		t.Fatalf("replica never converged after WAL history cut: %+v", c.Replicas[3].Info())
	}
	if got := c.Replicas[3].Info().Stats.StateTransfers; got == 0 {
		t.Fatal("reset replica rejoined without a state transfer")
	}
	waitStableDigests(t, c, []uint32{0, 1, 2, 3}, 64, 20*time.Second)
}
