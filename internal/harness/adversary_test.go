package harness

import (
	"context"
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// adversaryCluster builds an f=1 cluster with a recording tracer per
// replica. Restarted (or adversary-replaced) replicas get a fresh
// tracer, replacing the map entry.
func adversaryCluster(t *testing.T, o core.Options, seed int64) (*Cluster, func(id uint32) *recordingTracer) {
	t.Helper()
	tracers := make(map[uint32]*recordingTracer)
	var mu sync.Mutex
	c, err := NewCluster(ClusterOptions{
		Opts:       o,
		NumClients: 2,
		Seed:       seed,
		App:        NewCounterFactory(),
		Tracer: func(id uint32) core.Tracer {
			tr := &recordingTracer{}
			mu.Lock()
			tracers[id] = tr
			mu.Unlock()
			return tr
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, func(id uint32) *recordingTracer {
		mu.Lock()
		defer mu.Unlock()
		return tracers[id]
	}
}

// replaceWithAdversary swaps replica id for one whose outgoing traffic
// passes through behavior.
func replaceWithAdversary(t *testing.T, c *Cluster, id uint32, behavior adversary.Behavior) {
	t.Helper()
	c.StopReplica(id)
	if err := c.StartAdversary(id, func(conn transport.Conn) transport.Conn {
		return adversary.Wrap(conn, behavior)
	}); err != nil {
		t.Fatal(err)
	}
}

// waitStableDigests polls until every listed replica reports the same
// stable checkpoint at or past minStable, then returns the (asserted
// byte-identical) digest.
func waitStableDigests(t *testing.T, c *Cluster, ids []uint32, minStable uint64, timeout time.Duration) [32]byte {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		infos := make([]core.Info, len(ids))
		for i, id := range ids {
			infos[i] = c.Replicas[id].Info()
		}
		ok := infos[0].LastStable >= minStable
		for _, info := range infos[1:] {
			if info.LastStable != infos[0].LastStable {
				ok = false
			}
		}
		if ok {
			for i, info := range infos[1:] {
				if info.StableDigest != infos[0].StableDigest {
					t.Fatalf("replica %d stable digest %x != replica %d digest %x at seq %d",
						ids[i+1], info.StableDigest[:8], ids[0], infos[0].StableDigest[:8], infos[0].LastStable)
				}
			}
			return infos[0].StableDigest
		}
		if time.Now().After(deadline) {
			t.Fatalf("replicas %v never agreed on a stable checkpoint >= %d: %+v", ids, minStable, infos)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAdversaryEquivocatingPrimary is the headline scenario: the view-0
// primary equivocates (different batch digests to different backups for
// the same slot, two conflicting variants each). Every correct replica
// must (a) observe the equivocation directly (ConflictingPrePrepares),
// (b) depose the primary with EXACTLY one view change — one Install of
// view 1, no cascade — and (c) end byte-identical on the next stable
// checkpoint.
func TestAdversaryEquivocatingPrimary(t *testing.T) {
	o := fastOpts()
	o.ViewChangeTimeout = 500 * time.Millisecond
	c, tracer := adversaryCluster(t, o, 71)
	defer c.Stop()

	ident, err := c.ReplicaIdentity(0)
	if err != nil {
		t.Fatal(err)
	}
	gate := adversary.NewGate(adversary.NewEquivocator(ident))
	replaceWithAdversary(t, c, 0, gate)

	cl, err := c.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Settle under the honest regime, then arm.
	invokeMust(t, cl, "inc")
	invokeMust(t, cl, "inc")
	gate.Arm()

	// The equivocated slot cannot gather a prepare quorum; the liveness
	// timers depose replica 0 and the call completes under view 1.
	for i := 3; i <= 12; i++ {
		resp, err := cl.Invoke(context.Background(), []byte("inc"))
		if err != nil {
			t.Fatalf("inc %d under equivocation: %v", i, err)
		}
		if got := binary.BigEndian.Uint64(resp); got != uint64(i) {
			t.Fatalf("inc %d = %d (agreement diverged)", i, got)
		}
	}

	for _, id := range []uint32{1, 2, 3} {
		info := c.Replicas[id].Info()
		if info.View != 1 {
			t.Fatalf("replica %d view = %d, want exactly 1 (one view change, no cascade)", id, info.View)
		}
		if info.Stats.ConflictingPrePrepares == 0 {
			t.Fatalf("replica %d never observed conflicting pre-prepares", id)
		}
		var installs int
		for _, e := range tracer(id).viewChanges() {
			if e.Target != 1 {
				t.Fatalf("replica %d voted/installed view %d, want only view 1: %+v", id, e.Target, e)
			}
			if e.Kind == trace.EvViewChangeInstall {
				installs++
				if e.View != 1 {
					t.Fatalf("replica %d installed view %d, want 1", id, e.View)
				}
			}
		}
		if installs != 1 {
			t.Fatalf("replica %d installed %d views, want exactly 1", id, installs)
		}
	}
	waitStableDigests(t, c, []uint32{1, 2, 3}, o.CheckpointInterval, 10*time.Second)
}

// TestAdversaryCorruptMACs verifies the zero-protocol-effect property:
// a backup that corrupts the authenticated payload of every vote it
// sends is indistinguishable from a silent one. The group must stay in
// view 0, count the rejections, and keep returning correct results.
func TestAdversaryCorruptMACs(t *testing.T) {
	o := fastOpts()
	c, tracer := adversaryCluster(t, o, 72)
	defer c.Stop()

	replaceWithAdversary(t, c, 2, adversary.NewCorruptor(72, 1,
		wire.MTPrepare, wire.MTCommit, wire.MTCheckpoint))

	cl, err := c.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 1; i <= 10; i++ {
		resp := invokeMust(t, cl, "inc")
		if got := binary.BigEndian.Uint64(resp); got != uint64(i) {
			t.Fatalf("inc %d = %d", i, got)
		}
	}

	var rejections uint64
	for _, id := range []uint32{0, 1, 3} {
		info := c.Replicas[id].Info()
		if info.View != 0 {
			t.Fatalf("replica %d moved to view %d — corrupt MACs must have zero protocol effect", id, info.View)
		}
		if got := tracer(id).viewChanges(); len(got) != 0 {
			t.Fatalf("replica %d recorded view-change events %+v, want none", id, got)
		}
		rejections += info.Stats.DroppedBadAuth
	}
	if rejections == 0 {
		t.Fatal("correct replicas counted zero auth rejections despite a corrupting peer")
	}
	waitStableDigests(t, c, []uint32{0, 1, 3}, o.CheckpointInterval, 10*time.Second)
}

// TestAdversaryWithholdingBackup checks liveness under f silent voters:
// a backup that suppresses its prepares and commits (but otherwise runs
// the protocol) must be masked with no view change.
func TestAdversaryWithholdingBackup(t *testing.T) {
	o := fastOpts()
	c, tracer := adversaryCluster(t, o, 73)
	defer c.Stop()

	replaceWithAdversary(t, c, 1, adversary.NewWithholder(wire.MTPrepare, wire.MTCommit))

	cl, err := c.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 1; i <= 10; i++ {
		resp := invokeMust(t, cl, "inc")
		if got := binary.BigEndian.Uint64(resp); got != uint64(i) {
			t.Fatalf("inc %d = %d", i, got)
		}
	}
	for _, id := range []uint32{0, 2, 3} {
		if info := c.Replicas[id].Info(); info.View != 0 {
			t.Fatalf("replica %d moved to view %d — f withholders must be masked", id, info.View)
		}
		if got := tracer(id).viewChanges(); len(got) != 0 {
			t.Fatalf("replica %d recorded view-change events %+v, want none", id, got)
		}
	}
	waitStableDigests(t, c, []uint32{0, 2, 3}, o.CheckpointInterval, 10*time.Second)
}

// TestAdversaryAsymmetricPartitionHeals cuts only the inbound direction
// of replica 3's links (it can talk, it cannot hear — the asymmetric
// partition SetLinkFaults exists for), lets the group advance past a
// checkpoint, heals, and asserts recovery happens via state transfer
// (replayed pre-prepares fail §2.5 validation) ending in byte-identical
// state. The per-link counters must attribute the drops to the three
// severed directions.
func TestAdversaryAsymmetricPartitionHeals(t *testing.T) {
	o := fastOpts()
	o.MaxTimeDrift = 300 * time.Millisecond
	o.ViewChangeTimeout = time.Hour // isolate recovery from view changes
	c, tracer := adversaryCluster(t, o, 74)
	defer c.Stop()

	cl, err := c.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for _, peer := range []uint32{0, 1, 2} {
		c.Net.SetLinkFaults(ReplicaAddr(peer), ReplicaAddr(3), transport.Faults{Partitioned: true})
	}
	for i := 1; i <= int(o.CheckpointInterval)+4; i++ {
		invokeMust(t, cl, "inc")
	}
	time.Sleep(400 * time.Millisecond) // age the pre-prepares past MaxTimeDrift

	for _, peer := range []uint32{0, 1, 2} {
		if ls := c.Net.LinkStats(ReplicaAddr(peer), ReplicaAddr(3)); ls.Dropped == 0 {
			t.Fatalf("link %d->3 recorded no drops while partitioned: %+v", peer, ls)
		}
		if ls := c.Net.LinkStats(ReplicaAddr(3), ReplicaAddr(peer)); ls.Dropped != 0 {
			t.Fatalf("link 3->%d dropped %d packets — the partition must be asymmetric", peer, ls.Dropped)
		}
		c.Net.ClearLinkFaults(ReplicaAddr(peer), ReplicaAddr(3))
	}

	// Replica 3 must converge through state transfer, not replay.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var finished bool
		for _, e := range tracer(3).stateTransfers() {
			if e.Kind == trace.EvStateTransferFinish {
				finished = true
			}
		}
		if finished {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica 3 never finished a state transfer: %+v", tracer(3).stateTransfers())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if info := c.Replicas[3].Info(); info.Stats.RejectedNonDet == 0 {
		t.Fatal("healed replica accepted replayed pre-prepares — §2.5 validation missed")
	}
	waitStableDigests(t, c, []uint32{0, 1, 2, 3}, o.CheckpointInterval, 10*time.Second)
}

// TestAdversaryCombinedEquivocationAndPartition drives two simultaneous
// faults at the protocol's f=1 budget boundary from different fault
// classes: the view-0 primary equivocates (Byzantine) while replica 3's
// inbound links are severed (asymmetric partition — it can talk, it
// cannot hear). The two connected correct replicas plus the deposed-but-
// otherwise-honest adversary must complete EXACTLY one view change (a
// single installed view, no cascade — the lone partitioned replica's
// escalating votes must never drag the group higher), keep serving
// clients, and after the partition heals all four replicas must converge
// to byte-identical stable digests.
func TestAdversaryCombinedEquivocationAndPartition(t *testing.T) {
	o := fastOpts()
	o.ViewChangeTimeout = 500 * time.Millisecond
	c, tracer := adversaryCluster(t, o, 79)
	defer c.Stop()

	ident, err := c.ReplicaIdentity(0)
	if err != nil {
		t.Fatal(err)
	}
	gate := adversary.NewGate(adversary.NewEquivocator(ident))
	replaceWithAdversary(t, c, 0, gate)

	cl, err := c.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Settle under the honest regime, then inject both faults at once.
	invokeMust(t, cl, "inc")
	invokeMust(t, cl, "inc")
	for _, peer := range []uint32{0, 1, 2} {
		c.Net.SetLinkFaults(ReplicaAddr(peer), ReplicaAddr(3), transport.Faults{Partitioned: true})
	}
	gate.Arm()

	// Liveness across the combined fault: the equivocated slots cannot
	// prepare, the timers depose replica 0, and agreement continues in
	// view 1 with the quorum {0, 1, 2} (the adversary equivocates only
	// pre-prepares it authors as primary; as a backup it votes honestly).
	for i := 3; i <= 14; i++ {
		resp, err := cl.Invoke(context.Background(), []byte("inc"))
		if err != nil {
			t.Fatalf("inc %d under combined fault: %v", i, err)
		}
		if got := binary.BigEndian.Uint64(resp); got != uint64(i) {
			t.Fatalf("inc %d = %d (agreement diverged)", i, got)
		}
	}
	gate.Disarm()

	// The connected correct replicas observed the equivocation directly
	// and installed exactly view 1 — replica 3's solo votes for ever
	// higher views are one short of the f+1 needed to move anyone.
	for _, id := range []uint32{1, 2} {
		info := c.Replicas[id].Info()
		if info.View != 1 {
			t.Fatalf("replica %d view = %d, want exactly 1 (single view change, no cascade)", id, info.View)
		}
		if info.Stats.ConflictingPrePrepares == 0 {
			t.Fatalf("replica %d never observed conflicting pre-prepares", id)
		}
		var installs int
		for _, e := range tracer(id).viewChanges() {
			if e.Kind == trace.EvViewChangeInstall {
				installs++
				if e.View != 1 {
					t.Fatalf("replica %d installed view %d, want 1", id, e.View)
				}
			}
		}
		if installs != 1 {
			t.Fatalf("replica %d installed %d views, want exactly 1", id, installs)
		}
	}

	// Heal. The isolated replica missed the view change entirely; status
	// gossip hands it the new-view proof and retransmission/state
	// transfer close its execution gap.
	for _, peer := range []uint32{0, 1, 2} {
		c.Net.ClearLinkFaults(ReplicaAddr(peer), ReplicaAddr(3))
	}
	for i := 15; i <= 14+int(o.CheckpointInterval)+4; i++ {
		resp, err := cl.Invoke(context.Background(), []byte("inc"))
		if err != nil {
			t.Fatalf("inc %d after heal: %v", i, err)
		}
		if got := binary.BigEndian.Uint64(resp); got != uint64(i) {
			t.Fatalf("inc %d = %d after heal", i, got)
		}
	}

	digest := waitStableDigests(t, c, []uint32{0, 1, 2, 3}, o.CheckpointInterval, 15*time.Second)
	// The new-view proof reaches the healed replica through status
	// gossip, which runs on its own cadence — poll rather than snapshot.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if info := c.Replicas[3].Info(); info.View == 1 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("healed replica 3 settled in view %d, want 1", info.View)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Logf("converged at digest %x", digest[:8])
}

// TestAdversaryStaleViewChangeReplay records a genuine view-change vote
// during a real view change, then re-injects it from a foreign endpoint
// after the group has settled in the new view. The replay authenticates
// (the signature is real) and must be rejected on protocol state alone:
// no further view change, no extra installs.
func TestAdversaryStaleViewChangeReplay(t *testing.T) {
	o := fastOpts()
	o.ViewChangeTimeout = 400 * time.Millisecond
	c, tracer := adversaryCluster(t, o, 75)
	defer c.Stop()

	tap := adversary.NewReplayer(wire.MTViewChange)
	replaceWithAdversary(t, c, 2, tap)

	cl, err := c.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	invokeMust(t, cl, "inc")
	c.StopReplica(0) // depose the view-0 primary for real
	for i := 2; i <= 5; i++ {
		if _, err := cl.Invoke(context.Background(), []byte("inc")); err != nil {
			t.Fatalf("inc %d across the view change: %v", i, err)
		}
	}
	if got := len(tap.Captured()); got == 0 {
		t.Fatal("replayer captured no view-change votes during a real view change")
	}

	attacker, err := c.Net.Listen("attacker")
	if err != nil {
		t.Fatal(err)
	}
	defer attacker.Close()
	for round := 0; round < 3; round++ {
		for _, raw := range tap.Captured() {
			for _, id := range []uint32{1, 2, 3} {
				if err := attacker.Send(ReplicaAddr(id), raw); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	// The replay must change nothing: service keeps running in view 1.
	for i := 6; i <= 9; i++ {
		resp, err := cl.Invoke(context.Background(), []byte("inc"))
		if err != nil {
			t.Fatalf("inc %d after replay: %v", i, err)
		}
		if got := binary.BigEndian.Uint64(resp); got != uint64(i) {
			t.Fatalf("inc %d = %d", i, got)
		}
	}
	for _, id := range []uint32{1, 2, 3} {
		info := c.Replicas[id].Info()
		if info.View != 1 {
			t.Fatalf("replica %d view = %d after replay, want 1", id, info.View)
		}
		var installs int
		for _, e := range tracer(id).viewChanges() {
			if e.Kind == trace.EvViewChangeInstall {
				installs++
			}
		}
		if installs != 1 {
			t.Fatalf("replica %d installed %d views, want exactly 1 (replay must not re-trigger)", id, installs)
		}
	}
	waitStableDigests(t, c, []uint32{1, 2, 3}, o.CheckpointInterval, 10*time.Second)
}

// TestAdversaryForgedJoin floods the group with join requests whose
// envelope signature does not verify against the credential the body
// presents: JoinOp.PubKey carries keypair A's identity while the
// envelope is sealed by keypair B. §3.1 requires replicas to
// authenticate a join against the key embedded in its own body, so each
// forgery must die at that check — counted under the typed
// forged-join drop reason with zero protocol activity (nothing ordered,
// no liveness timers, no view change) while honest traffic keeps
// committing and the group converges on byte-identical digests.
func TestAdversaryForgedJoin(t *testing.T) {
	o := fastOpts()
	o.DynamicClients = true
	c, tracer := adversaryCluster(t, o, 78)
	defer c.Stop()

	cl, err := c.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	invokeMust(t, cl, "inc")
	invokeMust(t, cl, "inc")

	presented, err := crypto.GenerateKeyPair(nil)
	if err != nil {
		t.Fatal(err)
	}
	signer, err := crypto.GenerateKeyPair(nil)
	if err != nil {
		t.Fatal(err)
	}
	forger, err := c.Net.Listen("forger")
	if err != nil {
		t.Fatal(err)
	}
	defer forger.Close()

	const forgeries = 5
	for round := 0; round < forgeries; round++ {
		op := wire.JoinOp{
			Phase:   wire.JoinPhaseHello,
			Addr:    "forger",
			PubKey:  crypto.MarshalPublicKey(presented.Public()),
			Nonce:   0x4000 + uint64(round),
			AppAuth: []byte("mallory:sesame"),
		}
		req := &wire.Request{
			ClientID:  core.JoinSender,
			Timestamp: 0x4000 + uint64(round),
			Flags:     wire.FlagSystem | wire.FlagBig,
			Op:        wire.MarshalSysOp(wire.OpJoin, op.Marshal()),
		}
		env := &wire.Envelope{
			Type:    wire.MTRequest,
			Sender:  core.JoinSender,
			Payload: req.Marshal(),
		}
		env.SealSig(signer) // valid signature — by the WRONG key
		raw := env.Marshal()
		for id := uint32(0); id < uint32(len(c.Replicas)); id++ {
			if err := forger.Send(ReplicaAddr(id), raw); err != nil {
				t.Fatal(err)
			}
		}
	}

	// The service must be entirely unimpressed: honest operations keep
	// executing in sequence throughout the forgery flood.
	for i := 3; i <= 12; i++ {
		resp := invokeMust(t, cl, "inc")
		if got := binary.BigEndian.Uint64(resp); got != uint64(i) {
			t.Fatalf("inc %d = %d during forged-join flood", i, got)
		}
	}

	// Every replica received every forgery directly (no relay involved),
	// so each must account all of them under the typed drop reason.
	deadline := time.Now().Add(5 * time.Second)
	for {
		counted := true
		for _, r := range c.Replicas {
			if r.Info().Stats.DroppedForgedJoins < forgeries {
				counted = false
			}
		}
		if counted {
			break
		}
		if time.Now().After(deadline) {
			for id, r := range c.Replicas {
				t.Logf("replica %d: DroppedForgedJoins=%d", id, r.Info().Stats.DroppedForgedJoins)
			}
			t.Fatal("forged joins were not all counted under the typed drop reason")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Zero protocol effect: no replica ordered a forgery or armed a
	// liveness timer for one — the group never left view 0.
	for id := uint32(0); id < uint32(len(c.Replicas)); id++ {
		info := c.Replicas[id].Info()
		if info.View != 0 {
			t.Fatalf("replica %d moved to view %d — forged joins must have zero protocol effect", id, info.View)
		}
		if info.Stats.JoinsExecuted != 0 {
			t.Fatalf("replica %d executed %d joins — a forgery was admitted", id, info.Stats.JoinsExecuted)
		}
		if got := tracer(id).viewChanges(); len(got) != 0 {
			t.Fatalf("replica %d recorded view-change events %+v, want none", id, got)
		}
	}
	waitStableDigests(t, c, []uint32{0, 1, 2, 3}, o.CheckpointInterval, 10*time.Second)
}

// TestAdversarySlowlorisClient opens a genuine session from a real
// provisioned identity and then only trickles garbage. The replicas
// must account the noise as malformed drops and keep serving the honest
// client at full correctness.
func TestAdversarySlowlorisClient(t *testing.T) {
	o := fastOpts()
	o.MaxClientSessions = 2
	c, _ := adversaryCluster(t, o, 76)
	defer c.Stop()

	atkConn, err := c.Net.Listen("slowloris")
	if err != nil {
		t.Fatal(err)
	}
	targets := make([]string, len(c.Cfg.Replicas))
	for i := range targets {
		targets[i] = ReplicaAddr(uint32(i))
	}
	sl, err := adversary.NewSlowloris(atkConn, uint32(len(c.Cfg.Replicas))+1, c.ClientKey(1), targets, 2*time.Millisecond, 76)
	if err != nil {
		t.Fatal(err)
	}
	sl.Start()
	defer sl.Stop()

	cl, err := c.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 1; i <= 10; i++ {
		resp := invokeMust(t, cl, "inc")
		if got := binary.BigEndian.Uint64(resp); got != uint64(i) {
			t.Fatalf("inc %d = %d under slowloris pressure", i, got)
		}
	}
	// The trickle starts on the attacker's first tick and the ten calls
	// may finish before any of it arrives: what is under test is that
	// the trickle gets counted, not when.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var malformed uint64
		for _, r := range c.Replicas {
			malformed += r.Info().Stats.DroppedMalformed
		}
		if malformed > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("slowloris trickle was never counted as malformed drops")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestAdversaryClientTimestampEquivocation drives a Byzantine CLIENT
// that, alongside every real request, sends each replica a validly
// signed copy of the same operation at a different stale timestamp —
// a different lie per replica. The per-client dedup window must absorb
// every variant below its floor: counters advance by exactly one per
// real call (no re-execution), no replica starts liveness timers for
// the replayed operations (zero view changes), and the group converges
// on a byte-identical stable digest.
func TestAdversaryClientTimestampEquivocation(t *testing.T) {
	o := fastOpts()
	// Signature mode: client requests are re-sealable by the interposer
	// (MAC-mode clients seal with private ephemeral session keys).
	o.UseMACs = false
	// AllBig multicast gives the per-destination equivocation its hook.
	o.AllBig = true
	o.ClientWindow = 4
	c, tracer := adversaryCluster(t, o, 97)
	defer c.Stop()

	clientID := uint32(len(c.Cfg.Replicas)) // pre-provisioned client 0
	ident := adversary.NewClientIdentity(clientID, c.ClientKey(0))
	eq := adversary.NewTimestampEquivocator(ident, o.ClientWindow)
	gate := adversary.NewGate(eq)
	cl, err := c.AdversaryClient(0, func(conn transport.Conn) transport.Conn {
		return adversary.Wrap(conn, gate)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Settle honestly first so the replicas' dedup floors exist (the
	// floor trails the highest EXECUTED timestamp; before any execution
	// a below-floor replay is indistinguishable from a fresh request),
	// then turn the equivocation on.
	for i := 1; i <= 5; i++ {
		resp := invokeMust(t, cl, "inc ctr")
		if got := binary.BigEndian.Uint64(resp); got != uint64(i) {
			t.Fatalf("honest inc %d executed as %d", i, got)
		}
	}
	gate.Arm()

	// Every inc must bump the counter by exactly one: a dedup window
	// that admitted any stale variant would re-execute an earlier inc
	// and break the sequence.
	for i := 6; i <= 40; i++ {
		resp := invokeMust(t, cl, "inc ctr")
		if got := binary.BigEndian.Uint64(resp); got != uint64(i) {
			t.Fatalf("inc %d executed as %d: a stale equivocated request was re-executed", i, got)
		}
	}
	if eq.Stale() == 0 {
		t.Fatal("equivocator injected no stale variants; the scenario tested nothing")
	}

	// Stale replays must be absorbed before the liveness machinery: a
	// backup that relayed one to the primary and armed its timer would
	// eventually depose a correct primary.
	for id := uint32(0); id < uint32(len(c.Replicas)); id++ {
		if vcs := tracer(id).viewChanges(); len(vcs) != 0 {
			t.Fatalf("replica %d saw view changes under client equivocation: %+v", id, vcs)
		}
	}

	// All four replicas settle on the same stable checkpoint digest.
	waitStableDigests(t, c, []uint32{0, 1, 2, 3}, 8, 10*time.Second)
	t.Logf("dedup absorbed %d stale variants", eq.Stale())
}
