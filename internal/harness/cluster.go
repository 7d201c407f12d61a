// Package harness assembles in-process PBFT clusters over the simulated
// network: replicas, pre-provisioned and dynamic clients and the test
// applications. The integration tests drive it directly; the benchmark
// (bench/) builds its clusters through it.
package harness

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"repro/internal/adversary"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// AppFactory builds one application instance per replica.
type AppFactory func(replica uint32) core.Application

// ClusterOptions configures an in-process cluster.
type ClusterOptions struct {
	Opts       core.Options
	NumClients int
	Seed       int64
	App        AppFactory
	// Bandwidth models per-node egress speed in bytes/second
	// (0 = infinite). The benchmark uses the paper's measured
	// 938 Mbit/s.
	Bandwidth float64
	// Tracer, when set, builds one event tracer per replica (a factory
	// may return the same aggregating instance for every id — the
	// tracer hooks must then be safe for concurrent use). Restarted
	// replicas get a fresh factory call.
	Tracer func(replica uint32) core.Tracer
	// Recorder, when set, builds one request-lifecycle flight recorder
	// per replica (installed via Options.Recorder; nil returns leave
	// that replica untraced). Restarted replicas get a fresh factory
	// call, so a recorder never spans two replica incarnations.
	Recorder func(replica uint32) *trace.Recorder
	// DataDir makes every replica durable: replica id persists under
	// DataDir/replica-<id> (WAL-backed pages + manifest). The directory
	// survives StopReplica/RestartReplica, so a restarted replica
	// recovers from disk and fetches only the delta via state transfer.
	// Empty keeps the cluster diskless.
	DataDir string
}

// LibConfig names one library configuration of the paper's Table 1.
type LibConfig struct {
	Static bool // static client management ("sta"/"nosta")
	MACs   bool // authenticators ("mac"/"nomac")
	AllBig bool // all requests treated as big ("allbig"/"noallbig")
	Batch  bool // request batching ("batch"/"nobatch")
}

// BenchOptionsFor maps a LibConfig onto library options; the benchmark
// (bench/) builds its Table 1 workloads through it.
func BenchOptionsFor(lc LibConfig) core.Options {
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

// Cluster is an in-process PBFT deployment: N replicas and a set of
// pre-provisioned clients over one simulated network.
type Cluster struct {
	Net      *transport.Network
	Cfg      *core.Config
	Replicas []*core.Replica
	Apps     []core.Application

	replicaKeys []*crypto.KeyPair
	clientKeys  []*crypto.KeyPair
	conns       []transport.Conn // per-replica endpoint, for crash simulation
	appFactory  AppFactory
	tracerFor   func(replica uint32) core.Tracer
	recorderFor func(replica uint32) *trace.Recorder
	rng         *rand.Rand
	dataDir     string // durable root; "" = diskless
}

// ReplicaAddr returns the network address of replica id.
func ReplicaAddr(id uint32) string { return fmt.Sprintf("replica-%d", id) }

// ClientAddr returns the network address of pre-provisioned client i.
func ClientAddr(i int) string { return fmt.Sprintf("client-%d", i) }

// NewCluster builds and starts a cluster. Stop releases it.
func NewCluster(o ClusterOptions) (*Cluster, error) {
	if o.App == nil {
		return nil, fmt.Errorf("harness: ClusterOptions.App is required")
	}
	n := 3*o.Opts.F + 1
	c := &Cluster{
		Net:         transport.NewNetwork(o.Seed),
		appFactory:  o.App,
		tracerFor:   o.Tracer,
		recorderFor: o.Recorder,
		rng:         rand.New(rand.NewSource(o.Seed + 1)),
		dataDir:     o.DataDir,
	}
	if o.Bandwidth > 0 {
		c.Net.SetBandwidth(o.Bandwidth)
	}
	cfg := &core.Config{Opts: o.Opts}
	c.replicaKeys = make([]*crypto.KeyPair, n)
	for i := 0; i < n; i++ {
		kp, err := crypto.GenerateKeyPair(nil)
		if err != nil {
			return nil, err
		}
		c.replicaKeys[i] = kp
		cfg.Replicas = append(cfg.Replicas, core.NodeInfo{
			ID:     uint32(i),
			Addr:   ReplicaAddr(uint32(i)),
			PubKey: kp.Public(),
		})
	}
	c.clientKeys = make([]*crypto.KeyPair, o.NumClients)
	for i := 0; i < o.NumClients; i++ {
		kp, err := crypto.GenerateKeyPair(nil)
		if err != nil {
			return nil, err
		}
		c.clientKeys[i] = kp
		cfg.Clients = append(cfg.Clients, core.NodeInfo{
			ID:     uint32(n + i),
			Addr:   ClientAddr(i),
			PubKey: kp.Public(),
		})
	}
	c.Cfg = cfg

	c.Replicas = make([]*core.Replica, n)
	c.Apps = make([]core.Application, n)
	c.conns = make([]transport.Conn, n)
	for i := 0; i < n; i++ {
		if err := c.startReplica(uint32(i)); err != nil {
			c.Stop()
			return nil, err
		}
	}
	return c, nil
}

// startReplica creates, wires and starts replica id through the
// context-driven lifecycle (Run in a background goroutine).
func (c *Cluster) startReplica(id uint32) error {
	return c.startWrapped(id, nil)
}

// StartAdversary starts replica id with its transport connection passed
// through wrap — the hook the adversary package's scripted behaviors
// attach through. The replica runs unmodified protocol code; only its
// view of the network is filtered. The slot must be vacant (StopReplica
// first when repurposing a running replica).
func (c *Cluster) StartAdversary(id uint32, wrap func(transport.Conn) transport.Conn) error {
	if c.Replicas[id] != nil {
		return fmt.Errorf("harness: replica %d is running; stop it before starting an adversary", id)
	}
	return c.startWrapped(id, wrap)
}

// startWrapped is the shared start path: listen, optionally interpose
// on the conn, build and run the replica.
func (c *Cluster) startWrapped(id uint32, wrap func(transport.Conn) transport.Conn) error {
	mc, err := c.Net.Listen(ReplicaAddr(id))
	if err != nil {
		return err
	}
	var conn transport.Conn = mc
	if wrap != nil {
		conn = wrap(conn)
	}
	app := c.appFactory(id)
	cfg := c.Cfg
	if c.tracerFor != nil || c.recorderFor != nil || c.dataDir != "" {
		// Per-replica tracer/recorder/data dir: shallow-copy the shared config (the slices inside are
		// read-only) and install this replica's instances.
		clone := *c.Cfg
		if c.tracerFor != nil {
			clone.Opts.Tracer = c.tracerFor(id)
		}
		if c.recorderFor != nil {
			clone.Opts.Recorder = c.recorderFor(id)
		}
		if c.dataDir != "" {
			clone.Opts.DataDir = c.ReplicaDataDir(id)
		}
		cfg = &clone
	}
	rep, err := core.NewReplica(cfg, id, c.replicaKeys[id], conn, app)
	if err != nil {
		_ = conn.Close()
		return err
	}
	c.Replicas[id] = rep
	c.Apps[id] = app
	c.conns[id] = conn
	go func() { _ = rep.Run(context.Background()) }()
	return nil
}

// StopReplica halts one replica as a simulated CRASH: its volatile state
// is gone and — crucially for the fault-injection suite — nothing leaves
// the machine after the crash point. The connection is severed first, so
// the replica's teardown cannot drain, reply, or gossip on the way down
// (a graceful drain would weaken the fault model to fail-stop-after-
// flush). For a graceful stop, call Shutdown on the replica directly.
func (c *Cluster) StopReplica(id uint32) {
	if c.Replicas[id] != nil {
		_ = c.conns[id].Close()
		_ = c.Replicas[id].Shutdown(context.Background())
		c.Replicas[id] = nil
		c.Apps[id] = nil
	}
}

// RestartReplica brings a stopped replica back with fresh volatile
// state; it recovers via checkpoint proofs and state transfer. With
// ClusterOptions.DataDir set, the replica's on-disk state is preserved
// across the restart: the new incarnation recovers from its WAL-backed
// pages and manifest and fetches only the delta.
func (c *Cluster) RestartReplica(id uint32) error {
	if c.Replicas[id] != nil {
		c.StopReplica(id)
	}
	return c.startReplica(id)
}

// ReplicaDataDir returns replica id's durable directory ("" when the
// cluster is diskless). Durability tests use it to corrupt on-disk
// state between incarnations (kill -9 mid-WAL-append).
func (c *Cluster) ReplicaDataDir(id uint32) string {
	if c.dataDir == "" {
		return ""
	}
	return filepath.Join(c.dataDir, fmt.Sprintf("replica-%d", id))
}

// Client builds the i-th pre-provisioned client. The caller owns it (and
// must Close it).
func (c *Cluster) Client(i int, opts ...client.Option) (*client.Client, error) {
	conn, err := c.Net.Listen(ClientAddr(i))
	if err != nil {
		return nil, err
	}
	cl, err := client.New(c.Cfg, uint32(len(c.Cfg.Replicas)+i), c.clientKeys[i], conn, opts...)
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	return cl, nil
}

// AdversaryClient builds the i-th pre-provisioned client with its
// transport connection passed through wrap — the client-side mirror of
// StartAdversary. The client runs unmodified library code; the wrapper
// tampers with its traffic on the way out (equivocation, replay, drops).
func (c *Cluster) AdversaryClient(i int, wrap func(transport.Conn) transport.Conn, opts ...client.Option) (*client.Client, error) {
	mc, err := c.Net.Listen(ClientAddr(i))
	if err != nil {
		return nil, err
	}
	var conn transport.Conn = mc
	if wrap != nil {
		conn = wrap(conn)
	}
	cl, err := client.New(c.Cfg, uint32(len(c.Cfg.Replicas)+i), c.clientKeys[i], conn, opts...)
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	return cl, nil
}

// DynamicClient builds an un-admitted client that must Join (§3.1).
func (c *Cluster) DynamicClient(addr string, opts ...client.Option) (*client.Client, error) {
	kp, err := crypto.GenerateKeyPair(nil)
	if err != nil {
		return nil, err
	}
	conn, err := c.Net.Listen(addr)
	if err != nil {
		return nil, err
	}
	cl, err := client.NewDynamic(c.Cfg, kp, conn, opts...)
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	return cl, nil
}

// ClientKey exposes pre-provisioned client i's key material (slowloris
// attackers hold a real client identity).
func (c *Cluster) ClientKey(i int) *crypto.KeyPair { return c.clientKeys[i] }

// ReplicaIdentity builds the adversary-package sealing identity for
// replica id: the real keys, usable to re-authenticate tampered
// messages.
func (c *Cluster) ReplicaIdentity(id uint32) (*adversary.Identity, error) {
	pubs := make([]crypto.PublicKey, len(c.Cfg.Replicas))
	for i, ri := range c.Cfg.Replicas {
		pubs[i] = ri.PubKey
	}
	return adversary.NewIdentity(id, c.replicaKeys[id], pubs, c.Cfg.Opts.UseMACs)
}

// SealAsReplica authenticates an envelope exactly as replica id would
// (authenticator in MAC mode, signature otherwise) and returns the wire
// bytes. Byzantine-replica tests use it to re-authenticate mutated
// messages.
func (c *Cluster) SealAsReplica(id uint32, env *wire.Envelope) []byte {
	ident, err := c.ReplicaIdentity(id)
	if err != nil {
		return nil
	}
	return ident.Seal(env)
}

// Stop halts every replica and tears the network down.
func (c *Cluster) Stop() {
	for i := range c.Replicas {
		if c.Replicas[i] != nil {
			_ = c.Replicas[i].Shutdown(context.Background())
			c.Replicas[i] = nil
		}
	}
	_ = c.Net.Close()
}

// WaitConverged polls until every live replica executed at least seq —
// scheduled by the protocol loop AND applied by the execution engine
// (with asynchronous reaping, LastExec advances at scheduling time, so a
// quiesced engine is what makes direct region reads race-free), or
// the timeout expires. It reports whether every live replica got there.
func (c *Cluster) WaitConverged(seq uint64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		ok := true
		for _, r := range c.Replicas {
			if r == nil {
				continue
			}
			info := r.Info()
			if info.LastExec < seq || info.ExecQueueDepth > 0 {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return false
}
