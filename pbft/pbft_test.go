package pbft

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/crypto"
)

type echoApp struct{}

func (echoApp) Execute(op []byte, nd NonDetValues, readOnly bool) []byte {
	return append([]byte("echo:"), op...)
}

func testOptions() Options {
	o := DefaultOptions()
	o.StateSize = 1 << 20
	o.PageSize = 256
	o.CheckpointInterval = 8
	o.RequestTimeout = 400 * time.Millisecond
	o.StatusInterval = 50 * time.Millisecond
	return o
}

// buildUDPCluster deploys 3f+1 replicas and one client over real UDP
// sockets on the loopback interface — the original PBFT deployment model.
// It returns the replicas' sockets beside the replicas.
func buildUDPCluster(t *testing.T, opts Options) ([]*UDPConn, []*Replica, *Client) {
	t.Helper()
	n := 3*opts.F + 1
	cfg := &Config{Opts: opts}
	conns := make([]*UDPConn, n)
	keys := make([]*KeyPair, n)
	for i := 0; i < n; i++ {
		conn, err := ListenUDP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		kp, err := GenerateKeyPair(nil)
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = conn.(*UDPConn)
		keys[i] = kp
		cfg.Replicas = append(cfg.Replicas, NodeInfo{ID: uint32(i), Addr: conn.Addr(), PubKey: kp.Public()})
	}
	clientConn, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	clientKey, err := GenerateKeyPair(nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Clients = append(cfg.Clients, NodeInfo{ID: uint32(n), Addr: clientConn.Addr(), PubKey: clientKey.Public()})

	replicas := make([]*Replica, n)
	for i := 0; i < n; i++ {
		rep, err := NewReplica(cfg, uint32(i), keys[i], conns[i], echoApp{})
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = rep.Run(context.Background()) }()
		replicas[i] = rep
	}
	t.Cleanup(func() {
		for _, r := range replicas {
			_ = r.Shutdown(context.Background())
		}
	})
	cl, err := NewClient(cfg, uint32(n), clientKey, clientConn)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return conns, replicas, cl
}

func TestUDPClusterEndToEnd(t *testing.T) {
	// The full stack over real UDP sockets: requests, agreement,
	// replies, checkpoints, and the syscall-batching counters.
	conns, replicas, cl := buildUDPCluster(t, testOptions())
	for i := 0; i < 20; i++ {
		resp, err := cl.Invoke(context.Background(), []byte(fmt.Sprintf("op%d", i)))
		if err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
		if string(resp) != fmt.Sprintf("echo:op%d", i) {
			t.Fatalf("invoke %d: %q", i, resp)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for _, r := range replicas {
		for {
			info := r.Info()
			if info.LastStable >= 16 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("replica %d: stable checkpoint stuck at %d", r.ID(), info.LastStable)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	for i, c := range conns {
		s := c.BatchStats()
		if s.Syscalls() == 0 {
			t.Fatalf("replica %d: no syscalls counted; batch counters are not wired", i)
		}
		if s.RecvPerCall() < 1 {
			t.Fatalf("replica %d: %.2f datagrams per receive syscall, want >= 1", i, s.RecvPerCall())
		}
	}
}

func TestUDPClusterSignatureMode(t *testing.T) {
	_, _, cl := buildUDPCluster(t, testOptions().Robust())
	resp, err := cl.Invoke(context.Background(), []byte("signed"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "echo:signed" {
		t.Fatalf("resp %q", resp)
	}
}

func TestDeploymentRoundTrip(t *testing.T) {
	dir := t.TempDir()
	opts := DefaultOptions()
	opts.DynamicClients = true
	dep := &Deployment{Options: opts}
	var keys []*KeyPair
	for i := 0; i < 4; i++ {
		kp, err := GenerateKeyPair(nil)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, kp)
		dep.Replicas = append(dep.Replicas, DeployNode{
			ID:     uint32(i),
			Addr:   fmt.Sprintf("127.0.0.1:%d", 9000+i),
			PubKey: PublicKeyHex(kp),
		})
	}
	path := filepath.Join(dir, "config.json")
	if err := dep.Save(path); err != nil {
		t.Fatal(err)
	}
	// Files written before the adaptive batch controller and the
	// synchronous-reap knob were removed carry their options; they must
	// still load and validate.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const maxBatch = `"MaxBatch": 64,`
	if !bytes.Contains(raw, []byte(maxBatch)) {
		t.Fatalf("saved deployment lacks %s:\n%s", maxBatch, raw)
	}
	oldPath := filepath.Join(dir, "config-adaptive.json")
	oldRaw := bytes.Replace(raw, []byte(maxBatch), []byte(maxBatch+`
    "AdaptiveBatching": true,
    "AsyncReap": true,`), 1)
	if err := os.WriteFile(oldPath, oldRaw, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{path, oldPath} {
		loaded, err := LoadDeployment(p)
		if err != nil {
			t.Fatalf("%s: %v", filepath.Base(p), err)
		}
		cfg, err := loaded.Config()
		if err != nil {
			t.Fatalf("%s: %v", filepath.Base(p), err)
		}
		if cfg.N() != 4 || !cfg.Opts.DynamicClients || cfg.Opts.MaxBatch != 64 {
			t.Fatalf("%s: cfg = %+v", filepath.Base(p), cfg)
		}
		if cfg.Replicas[2].Addr != "127.0.0.1:9002" {
			t.Fatalf("%s: addr = %s", filepath.Base(p), cfg.Replicas[2].Addr)
		}
	}
	// Key files round-trip and reproduce the same public identity.
	kpath := filepath.Join(dir, "r0.key")
	if err := SaveKeyFile(kpath, keys[0]); err != nil {
		t.Fatal(err)
	}
	kp2, err := LoadKeyFile(kpath)
	if err != nil {
		t.Fatal(err)
	}
	if PublicKeyHex(kp2) != PublicKeyHex(keys[0]) {
		t.Fatal("key file must reproduce the identity")
	}
	// Signatures from the reloaded key verify against the original
	// public key (same private material).
	msg := []byte("prove it")
	if !crypto.Verify(keys[0].Public(), msg, kp2.Sign(msg)) {
		t.Fatal("reloaded key must sign verifiably")
	}
}

func TestDeploymentRejectsBadData(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDeployment(bad); err == nil {
		t.Fatal("bad json must fail")
	}
	if _, err := LoadDeployment(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file must fail")
	}
	dep := &Deployment{Options: DefaultOptions()}
	dep.Replicas = []DeployNode{{ID: 0, Addr: "a", PubKey: "zz-not-hex"}}
	if _, err := dep.Config(); err == nil {
		t.Fatal("bad pubkey hex must fail")
	}
	// Too few replicas fails Config validation.
	kp, _ := GenerateKeyPair(nil)
	dep.Replicas = []DeployNode{{ID: 0, Addr: "a", PubKey: PublicKeyHex(kp)}}
	if _, err := dep.Config(); err == nil {
		t.Fatal("undersized group must fail validation")
	}
	if _, err := LoadKeyFile(filepath.Join(dir, "missing.key")); err == nil {
		t.Fatal("missing key file must fail")
	}
	if err := os.WriteFile(filepath.Join(dir, "short.key"), []byte("abcd"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadKeyFile(filepath.Join(dir, "short.key")); err == nil {
		t.Fatal("short key file must fail")
	}
}
