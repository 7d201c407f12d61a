// KV store: a replicated key-value service whose Application manages the
// raw state region directly — answering the paper's §3.2 question "what
// can a modern application do with just a pointer to a memory region?"
// the hard way, for contrast with the SQL abstraction (see the evoting
// example).
//
// The store hashes keys onto fixed-size buckets, each a private byte
// range of the region, and implements pbft.Sharder with the bucket index
// as the conflict key: operations on different buckets have disjoint
// state footprints and commute, so the replica's sharded execution engine
// (Options.ExecShards) applies them concurrently while checkpointing,
// state transfer and rollback keep working unchanged. "keys" scans every
// bucket and is unkeyed — the engine runs it as a barrier.
//
//	go run ./examples/kvstore
package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"log/slog"
	"os"
	"sort"
	"strings"

	"repro/pbft"
)

const (
	// numBuckets fixed-size buckets; each key lives in exactly one.
	numBuckets = 64
	// bucketSize bytes per bucket (one region page: bucket writes touch
	// exactly one checkpoint page).
	bucketSize = 4096
)

// kvApp replicates a bucketed map[string]string in the state region.
//
// Bucket layout: u16 entry count, then (u16 klen, key, u16 vlen, value)*
// in sorted key order — the byte layout must be deterministic because
// replicas agree on state via region digests (the determinism trap of
// §2.5, one level down).
//
// The fixed bucketing is the price of disjoint footprints: each bucket
// holds at most bucketSize bytes of entries, and a set that would
// overflow its bucket fails with ERR (the demo keeps it simple — a real
// store would chain overflow buckets from a free area, keeping the
// conflict key per chain).
type kvApp struct {
	region *pbft.StateRegion
}

func (a *kvApp) AttachState(region *pbft.StateRegion) { a.region = region }

// bucketOf hashes a key onto its bucket (FNV-1a; any fixed function
// works — it only has to be the same at every replica).
func bucketOf(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h % numBuckets
}

// Keys implements pbft.Sharder: the conflict key of a keyed operation is
// its bucket — never the user key, because two keys sharing a bucket
// share bytes and must serialize. "keys" touches every bucket: unkeyed,
// so the engine runs it as a barrier.
func (a *kvApp) Keys(op []byte) [][]byte {
	fields := strings.SplitN(string(op), " ", 3)
	switch fields[0] {
	case "set", "get", "del":
		if len(fields) < 2 {
			return nil
		}
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], bucketOf(fields[1]))
		return [][]byte{b[:]}
	}
	return nil
}

func (a *kvApp) loadBucket(b uint32) map[string]string {
	m := make(map[string]string)
	base := int64(b) * bucketSize
	buf := make([]byte, 2)
	if _, err := a.region.ReadAt(buf, base); err != nil {
		return m
	}
	n := binary.BigEndian.Uint16(buf)
	off := base + 2
	for i := uint16(0); i < n; i++ {
		readStr := func() string {
			if _, err := a.region.ReadAt(buf, off); err != nil {
				return ""
			}
			l := int64(binary.BigEndian.Uint16(buf))
			off += 2
			s := make([]byte, l)
			if _, err := a.region.ReadAt(s, off); err != nil {
				return ""
			}
			off += l
			return string(s)
		}
		k := readStr()
		v := readStr()
		m[k] = v
	}
	return m
}

func (a *kvApp) storeBucket(b uint32, m map[string]string) error {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := binary.BigEndian.AppendUint16(nil, uint16(len(m)))
	for _, k := range keys {
		v := m[k]
		out = binary.BigEndian.AppendUint16(out, uint16(len(k)))
		out = append(out, k...)
		out = binary.BigEndian.AppendUint16(out, uint16(len(v)))
		out = append(out, v...)
	}
	if len(out) > bucketSize {
		return fmt.Errorf("bucket %d overflow (%d bytes)", b, len(out))
	}
	// Zero-pad to the full bucket so stale tail bytes cannot linger in
	// the agreed state after deletes.
	out = append(out, make([]byte, bucketSize-len(out))...)
	// WriteAt performs the modify notification PBFT requires (§2.1).
	_, err := a.region.WriteAt(out, int64(b)*bucketSize)
	return err
}

// Execute implements ops "set k v", "get k", "del k", "keys".
func (a *kvApp) Execute(op []byte, nd pbft.NonDetValues, readOnly bool) []byte {
	fields := strings.SplitN(string(op), " ", 3)
	switch fields[0] {
	case "set":
		if readOnly || len(fields) != 3 {
			return []byte("ERR")
		}
		b := bucketOf(fields[1])
		m := a.loadBucket(b)
		m[fields[1]] = fields[2]
		if err := a.storeBucket(b, m); err != nil {
			return []byte("ERR " + err.Error())
		}
		return []byte("OK")
	case "del":
		if readOnly || len(fields) != 2 {
			return []byte("ERR")
		}
		b := bucketOf(fields[1])
		m := a.loadBucket(b)
		delete(m, fields[1])
		if err := a.storeBucket(b, m); err != nil {
			return []byte("ERR " + err.Error())
		}
		return []byte("OK")
	case "get":
		if len(fields) != 2 {
			return []byte("ERR")
		}
		v, ok := a.loadBucket(bucketOf(fields[1]))[fields[1]]
		if !ok {
			return []byte("(nil)")
		}
		return []byte(v)
	case "keys":
		total := 0
		for b := uint32(0); b < numBuckets; b++ {
			total += len(a.loadBucket(b))
		}
		return []byte(fmt.Sprint(total, " keys"))
	default:
		return []byte("ERR unknown op")
	}
}

func main() {
	if err := run(); err != nil {
		slog.Error("kvstore failed", "err", err)
		os.Exit(1)
	}
}

func run() error {
	const f = 1
	n := 3*f + 1
	net := pbft.NewNetwork(3)
	defer net.Close()

	// Four execution shards: operations on different buckets apply in
	// parallel behind the ordered commit stream.
	opts := pbft.DefaultOptions()
	opts.ExecShards = 4
	cfg := &pbft.Config{Opts: opts}
	keys := make([]*pbft.KeyPair, n)
	for i := 0; i < n; i++ {
		kp, err := pbft.GenerateKeyPair(nil)
		if err != nil {
			return err
		}
		keys[i] = kp
		cfg.Replicas = append(cfg.Replicas, pbft.NodeInfo{
			ID: uint32(i), Addr: fmt.Sprintf("replica-%d", i), PubKey: kp.Public(),
		})
	}
	ck, err := pbft.GenerateKeyPair(nil)
	if err != nil {
		return err
	}
	cfg.Clients = append(cfg.Clients, pbft.NodeInfo{ID: uint32(n), Addr: "client-0", PubKey: ck.Public()})

	replicas := make([]*pbft.Replica, n)
	for i := 0; i < n; i++ {
		conn, err := net.Listen(cfg.Replicas[i].Addr)
		if err != nil {
			return err
		}
		rep, err := pbft.NewReplica(cfg, uint32(i), keys[i], conn, &kvApp{})
		if err != nil {
			return err
		}
		go func() { _ = rep.Run(context.Background()) }()
		replicas[i] = rep
	}
	defer func() {
		for _, r := range replicas {
			_ = r.Shutdown(context.Background())
		}
	}()

	conn, err := net.Listen("client-0")
	if err != nil {
		return err
	}
	cl, err := pbft.NewClient(cfg, uint32(n), ck, conn)
	if err != nil {
		return err
	}
	defer cl.Close()

	ops := []string{
		"set color blue",
		"set shape circle",
		"get color",
		"del color",
		"get color",
		"get shape",
		"keys",
	}
	for _, op := range ops {
		resp, err := cl.Invoke(context.Background(), []byte(op))
		if err != nil {
			return err
		}
		fmt.Printf("%-18s -> %s\n", op, resp)
	}

	// Reads can use the optimized read-only path (§2.1): no agreement,
	// the client collects a 2f+1 quorum of direct replies. Keyed reads
	// run on their bucket's shard, off the replica's protocol loop.
	resp, err := cl.InvokeReadOnly(context.Background(), []byte("get shape"))
	if err != nil {
		return err
	}
	fmt.Printf("%-18s -> %s (read-only path)\n", "get shape", resp)
	return nil
}
