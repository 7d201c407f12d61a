package harness

import (
	"fmt"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/partition"
)

// PartitionedClusterOptions configures a multi-group deployment: G
// independent clusters booted from one topology spec, with a shared
// partition table in front.
type PartitionedClusterOptions struct {
	// Groups is the number of independent PBFT groups.
	Groups int
	// Opts configures every replica of every group identically.
	Opts core.Options
	// ClientsPerGroup is how many client identities each group
	// pre-provisions. A partitioned client with index i holds identity
	// i in every group, so this bounds the partitioned-client count.
	ClientsPerGroup int
	// Seed derives each group's network seed (group g uses Seed+g*7919),
	// keeping groups distinct but the whole deployment reproducible.
	Seed int64
	// App builds one application instance per replica (shared across
	// groups; each group's replicas get their own instances).
	App AppFactory
	// Keys is the placement keyset function installed in the router —
	// the same Sharder-shaped keysets the exec engine uses.
	Keys partition.KeysFunc
}

// PartitionedCluster is G independent in-process PBFT groups — separate
// simulated networks, separate key material, separate histories — behind
// one partition router. It is the harness counterpart of a production
// multi-group deployment: nothing is shared between groups except the
// routing table.
type PartitionedCluster struct {
	Groups []*Cluster
	router *partition.Router
}

// NewPartitionedCluster boots all groups. Stop releases them.
func NewPartitionedCluster(o PartitionedClusterOptions) (*PartitionedCluster, error) {
	if o.Groups < 1 {
		return nil, fmt.Errorf("harness: need at least one group, got %d", o.Groups)
	}
	router, err := partition.NewRouter(partition.Uniform(o.Groups), o.Keys)
	if err != nil {
		return nil, err
	}
	pc := &PartitionedCluster{router: router}
	for g := 0; g < o.Groups; g++ {
		c, err := NewCluster(ClusterOptions{
			Opts:       o.Opts,
			NumClients: o.ClientsPerGroup,
			Seed:       o.Seed + int64(g)*7919,
			App:        o.App,
		})
		if err != nil {
			pc.Stop()
			return nil, fmt.Errorf("harness: group %d: %w", g, err)
		}
		pc.Groups = append(pc.Groups, c)
	}
	return pc, nil
}

// Router returns the shared routing layer.
func (pc *PartitionedCluster) Router() *partition.Router { return pc.router }

// Client builds partitioned client i: one pipelined session per group,
// all holding identity i, routed through the shared table. The caller
// owns it (and must Close it).
func (pc *PartitionedCluster) Client(i int, copts ...client.Option) (*partition.Client, error) {
	sessions := make([]*client.Client, len(pc.Groups))
	for g, c := range pc.Groups {
		s, err := c.Client(i, copts...)
		if err != nil {
			for _, done := range sessions[:g] {
				_ = done.Close()
			}
			return nil, fmt.Errorf("harness: group %d session: %w", g, err)
		}
		sessions[g] = s
	}
	return partition.NewClient(pc.router, sessions)
}

// Stop releases every group.
func (pc *PartitionedCluster) Stop() {
	for _, c := range pc.Groups {
		if c != nil {
			c.Stop()
		}
	}
}

// ConvergedDigest waits until every replica of group g reports the same
// stable checkpoint at sequence ≥ minStable with byte-identical
// StableDigest, and returns that digest — the harness-level statement
// that the group's history converged.
func (pc *PartitionedCluster) ConvergedDigest(g int, minStable uint64, timeout time.Duration) ([32]byte, error) {
	c := pc.Groups[g]
	deadline := time.Now().Add(timeout)
	for {
		infos := make([]core.Info, len(c.Replicas))
		ok := true
		for i, rep := range c.Replicas {
			if rep == nil {
				return [32]byte{}, fmt.Errorf("harness: group %d replica %d not running", g, i)
			}
			infos[i] = rep.Info()
			if infos[i].LastStable < minStable || infos[i].LastStable != infos[0].LastStable ||
				infos[i].StableDigest != infos[0].StableDigest {
				ok = false
			}
		}
		if ok {
			return infos[0].StableDigest, nil
		}
		if time.Now().After(deadline) {
			state := make([]string, len(infos))
			for i, in := range infos {
				state[i] = fmt.Sprintf("r%d stable=%d digest=%x", i, in.LastStable, in.StableDigest[:4])
			}
			return [32]byte{}, fmt.Errorf("harness: group %d did not converge past %d: %v", g, minStable, state)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
