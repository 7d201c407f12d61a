// E-voting: the paper's motivating application (§1). A replicated SQL
// database (the §3.2 state abstraction) records votes; voters join
// dynamically with credentials (§3.1), cast a ballot, and later anyone
// can tally. There is no centralized component: every vote is totally
// ordered by PBFT across four replicas and stored with ACID semantics.
//
//	go run ./examples/evoting
package main

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"strings"

	"repro/pbft"
	"repro/sqlstate"
)

// credentials is the application-level authorization of §3.1: the Join
// identification buffer is "voter:password"; the principal is the voter
// name, so one voter holds at most one live session.
var credentials = map[string]string{
	"alice": "a-pass",
	"bob":   "b-pass",
	"carol": "c-pass",
	"dave":  "d-pass",
	"erin":  "e-pass",
}

func authorize(appAuth []byte) (string, bool) {
	parts := strings.SplitN(string(appAuth), ":", 2)
	if len(parts) != 2 {
		return "", false
	}
	want, ok := credentials[parts[0]]
	return parts[0], ok && want == parts[1]
}

func main() {
	if err := run(); err != nil {
		slog.Error("evoting failed", "err", err)
		os.Exit(1)
	}
}

func run() error {
	const f = 1
	n := 3*f + 1

	net := pbft.NewNetwork(7)
	defer net.Close()

	opts := pbft.DefaultOptions().Robust() // stringent security: no MACs, no big requests
	opts.DynamicClients = true
	cfg := &pbft.Config{Opts: opts}

	dataDir, err := os.MkdirTemp("", "evoting-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dataDir)

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

	replicas := make([]*pbft.Replica, n)
	for i := 0; i < n; i++ {
		conn, err := net.Listen(cfg.Replicas[i].Addr)
		if err != nil {
			return err
		}
		app := sqlstate.NewApp(sqlstate.Options{
			DiskDir:   fmt.Sprintf("%s/replica-%d", dataDir, i),
			Durable:   true, // a vote, once acknowledged, survives crashes
			Authorize: authorize,
			InitSQL: []string{
				"CREATE TABLE IF NOT EXISTS votes (voter TEXT, choice TEXT, ts INTEGER, receipt INTEGER)",
			},
		})
		rep, err := pbft.NewReplica(cfg, uint32(i), replicaKeys[i], conn, app)
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

	// Each voter joins with credentials, casts one ballot, and leaves.
	ballots := map[string]string{
		"alice": "fizz", "bob": "buzz", "carol": "fizz", "dave": "fizz", "erin": "buzz",
	}
	for voter, choice := range ballots {
		if err := castVote(net, cfg, voter, credentials[voter], choice); err != nil {
			return fmt.Errorf("voter %s: %w", voter, err)
		}
	}

	// A voter with bad credentials is refused by the application-level
	// authorization during the join (§3.1).
	if err := castVote(net, cfg, "mallory", "guessed", "buzz"); err == nil {
		return fmt.Errorf("mallory must not be able to vote")
	} else {
		fmt.Printf("mallory rejected: %v\n", err)
	}

	// Tally through the ordered path (linearizable).
	return tally(net, cfg)
}

// castVote joins, inserts the ballot and leaves — the client lifecycle
// of Figure 2.
func castVote(net *pbft.Network, cfg *pbft.Config, voter, password, choice string) error {
	kp, err := pbft.GenerateKeyPair(nil)
	if err != nil {
		return err
	}
	conn, err := net.Listen("voter-" + voter)
	if err != nil {
		return err
	}
	cl, err := pbft.NewDynamicClient(cfg, kp, conn, pbft.WithMaxRetries(4))
	if err != nil {
		return err
	}
	defer cl.Close()
	if err := cl.Join(context.Background(), []byte(voter+":"+password)); err != nil {
		return err
	}
	resp, err := cl.Invoke(context.Background(), sqlstate.EncodeExec(
		"INSERT INTO votes (voter, choice, ts, receipt) VALUES (?, ?, now(), random())",
		sqlstate.Text(voter), sqlstate.Text(choice)))
	if err != nil {
		return err
	}
	if _, err := sqlstate.DecodeResponse(resp); err != nil {
		return err
	}
	fmt.Printf("%s voted (session %d)\n", voter, cl.ID())
	return cl.Leave(context.Background())
}

func tally(net *pbft.Network, cfg *pbft.Config) error {
	kp, err := pbft.GenerateKeyPair(nil)
	if err != nil {
		return err
	}
	conn, err := net.Listen("auditor")
	if err != nil {
		return err
	}
	cl, err := pbft.NewDynamicClient(cfg, kp, conn)
	if err != nil {
		return err
	}
	defer cl.Close()
	if err := cl.Join(context.Background(), []byte("alice:a-pass")); err != nil { // auditors use their own credentials
		return err
	}
	for _, choice := range []string{"fizz", "buzz"} {
		resp, err := cl.Invoke(context.Background(), sqlstate.EncodeQuery(
			"SELECT count(*) AS votes FROM votes WHERE choice = ?", sqlstate.Text(choice)))
		if err != nil {
			return err
		}
		r, err := sqlstate.DecodeResponse(resp)
		if err != nil {
			return err
		}
		fmt.Printf("%s: %d votes\n", choice, r.Rows.Data[0][0].AsInt())
	}
	return nil
}
