package sqlstate_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/sqlstate"
)

// Cluster-level tests of the span flush contract: four replicas over the
// in-memory network, each SQL application's disk image on an injected
// HookDisk.

func flushClusterOpts() core.Options {
	o := core.DefaultOptions()
	o.CheckpointInterval = 8
	o.StateSize = 1 << 20
	o.StatusInterval = 50 * time.Millisecond
	o.HelloInterval = 100 * time.Millisecond
	// Nothing here may retransmit or change view while a test holds a
	// persist open.
	o.RequestTimeout = 5 * time.Second
	o.ViewChangeTimeout = 10 * time.Second
	return o
}

func diskFactory(disks []*sqlstate.HookDisk) harness.AppFactory {
	return func(id uint32) core.Application {
		return sqlstate.NewAppOnDisk(sqlstate.Options{InitSQL: harness.VotesSchema}, disks[id])
	}
}

func insertVote(voter string) []byte {
	return sqlstate.EncodeExec("INSERT INTO votes (voter, vote, ts, rnd) VALUES (?, 'y', now(), random())", sqlstate.Text(voter))
}

// TestSpanFlushRepliesWaitForPersist: with every replica's image fsync
// parked on a channel, the span that holds an insert has executed
// everywhere — and no reply for it, tentative or committed, has left any
// replica. Releasing the fsync releases the replies.
func TestSpanFlushRepliesWaitForPersist(t *testing.T) {
	for _, tentative := range []bool{true, false} {
		t.Run(fmt.Sprintf("tentative=%v", tentative), func(t *testing.T) {
			var hold atomic.Bool
			gate := make(chan struct{})
			entered := make(chan uint32, 64) // never blocks a replica
			disks := make([]*sqlstate.HookDisk, 4)
			for id := range disks {
				id := uint32(id)
				disks[id] = sqlstate.NewHookDisk()
				disks[id].SetHook(func(file, op string) error {
					if hold.Load() && file == "state.db.image" && op == "sync" {
						entered <- id
						<-gate
					}
					return nil
				})
			}
			o := flushClusterOpts()
			o.TentativeExecution = tentative
			c, err := harness.NewCluster(harness.ClusterOptions{Opts: o, NumClients: 1, Seed: 5, App: diskFactory(disks)})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Stop()
			// A failing assertion must not leave the replicas
			// parked where Stop would wait for them.
			release := sync.OnceFunc(func() { hold.Store(false); close(gate) })
			defer release()
			cl, err := c.Client(0)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			if _, err := cl.Invoke(context.Background(), insertVote("warm")); err != nil {
				t.Fatal(err)
			}
			if !c.WaitConverged(1, 5*time.Second) {
				t.Fatal("warm-up did not converge")
			}
			toClient := func() (n uint64) {
				for id := uint32(0); id < 4; id++ {
					n += c.Net.LinkStats(harness.ReplicaAddr(id), harness.ClientAddr(0)).Packets
				}
				return n
			}
			// The warm-up call completed on a quorum; the last
			// replica's reply to it may still be on its way, and
			// must not be counted against the held insert below.
			for deadline := time.Now().Add(5 * time.Second); toClient() < 4; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("only %d warm-up replies reached the client", toClient())
				}
			}

			hold.Store(true)
			before := toClient()
			call := cl.Submit(context.Background(), insertVote("held"))
			for seen := 0; seen < 4; seen++ {
				select {
				case <-entered:
				case <-time.After(5 * time.Second):
					t.Fatalf("only %d replicas reached the span's image fsync", seen)
				}
			}
			// Every replica executed the insert and sits in its
			// persist. Give a reply that ignored the persist time to
			// show up.
			time.Sleep(50 * time.Millisecond)
			select {
			case <-call.Done():
				t.Fatal("the call completed while every persist was still running")
			default:
			}
			if got := toClient(); got != before {
				t.Fatalf("%d packets reached the client before any persist returned", got-before)
			}
			release()
			reply, err := call.Result()
			if err != nil {
				t.Fatal(err)
			}
			if r, err := sqlstate.DecodeResponse(reply); err != nil || r.Result.RowsAffected != 1 {
				t.Fatalf("held insert answered %+v, %v", r, err)
			}
		})
	}
}

// TestSpanFlushDiskErrorDoesNotForkState: one replica's disk starts
// failing image fsyncs mid-run. Its replicated state must stay
// byte-identical to the others' — the stable digests agree and it never
// needs a state transfer — its clients see no error, and the failure
// shows up as exactly one PersistErrors count with the image abandoned.
func TestSpanFlushDiskErrorDoesNotForkState(t *testing.T) {
	const sick = 2
	var failing atomic.Bool
	disks := make([]*sqlstate.HookDisk, 4)
	for id := range disks {
		disks[id] = sqlstate.NewHookDisk()
	}
	disks[sick].SetHook(func(file, op string) error {
		if failing.Load() && op == "sync" {
			return errors.New("EIO")
		}
		return nil
	})
	c, err := harness.NewCluster(harness.ClusterOptions{Opts: flushClusterOpts(), NumClients: 1, Seed: 6, App: diskFactory(disks)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	cl, err := c.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 20; i++ {
		if i == 5 {
			// Image flushes run off the protocol loop: wait for the sick
			// replica's first one, or it could break before it flushes
			// at all.
			for deadline := time.Now().Add(10 * time.Second); c.Replicas[sick].Info().Stats.ImageFlushes < 1; {
				if time.Now().After(deadline) {
					t.Fatalf("replica %d flushed no image before its disk broke", sick)
				}
				time.Sleep(5 * time.Millisecond)
			}
			failing.Store(true)
		}
		reply, err := cl.Invoke(context.Background(), insertVote(fmt.Sprint("v", i)))
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if r, err := sqlstate.DecodeResponse(reply); err != nil || r.Result.RowsAffected != 1 {
			t.Fatalf("insert %d answered %+v, %v", i, r, err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	var infos [4]core.Info
	for {
		stable := true
		for id := range infos {
			infos[id] = c.Replicas[id].Info()
			stable = stable && infos[id].LastStable >= 16
		}
		if stable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replicas never reached stable checkpoint 16: %+v", infos)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for id, info := range infos {
		if info.LastStable == infos[0].LastStable && info.StableDigest != infos[0].StableDigest {
			t.Fatalf("replica %d stable digest diverged at seq %d", id, info.LastStable)
		}
		if info.Stats.StateTransfers != 0 {
			t.Fatalf("replica %d needed a state transfer: its state had forked", id)
		}
		want := uint64(0)
		if id == sick {
			want = 1
		}
		if info.Stats.PersistErrors != want {
			t.Fatalf("replica %d reports %d persist errors, want %d", id, info.Stats.PersistErrors, want)
		}
		if !info.Stats.ImageNow || info.Stats.ImageFlushes == 0 {
			t.Fatalf("replica %d reports no image flushes: %+v", id, info.Stats)
		}
	}
	if infos[sick].Stats.ImageFlushes >= infos[0].Stats.ImageFlushes {
		t.Fatalf("the abandoned image kept flushing: %d flushes vs %d on a healthy replica",
			infos[sick].Stats.ImageFlushes, infos[0].Stats.ImageFlushes)
	}
}
