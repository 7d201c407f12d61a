package metrics

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"repro/pbft"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current exposition")

// goldenClock is the registry clock the golden registries run on: the
// view-change duration histogram is the only series that reads time.
type goldenClock struct{ t time.Time }

func (c *goldenClock) at(ms int) {
	c.t = time.Unix(1_700_000_000, 0).Add(time.Duration(ms) * time.Millisecond)
}

// feedGolden drives every event kind through the registry. The golden
// files were captured at the commit before the one-method Tracer, with
// this function feeding the same events through the six per-kind hooks;
// nothing else in the test differed.
func feedGolden(sink *Metrics, clk *goldenClock) {
	for r := uint32(0); r < 2; r++ {
		for i, n := range []int{1, 3, 16, 200} {
			sink.OnEvent(pbft.Event{Kind: pbft.EvBatch, Replica: r, View: 0, Seq: uint64(i + 1), Count: uint64(n), Tentative: i%2 == 1})
			sink.OnEvent(pbft.Event{Kind: pbft.EvCommit, Replica: r, View: 0, Seq: uint64(i + 1)})
		}
		sink.OnEvent(pbft.Event{Kind: pbft.EvCheckpoint, Replica: r, Seq: 8})
		sink.OnEvent(pbft.Event{Kind: pbft.EvCheckpointStable, Replica: r, Seq: 8})
		sink.OnEvent(pbft.Event{Kind: pbft.EvCheckpoint, Replica: r, Seq: 16})
	}
	// Replica 1: a cascade (two starts, one install 40 ms after the
	// first start). Replica 0: an install without a start (a jump into
	// a proven view) that must not produce a duration sample.
	clk.at(0)
	sink.OnEvent(pbft.Event{Kind: pbft.EvViewChangeStart, Replica: 1, View: 0, Target: 1})
	clk.at(25)
	sink.OnEvent(pbft.Event{Kind: pbft.EvViewChangeStart, Replica: 1, View: 0, Target: 2})
	clk.at(40)
	sink.OnEvent(pbft.Event{Kind: pbft.EvViewChangeInstall, Replica: 1, View: 2, Target: 2})
	sink.OnEvent(pbft.Event{Kind: pbft.EvViewChangeInstall, Replica: 0, View: 2, Target: 2})

	sink.OnEvent(pbft.Event{Kind: pbft.EvStateTransferStart, Replica: 0, Seq: 8})
	sink.OnEvent(pbft.Event{Kind: pbft.EvStateTransferStart, Replica: 0, Seq: 16})
	sink.OnEvent(pbft.Event{Kind: pbft.EvStateTransferFinish, Replica: 0, Seq: 16, Count: 12})
	sink.OnEvent(pbft.Event{Kind: pbft.EvStateTransferStart, Replica: 1, Seq: 16})
	sink.OnEvent(pbft.Event{Kind: pbft.EvStateTransferAbort, Replica: 1, Seq: 16})
	for i := 0; i < 3; i++ {
		sink.OnEvent(pbft.Event{Kind: pbft.EvSessionHello, Replica: 0, ClientID: uint32(4 + i)})
	}
	sink.OnEvent(pbft.Event{Kind: pbft.EvSessionJoin, Replica: 0, ClientID: 9})
	sink.OnEvent(pbft.Event{Kind: pbft.EvSessionJoin, Replica: 0, ClientID: 10})
	sink.OnEvent(pbft.Event{Kind: pbft.EvSessionLeave, Replica: 0, ClientID: 9})
	sink.OnEvent(pbft.Event{Kind: pbft.EvSessionEvict, Replica: 0, ClientID: 10})

	for r := uint32(0); r < 2; r++ {
		sink.ObservePhase(r, pbft.PhaseVerifyDone, 3*time.Microsecond)
		sink.ObservePhase(r, pbft.PhaseCommitQuorum, 700*time.Microsecond)
		sink.ObservePhase(r, pbft.PhaseReplySent, 5*time.Second) // overflow bucket
		sink.ObservePhase(r, pbft.PhaseEndToEnd, 1234567*time.Nanosecond)
	}
	sink.ObservePhase(1, pbft.PhaseExecDone, 42*time.Microsecond)
}

// goldenInfo is a diskless replica's gauges, every field distinct.
func goldenInfo(id uint32) func() pbft.ReplicaInfo {
	return func() pbft.ReplicaInfo {
		n := uint64(id) * 100
		info := pbft.ReplicaInfo{
			View: 2, LastExec: n + 17, LastStable: n + 16,
			ExecQueueDepth: int(n) + 5, IngressBacklog: int(n) + 7,
			BatchWindow: 64, ClientSessions: int(id) + 3,
		}
		info.Stats.DroppedBadAuth = n + 11
		info.Stats.DroppedMalformed = n + 13
		info.Stats.DroppedIgnored = 12345678 // past %g's exponent threshold
		info.Stats.RejectedNonDet = n + 2
		info.Stats.ConflictingPrePrepares = n + 1
		info.Stats.DroppedForgedJoins = n + 3
		return info
	}
}

func goldenTransport(id uint32) func() pbft.BatchStats {
	return func() pbft.BatchStats {
		n := uint64(id) + 1
		return pbft.BatchStats{
			RecvCalls: 1000 * n, RecvMsgs: 12345678 * n, // datagram sums past %g's exponent threshold
			SendCalls: 2000 * n, SendMsgs: 2500 * n,
			RecvOccupancy: [5]uint64{10 * n, 20 * n, 30 * n, 40 * n, 900 * n},
			SendOccupancy: [5]uint64{1500 * n, 400 * n, 100 * n, 0, 0},
		}
	}
}

func goldenDurable(info pbft.ReplicaInfo) pbft.ReplicaInfo {
	info.Stats.DurableNow = true
	info.Stats.Restarts = 2
	info.Stats.RecoveryNanos = 1_500_000_000
	info.Stats.WALFsyncs = 7
	info.Stats.WALBytes = 123456789012
	info.Stats.WALCheckpoints = 1
	info.Stats.PersistErrors++
	return info
}

func goldenImage(info pbft.ReplicaInfo) pbft.ReplicaInfo {
	info.Stats.ImageNow = true
	info.Stats.ImageFlushes = 5
	info.Stats.ImageFlushPages = 17
	info.Stats.ImageFlushNanos = 2_500_000
	info.Stats.PersistErrors += 2
	return info
}

func newGoldenRegistry() (*Metrics, *goldenClock) {
	clk := &goldenClock{}
	m := New()
	m.now = func() time.Time { return clk.t }
	return m, clk
}

// TestGoldenExposition pins the Prometheus text exposition byte for
// byte: a plain registry, one with durable replicas and one with
// disk-image replicas, plus the client registry.
// Run with -update to rewrite the files after an intended change.
func TestGoldenExposition(t *testing.T) {
	cases := map[string]func() []byte{
		"empty": func() []byte {
			m, _ := newGoldenRegistry()
			return render(m.WritePrometheus)
		},
		"single_group": func() []byte {
			m, clk := newGoldenRegistry()
			feedGolden(m, clk)
			m.AddReplica(0, goldenInfo(0))
			m.AddReplica(1, goldenInfo(1))
			m.AddTransport(0, goldenTransport(0))
			m.AddTransport(1, goldenTransport(1))
			return render(m.WritePrometheus)
		},
		"durable": func() []byte {
			m, clk := newGoldenRegistry()
			feedGolden(m, clk)
			m.AddReplica(0, goldenInfo(0))
			m.AddReplica(1, func() pbft.ReplicaInfo { return goldenDurable(goldenInfo(1)()) })
			m.AddReplica(2, func() pbft.ReplicaInfo { return goldenDurable(goldenInfo(2)()) })
			return render(m.WritePrometheus)
		},
		"image_flush": func() []byte {
			m, clk := newGoldenRegistry()
			feedGolden(m, clk)
			m.AddReplica(0, goldenInfo(0))
			m.AddReplica(1, func() pbft.ReplicaInfo { return goldenImage(goldenInfo(1)()) })
			m.AddReplica(2, func() pbft.ReplicaInfo { return goldenImage(goldenDurable(goldenInfo(2)())) })
			return render(m.WritePrometheus)
		},
		"udp_only": func() []byte {
			m, _ := newGoldenRegistry()
			m.AddTransport(0, goldenTransport(0))
			m.AddTransport(1, goldenTransport(1))
			return render(m.WriteUDPStats)
		},
		"client": func() []byte {
			c := NewClient()
			c.Observe(2*time.Millisecond, nil)
			c.Observe(300*time.Millisecond, errors.New("boom"))
			c.Observe(9*time.Second, nil) // overflow bucket
			return render(c.WritePrometheus)
		},
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			got := build()
			path := filepath.Join("testdata", name+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("exposition differs from %s (rerun with -update if intended)\n%s", path, firstDiff(got, want))
			}
		})
	}
}

func render(write func(w io.Writer)) []byte {
	var b bytes.Buffer
	write(&b)
	return b.Bytes()
}

// firstDiff reports the first differing line of two expositions.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl []byte
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if !bytes.Equal(gl, wl) {
			return "line " + strconv.Itoa(i+1) + ":\n  got:  " + string(gl) + "\n  want: " + string(wl)
		}
	}
	return "no line differs"
}
