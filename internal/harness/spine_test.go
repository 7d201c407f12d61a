package harness

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/trace"
)

// spineProbe holds one replica incarnation's view of the event spine:
// every event its tracer received, plus its flight recorder.
type spineProbe struct {
	rec *trace.Recorder

	mu     sync.Mutex
	events []trace.Event
}

func (p *spineProbe) OnEvent(ev trace.Event) {
	p.mu.Lock()
	p.events = append(p.events, ev)
	p.mu.Unlock()
}

func (p *spineProbe) snapshot() []trace.Event {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]trace.Event(nil), p.events...)
}

// spineRingKinds are the kinds the flight ring keeps from the emit
// stream; batch, commit and the session kinds go to the tracer only.
var spineRingKinds = map[string]bool{
	"view_change_start": true, "view_change_install": true,
	"checkpoint": true, "checkpoint_stable": true,
	"state_transfer_start": true, "state_transfer_finish": true, "state_transfer_abort": true,
}

// spineMirrors pairs each Stats counter emit maintains with its kind.
var spineMirrors = []struct {
	kind trace.EventKind
	stat func(core.Stats) uint64
}{
	{trace.EvBatch, func(s core.Stats) uint64 { return s.Batches }},
	{trace.EvCheckpoint, func(s core.Stats) uint64 { return s.Checkpoints }},
	{trace.EvCheckpointStable, func(s core.Stats) uint64 { return s.StableCkpts }},
	{trace.EvViewChangeStart, func(s core.Stats) uint64 { return s.ViewChanges }},
	{trace.EvStateTransferStart, func(s core.Stats) uint64 { return s.StateTransfers }},
	{trace.EvSessionJoin, func(s core.Stats) uint64 { return s.JoinsExecuted }},
	{trace.EvSessionLeave, func(s core.Stats) uint64 { return s.LeavesExecuted }},
	{trace.EvSessionEvict, func(s core.Stats) uint64 { return s.SessionsEvicted }},
}

// disagreement compares the three surfaces of one replica and returns
// "" when they agree event for event: the flight ring (drop events,
// which ingress records off the loop, aside) against the tracer stream
// restricted to the ring's kinds, and every mirrored Stats counter
// against the tracer's count of its kind.
func (p *spineProbe) disagreement(rep *core.Replica) string {
	stats := rep.Info().Stats
	ring := p.rec.Dump().Events
	events := p.snapshot()

	line := func(kind string, view, seq, target uint64) string {
		return fmt.Sprintf("%s view=%d seq=%d target=%d", kind, view, seq, target)
	}
	var fromTracer, fromRing []string
	counts := make(map[trace.EventKind]uint64)
	for _, ev := range events {
		counts[ev.Kind]++
		if spineRingKinds[ev.Kind.String()] {
			fromTracer = append(fromTracer, line(ev.Kind.String(), ev.View, ev.Seq, ev.Target))
		}
	}
	for _, e := range ring {
		switch e.Kind {
		case "drop_bad_auth", "drop_malformed", "drop_ignored":
		default:
			fromRing = append(fromRing, line(e.Kind, e.View, e.Seq, e.Target))
		}
	}
	if len(fromTracer) != len(fromRing) {
		return fmt.Sprintf("ring holds %d events, tracer saw %d of the ring's kinds\nring:   %v\ntracer: %v",
			len(fromRing), len(fromTracer), fromRing, fromTracer)
	}
	for i := range fromRing {
		if fromRing[i] != fromTracer[i] {
			return fmt.Sprintf("event %d: ring %q, tracer %q", i, fromRing[i], fromTracer[i])
		}
	}
	for _, m := range spineMirrors {
		if got, want := m.stat(stats), counts[m.kind]; got != want {
			return fmt.Sprintf("Stats counter for %s = %d, tracer saw %d", m.kind, got, want)
		}
	}
	return ""
}

// TestEventSpineSurfacesAgree drives one cluster through every kind of
// transition the spine reports — join, checkpoint, eviction, view
// change, state transfer, leave — and after each step asserts that the
// tracer stream, the flight ring and the mirrored Stats counters of
// every live replica agree event for event.
func TestEventSpineSurfacesAgree(t *testing.T) {
	o := fastOpts()
	o.DynamicClients = true
	o.ViewChangeTimeout = 600 * time.Millisecond
	probes := make(map[uint32]*spineProbe)
	var mu sync.Mutex
	probe := func(id uint32) *spineProbe {
		mu.Lock()
		defer mu.Unlock()
		return probes[id]
	}
	c, err := NewCluster(ClusterOptions{
		Opts: o,
		Seed: 98,
		App:  NewAuthCounterFactory(),
		Tracer: func(id uint32) core.Tracer {
			// The tracer factory runs first for each (re)started replica:
			// a restart replaces the entry — fresh incarnation, fresh
			// Stats, fresh probe.
			p := &spineProbe{}
			mu.Lock()
			probes[id] = p
			mu.Unlock()
			return p
		},
		Recorder: func(id uint32) *trace.Recorder {
			p := probe(id)
			p.rec = trace.New(trace.Config{Replica: int(id), Events: 4096}) // never wraps here
			return p.rec
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	join := func(addr string) *client.Client {
		cl, err := c.DynamicClient(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		if err := cl.Join(context.Background(), []byte("alice:sesame")); err != nil {
			t.Fatalf("join %s: %v", addr, err)
		}
		return cl
	}
	var cl *client.Client
	steps := []struct {
		name  string
		drive func()
		// want are kinds some live replica's tracer must have seen once
		// the step is done.
		want []trace.EventKind
	}{
		{"join and checkpoint", func() {
			cl = join("spine-a")
			for i := uint64(0); i < o.CheckpointInterval+2; i++ {
				invokeMust(t, cl, "inc")
			}
		}, []trace.EventKind{trace.EvSessionJoin, trace.EvBatch, trace.EvCommit, trace.EvCheckpoint, trace.EvCheckpointStable}},
		{"evict by principal rejoin", func() {
			cl = join("spine-b") // same principal: the first session is evicted
			invokeMust(t, cl, "inc")
		}, []trace.EventKind{trace.EvSessionEvict}},
		{"view change", func() {
			c.StopReplica(0) // primary of view 0
			for i := 0; i < 3; i++ {
				invokeMust(t, cl, "inc")
			}
		}, []trace.EventKind{trace.EvViewChangeStart, trace.EvViewChangeInstall}},
		{"state transfer", func() {
			if err := c.RestartReplica(0); err != nil {
				t.Fatal(err)
			}
			for i := uint64(0); i < o.CheckpointInterval+4; i++ {
				invokeMust(t, cl, "inc")
			}
			// The fix the spine carries: an installed transfer reports
			// its stable checkpoint to the flight ring too, right
			// behind the finish.
			deadline := time.Now().Add(10 * time.Second)
			for {
				ring := probe(0).rec.Dump().Events
				for i, e := range ring {
					if e.Kind != "state_transfer_finish" {
						continue
					}
					if i+1 < len(ring) && ring[i+1].Kind == "checkpoint_stable" && ring[i+1].Seq == e.Seq {
						return
					}
					if i+1 < len(ring) {
						t.Fatalf("ring: %+v follows the transfer finish %+v, want its checkpoint_stable", ring[i+1], e)
					}
				}
				if time.Now().After(deadline) {
					t.Fatalf("restarted replica never finished a state transfer; ring: %+v", ring)
				}
				time.Sleep(10 * time.Millisecond)
			}
		}, []trace.EventKind{trace.EvStateTransferStart, trace.EvStateTransferFinish}},
		{"leave", func() {
			if err := cl.Leave(context.Background()); err != nil {
				t.Fatal(err)
			}
		}, []trace.EventKind{trace.EvSessionLeave}},
	}
	for _, step := range steps {
		step.drive()
		// Trailing events (a checkpoint vote still in flight, a backup's
		// own execution) may land while the surfaces are being read:
		// agreement must be reached, and hold, within the deadline.
		deadline := time.Now().Add(5 * time.Second)
		for id, rep := range c.Replicas {
			if rep == nil {
				continue
			}
			for {
				diff := probe(uint32(id)).disagreement(rep)
				if diff == "" {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("after %q, replica %d: %s", step.name, id, diff)
				}
				time.Sleep(10 * time.Millisecond)
			}
		}
		for _, kind := range step.want {
			seen := false
			for id, rep := range c.Replicas {
				if rep == nil {
					continue
				}
				for _, ev := range probe(uint32(id)).snapshot() {
					seen = seen || ev.Kind == kind
				}
			}
			if !seen {
				t.Fatalf("after %q: no live replica's tracer saw %s", step.name, kind)
			}
		}
	}
}
