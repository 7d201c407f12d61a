package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// suspicionRig drives one unstarted backup (replica 2 of 4; replica 0 is
// the primary of view 0, replica 1 of view 1) on a fake clock: the test
// calls its tick and message handlers directly, so every instant is exact.
type suspicionRig struct {
	t      *testing.T
	r      *Replica
	seal   *protocolDriver // sealFrom only
	now    time.Time
	step   time.Duration // tick period
	starts []trace.Event // view-change starts, in order
}

func (g *suspicionRig) OnEvent(ev trace.Event) {
	if ev.Kind == trace.EvViewChangeStart {
		g.starts = append(g.starts, ev)
	}
}

func newSuspicionRig(t *testing.T, viewChangeTimeout, status, step time.Duration) *suspicionRig {
	t.Helper()
	g := &suspicionRig{t: t, now: time.Unix(1_700_000_000, 0), step: step}
	cfg, rkeys, _ := testConfig(t, 1, 1)
	cfg.Opts.ViewChangeTimeout = viewChangeTimeout
	cfg.Opts.StatusInterval = status
	cfg.Opts.Tracer = g
	g.seal = &protocolDriver{t: t, cfg: cfg, rkeys: rkeys}
	g.r = newTestReplica(t, cfg, 2, rkeys[2])
	g.r.SetClock(func() time.Time { return g.now })
	t.Cleanup(func() { _ = g.r.Shutdown(context.Background()) })
	return g
}

// say delivers one authenticated status message from a peer.
func (g *suspicionRig) say(from uint32) {
	g.t.Helper()
	st := wire.Status{View: g.r.view, LastExec: g.r.lastExec, LastStable: g.r.lastStable, Replica: from}
	m := getInMsg(transport.Packet{Data: g.seal.sealFrom(from, wire.MTStatus, st.Marshal(), false)})
	g.r.ingress.process(m)
	if m.verdict != vDeliver {
		g.t.Fatalf("status from replica %d did not verify (verdict %d)", from, m.verdict)
	}
	g.r.handleVerified(m)
	putInMsg(m)
}

// run advances the clock by d in ticks; every talker gossips its status
// once per StatusInterval.
func (g *suspicionRig) run(d time.Duration, talkers ...uint32) {
	g.t.Helper()
	every := int(g.r.cfg.Opts.StatusInterval / g.step)
	for i := 0; i < int(d/g.step); i++ {
		g.now = g.now.Add(g.step)
		g.r.onTick()
		if i%every == 0 {
			for _, id := range talkers {
				g.say(id)
			}
		}
	}
}

// stall moves the clock with the loop absent: no tick, no message handled.
func (g *suspicionRig) stall(d time.Duration) { g.now = g.now.Add(d) }

// request hands the backup a client request the primary never orders.
func (g *suspicionRig) request() {
	req := &wire.Request{ClientID: 4, Timestamp: 1, Op: []byte("op")}
	g.r.onRequest(req, g.r.nodes.get(4), nil)
}

// quiet fails the test if a view change has started.
func (g *suspicionRig) quiet(when string) {
	g.t.Helper()
	if len(g.starts) != 0 {
		g.t.Fatalf("%s: view change started (cause %s, target %d), want none", when, g.starts[0].Cause, g.starts[0].Target)
	}
}

// fired fails the test unless exactly one view change started, for cause.
func (g *suspicionRig) fired(when string, cause trace.ViewChangeCause, target uint64) {
	g.t.Helper()
	if len(g.starts) != 1 || g.starts[0].Cause != cause || g.starts[0].Target != target {
		g.t.Fatalf("%s: view-change starts %+v, want one for view %d with cause %s", when, g.starts, target, cause)
	}
}

// TestPrimarySuspicion pins the crash-suspicion trigger and each of its
// guards. At the defaults used here (ViewChangeTimeout 2 s, StatusInterval
// 150 ms) the suspicion window is 500 ms.
func TestPrimarySuspicion(t *testing.T) {
	const ms = time.Millisecond
	cases := []struct {
		name    string
		timeout time.Duration // ViewChangeTimeout; 0 = 2 s
		status  time.Duration // StatusInterval; 0 = 150 ms
		step    time.Duration // tick period; 0 = 10 ms
		script  func(g *suspicionRig)
	}{
		{name: "pending request, silent primary, talking peers: fires after the window", script: func(g *suspicionRig) {
			g.run(300*ms, 0, 1, 3)
			g.say(0) // the primary's last word: its silence counts from here
			g.request()
			g.run(450*ms, 1, 3)
			g.quiet("450 ms of silence")
			g.run(100*ms, 1, 3)
			g.fired("550 ms of silence", trace.CausePrimarySilent, 1)
		}},
		{name: "no pending request: never", script: func(g *suspicionRig) {
			g.run(300*ms, 0, 1, 3)
			g.run(3000*ms, 1, 3)
			g.quiet("3 s of silence without a request")
		}},
		{name: "primary sends only status: the full request timer", script: func(g *suspicionRig) {
			g.run(300*ms, 0, 1, 3)
			g.say(0) // the primary's last word: its silence counts from here
			g.request()
			g.run(1950*ms, 0, 1, 3)
			g.quiet("1.95 s under a primary that only gossips")
			g.run(100*ms, 0, 1, 3)
			g.fired("2.05 s", trace.CauseRequestTimeout, 1)
		}},
		{name: "isolated replica: the full request timer", script: func(g *suspicionRig) {
			g.run(300*ms, 0, 1, 3)
			g.say(0) // the primary's last word: its silence counts from here
			g.request()
			g.run(1950 * ms)
			g.quiet("1.95 s of hearing nobody")
			g.run(100 * ms)
			g.fired("2.05 s", trace.CauseRequestTimeout, 1)
		}},
		{name: "one talking peer is not 2f", script: func(g *suspicionRig) {
			g.run(300*ms, 0, 1, 3)
			g.say(0) // the primary's last word: its silence counts from here
			g.request()
			g.run(1950*ms, 3)
			g.quiet("1.95 s with one peer talking")
		}},
		{name: "own loop stalled: the window restarts", script: func(g *suspicionRig) {
			g.run(300*ms, 0, 1, 3)
			g.say(0) // the primary's last word: its silence counts from here
			g.request()
			g.run(300*ms, 1, 3)
			g.stall(400 * ms) // the primary has now been silent for 700 ms
			g.run(450*ms, 1, 3)
			g.quiet("450 ms after the stall")
			g.run(100*ms, 1, 3)
			g.fired("550 ms after the stall", trace.CausePrimarySilent, 1)
		}},
		{name: "primary never heard: never", script: func(g *suspicionRig) {
			g.run(300*ms, 1, 3)
			g.request()
			g.run(1950*ms, 1, 3)
			g.quiet("1.95 s under a primary that was never heard")
		}},
		{name: "right after an install: the new primary gets its own window", script: func(g *suspicionRig) {
			g.run(300*ms, 0, 1, 3)
			g.say(0) // the primary's last word: its silence counts from here
			g.request()
			g.say(1)
			g.run(600*ms, 0, 3) // replica 1, a backup still, goes quiet
			g.r.installNewView(&wire.NewView{View: 1}, nil)
			g.run(450*ms, 0, 3)
			g.quiet("450 ms after the install")
			g.run(100*ms, 0, 3)
			g.fired("550 ms after the install", trace.CausePrimarySilent, 2)
		}},
		{name: "ViewChangeTimeout 1 h: not before 15 min", timeout: time.Hour, status: time.Minute, step: 20 * time.Second, script: func(g *suspicionRig) {
			g.run(3*time.Minute, 0, 1, 3)
			g.say(0) // the primary's last word: its silence counts from here
			g.request()
			g.run(15*time.Minute-20*time.Second, 1, 3)
			g.quiet("14 min 40 s of silence")
			g.run(40*time.Second, 1, 3)
			g.fired("15 min 20 s of silence", trace.CausePrimarySilent, 1)
		}},
		{name: "ViewChangeTimeout 0 disables both triggers", timeout: -1, script: func(g *suspicionRig) {
			g.run(300*ms, 0, 1, 3)
			g.say(0) // the primary's last word: its silence counts from here
			g.request()
			g.run(5000*ms, 1, 3)
			g.quiet("5 s of silence with the timer disabled")
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			timeout, status, step := tc.timeout, tc.status, tc.step
			switch {
			case timeout == 0:
				timeout = 2 * time.Second
			case timeout < 0:
				timeout = 0
			}
			if status == 0 {
				status = 150 * ms
			}
			if step == 0 {
				step = 10 * ms
			}
			tc.script(newSuspicionRig(t, timeout, status, step))
		})
	}
}
