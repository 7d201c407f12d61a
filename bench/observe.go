package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/transport"
)

// counters is a point-in-time reading of every cumulative counter the
// closed phase is measured by; metrics are differences of two readings.
type counters struct {
	cpu     time.Duration // user+system, whole process
	mem     runtime.MemStats
	net     transport.Stats
	info    []core.Info // per replica; zero value for a stopped replica
	sends   int64       // traced: replica 0 Send/Broadcast calls
	sendNs  int64       // traced: time inside them
	diskOut int64       // /proc/self/io write_bytes (0 where unavailable)
}

func readCounters(c *harness.Cluster, tr *tracing) counters {
	out := counters{cpu: cpuTime(), net: c.Net.Stats(), diskOut: procWriteBytes()}
	runtime.ReadMemStats(&out.mem)
	out.info = make([]core.Info, len(c.Replicas))
	for i, r := range c.Replicas {
		if r != nil {
			out.info[i] = r.Info()
		}
	}
	if tr != nil {
		out.sends, out.sendNs = tr.conn.calls.Load(), tr.conn.busyNs.Load()
	}
	return out
}

// procWriteBytes reads the bytes this process caused to be sent to storage
// (Linux). Elsewhere, or when the file is unreadable, it is 0.
func procWriteBytes() int64 {
	raw, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "write_bytes: "); ok {
			n, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			return n
		}
	}
	return 0
}

// gauges are the Info() fields that are levels, not counters: sampled every
// 100 ms during the closed phase.
type gauges struct {
	samples        int
	batchWindowSum int
	ingressMax     int
	execQueueMax   int
	goroutinesMax  int
}

// sample polls the live replicas until stop closes. It runs on its own
// goroutine only while nothing restarts replicas.
func (g *gauges) sample(c *harness.Cluster, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		g.goroutinesMax = max(g.goroutinesMax, runtime.NumGoroutine())
		for _, r := range c.Replicas {
			if r == nil {
				continue
			}
			info := r.Info()
			if c.Cfg.Primary(info.View) == r.ID() {
				g.samples++
				g.batchWindowSum += info.BatchWindow
			}
			g.ingressMax = max(g.ingressMax, info.IngressBacklog)
			g.execQueueMax = max(g.execQueueMax, info.ExecQueueDepth)
		}
	}
}

// faultReport is what the primary_crash script observed, all relative to
// the instants it acted at.
type faultReport struct {
	killedAt     time.Time
	detect       time.Duration // kill -> first backup in view change
	viewChange   time.Duration // detect -> new view installed on every live replica
	catchUp      time.Duration // restart -> within one checkpoint interval of the group
	recoveryDisk time.Duration // Stats.RecoveryNanos of the restarted replica
	pagesFetched uint64
	err          error
}

// crashPrimary is the fault script: stop replica 0 (the primary of view 0)
// at killAt, restart it at restartAt, both measured from the call, and poll
// the replicas' public Info for the protocol's reaction. It owns
// c.Replicas while it runs.
func crashPrimary(c *harness.Cluster, killAt, restartAt time.Duration, restart func() error) (rep faultReport) {
	begin := time.Now()
	// await polls cond every 2 ms; a reaction that takes 30 s is a failure.
	await := func(what string, cond func() bool) bool {
		for limit := time.Now().Add(30 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
			if time.Now().After(limit) {
				rep.err = fmt.Errorf("fault script: %s", what)
				return false
			}
		}
		return true
	}

	time.Sleep(killAt)
	c.StopReplica(0)
	rep.killedAt = time.Now()
	backups := c.Replicas[1:]

	if !await("no backup started a view change", func() bool {
		for _, r := range backups {
			if info := r.Info(); info.InViewChange || info.View > 0 {
				return true
			}
		}
		return false
	}) {
		return rep
	}
	rep.detect = time.Since(rep.killedAt)
	if !await("the new view was not installed", func() bool {
		for _, r := range backups {
			if info := r.Info(); info.View == 0 || info.InViewChange {
				return false
			}
		}
		return true
	}) {
		return rep
	}
	rep.viewChange = time.Since(rep.killedAt) - rep.detect

	time.Sleep(time.Until(begin.Add(restartAt)))
	restarted := time.Now()
	if rep.err = restart(); rep.err != nil {
		return rep
	}
	interval := c.Cfg.Opts.CheckpointInterval
	var caughtUp core.Info
	if !await("the restarted replica did not catch up", func() bool {
		var frontier uint64
		for _, r := range backups {
			frontier = max(frontier, r.Info().LastExec)
		}
		caughtUp = c.Replicas[0].Info()
		return caughtUp.LastExec+interval >= frontier && !caughtUp.Stats.SyncingNow
	}) {
		return rep
	}
	rep.catchUp = time.Since(restarted)
	rep.recoveryDisk = time.Duration(caughtUp.Stats.RecoveryNanos)
	rep.pagesFetched = caughtUp.Stats.PagesFetched
	return rep
}
