package main

import (
	"fmt"
	"sort"

	"repro/internal/trace"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// quantile returns the q-quantile of sorted values by linear interpolation
// (0 for an empty list).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (sorted[lo+1]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// throughputWindows is how many equal windows the closed phase is cut into;
// throughput_ops_s is the median window, so one stall (a GC cycle, a slow
// fsync) does not move it.
const throughputWindows = 8

// summarize turns a run's observations into the result line. End-to-end
// metrics come from the untraced run, per-layer metrics from the traced one.
func summarize(ob *observed) result {
	w := ob.cfg.w
	var (
		openLat     []float64 // ms, successful open-phase requests
		openDone    []int64
		openAll     int
		overLimit   int
		closedOK    int
		closedDone  []int64
		attempted   int
		failedCalls int
	)
	limitMs := 10 * w.seedP50ms
	for _, s := range ob.samples {
		if s.phase == phaseWarm {
			continue
		}
		attempted++
		if !s.ok {
			failedCalls++
		}
		switch s.phase {
		case phaseOpen:
			openAll++
			lat := float64(s.done-s.start) / 1e6
			if !s.ok || lat > limitMs {
				overLimit++
			}
			if s.ok {
				openLat = append(openLat, lat)
				openDone = append(openDone, s.done)
			}
		case phaseClosed:
			if s.ok {
				closedOK++
				closedDone = append(closedDone, s.done)
			}
		}
	}
	sort.Float64s(openLat)

	res := result{
		Correct:   ob.wrong == 0 && ob.digestErr == nil && ob.verifyErr == nil,
		Attempted: attempted,
		Failed:    failedCalls,
		Metrics:   map[string]metric{},
	}
	if !res.Correct {
		// Numbers of an incorrect run must not be used by anyone.
		return res
	}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }

	// Throughput: the median of equal windows of the closed phase.
	span := int64(ob.plan.closed)
	perWindow := make([]float64, throughputWindows)
	for _, d := range closedDone {
		k := (d - ob.closedFrom) * throughputWindows / span
		if k >= 0 && k < throughputWindows {
			perWindow[k]++
		}
	}
	windowS := ob.plan.closed.Seconds() / throughputWindows
	for i := range perWindow {
		perWindow[i] /= windowS
	}
	closedS := float64(ob.closedTo-ob.closedFrom) / 1e9
	ops := float64(closedOK)

	if !ob.cfg.traced {
		put("setup_s", "s", median(ob.setupS))
		put("lat_p50_ms", "ms", quantile(openLat, 0.5))
		put("lat_p90_ms", "ms", quantile(openLat, 0.9))
		put("throughput_ops_s", "ops/s", median(perWindow))
		put("cpu_ms_per_op", "ms", ratio(float64((ob.after.cpu-ob.before.cpu).Microseconds())/1e3, ops))
		return res
	}

	// client: the load generator's own view.
	put("client.lat_p99_ms", "ms", quantile(openLat, 0.99))
	put("client.lat_p999_ms", "ms", quantile(openLat, 0.999))
	put("client.lat_max_ms", "ms", quantile(openLat, 1))
	put("client.samples", "count", float64(len(openLat)))
	lag := make([]float64, len(ob.lagNs))
	for i, v := range ob.lagNs {
		lag[i] = float64(v) / 1e6
	}
	sort.Float64s(lag)
	put("client.sched_lag_p99_ms", "ms", quantile(lag, 0.99))
	put("client.over_limit_share", "ratio", ratio(float64(overLimit), float64(openAll)))
	put("client.outage_ms", "ms", outageMs(openDone, ob.killNs))
	put("client.closed_mean_ops_s", "ops/s", ratio(ops, closedS))

	tr := ob.tr
	nrep := tr.replicas
	clientPhase := func(p trace.Phase) float64 {
		return quantile(sortedCopy(tr.sink.samples(p, nrep, len(tr.sink.shards))), 0.5) / 1e3
	}
	put("client.phase.sealed_p50_us", "us", clientPhase(trace.ClientSealed))
	put("client.phase.first_send_p50_us", "us", clientPhase(trace.ClientFirstSend))
	put("client.phase.complete_p50_us", "us", clientPhase(trace.ClientComplete))

	// transport: the mem network's counters and replica 0's sends.
	put("transport.packets_per_op", "count", ratio(float64(ob.after.net.Packets-ob.before.net.Packets), ops))
	put("transport.bytes_per_op", "B", ratio(float64(ob.after.net.Bytes-ob.before.net.Bytes), ops))
	put("transport.dropped", "count", float64(ob.after.net.Dropped))
	put("transport.send_calls_per_op", "count", ratio(float64(ob.after.sends-ob.before.sends), ops))
	put("transport.send_busy_share", "ratio", ratio(float64(ob.after.sendNs-ob.before.sendNs)/1e9, closedS))

	// core: counters of the primary (deltas over the closed phase), totals
	// over the whole run for the ones that must stay at a fixed value.
	primary := 0
	var viewChanges, transfers, badAuth, walFsyncs, walBytes uint64
	for i, in := range ob.after.info {
		if int(in.View%uint64(len(ob.after.info))) == i {
			primary = i
		}
		viewChanges = max(viewChanges, in.Stats.ViewChanges)
		transfers += in.Stats.StateTransfers
		badAuth += in.Stats.DroppedBadAuth
		walFsyncs += in.Stats.WALFsyncs - ob.before.info[i].Stats.WALFsyncs
		walBytes += in.Stats.WALBytes - ob.before.info[i].Stats.WALBytes
	}
	pa, pb := ob.after.info[primary].Stats, ob.before.info[primary].Stats
	put("core.batch_size_mean", "count", ratio(float64(pa.Executed-pb.Executed), float64(pa.Batches-pb.Batches)))
	put("core.batch_window_mean", "count", ratio(float64(ob.gauges.batchWindowSum), float64(ob.gauges.samples)))
	put("core.ingress_backlog_max", "count", float64(ob.gauges.ingressMax))
	put("core.exec_queue_depth_max", "count", float64(ob.gauges.execQueueMax))
	put("core.view_changes", "count", float64(viewChanges))
	put("core.state_transfers", "count", float64(transfers))
	put("core.dropped_bad_auth", "count", float64(badAuth))
	put("core.stable_checkpoints", "count", float64(pa.StableCkpts-pb.StableCkpts))
	replicas := float64(len(ob.after.info))
	put("core.wal_fsyncs_per_op", "count", ratio(float64(walFsyncs)/replicas, ops))
	put("core.wal_bytes_per_op", "B", ratio(float64(walBytes)/replicas, ops))

	// core fault: what the crash script saw (zero on workloads without one).
	put("core.detect_ms", "ms", float64(ob.fault.detect.Microseconds())/1e3)
	put("core.view_change_ms", "ms", float64(ob.fault.viewChange.Microseconds())/1e3)
	put("core.catchup_ms", "ms", float64(ob.fault.catchUp.Microseconds())/1e3)
	put("core.recovery_disk_ms", "ms", float64(ob.fault.recoveryDisk.Microseconds())/1e3)
	put("core.pages_fetched", "count", float64(ob.fault.pagesFetched))

	// core phases: the replicas' flight recorders, closed phase only. A
	// segment is attributed to the phase that ENDS it, so the first phase a
	// replica stamps (ingress_arrive) never has samples of its own.
	var sumP50, minN, maxN float64
	for p := trace.IngressArrive; p <= trace.ReplySent; p++ {
		s := sortedCopy(tr.sink.samples(p, 0, nrep))
		put(fmt.Sprintf("core.phase.%s_p50_us", p), "us", quantile(s, 0.5)/1e3)
		put(fmt.Sprintf("core.phase.%s_p99_us", p), "us", quantile(s, 0.99)/1e3)
		sumP50 += quantile(s, 0.5)
		if n := float64(len(s)); n > 0 {
			if minN == 0 || n < minN {
				minN = n
			}
			maxN = max(maxN, n)
		}
	}
	e2e := quantile(sortedCopy(tr.sink.samples(trace.EndToEnd, 0, nrep)), 0.5)
	put("core.phase_sum_over_e2e", "ratio", ratio(sumP50, e2e))
	put("core.phase_samples_min_over_max", "ratio", ratio(minN, maxN))

	// exec: replica 0's application, timed from outside.
	ex := sortedCopy(tr.app.exec.snapshot())
	var busy float64
	for _, v := range ex {
		busy += v
	}
	put("exec.app_execute_p50_us", "us", quantile(ex, 0.5)/1e3)
	put("exec.app_execute_p99_us", "us", quantile(ex, 0.99)/1e3)
	put("exec.app_busy_share", "ratio", ratio(busy/1e9, closedS))
	put("exec.barrier_share", "ratio", ratio(float64(pa.ExecBarriers-pb.ExecBarriers),
		float64(pa.ExecSharded-pb.ExecSharded+pa.ExecBarriers-pb.ExecBarriers)))

	// Every closed-phase operation of sql_acid, the workload this is for, is
	// an insert.
	put("sqlstate.disk_write_bytes_per_insert", "B", ratio(float64(ob.after.diskOut-ob.before.diskOut), ops))

	// runtime: the whole process over the closed phase.
	put("runtime.allocs_per_op", "count", ratio(float64(ob.after.mem.Mallocs-ob.before.mem.Mallocs), ops))
	put("runtime.alloc_bytes_per_op", "B", ratio(float64(ob.after.mem.TotalAlloc-ob.before.mem.TotalAlloc), ops))
	put("runtime.gc_pause_ms", "ms", float64(ob.after.mem.PauseTotalNs-ob.before.mem.PauseTotalNs)/1e6)
	put("runtime.peak_rss_mb", "MB", peakRSSMB())
	put("runtime.goroutines_max", "count", float64(ob.gauges.goroutinesMax))

	overhead := 0.0
	if ob.untracedTP > 0 {
		overhead = 1 - ratio(ops, closedS)/ob.untracedTP
	}
	put("trace.overhead_share", "ratio", overhead)

	for name, m := range ob.probes {
		res.Metrics[name] = m
	}
	return res
}

// outageMs is the longest interval, beginning at or after the kill, in
// which no request completed (0 when nothing was killed).
func outageMs(done []int64, killNs int64) float64 {
	if killNs == 0 {
		return 0
	}
	sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
	prev, longest := killNs, int64(0)
	for _, d := range done {
		if d < killNs {
			continue
		}
		longest = max(longest, d-prev)
		prev = d
	}
	return float64(longest) / 1e6
}
