package trace

import "time"

// Dump is a point-in-time snapshot of a Recorder, shaped for JSON
// exposition (the /debug/flight endpoint and Replica.FlightDump).
// Completed and Slow are ordered oldest → newest; mark and event
// offsets are nanoseconds since WallBase.
type Dump struct {
	Replica  uint32    `json:"replica"`
	WallBase time.Time `json:"wall_base"`

	Completed []TimelineDump `json:"completed"`
	Slow      []TimelineDump `json:"slow"`
	Events    []EventDump    `json:"events"`

	CompletedTotal  uint64 `json:"completed_total"`
	SlowRetained    uint64 `json:"slow_retained"`
	Evicted         uint64 `json:"evicted"`
	SlowThresholdNs int64  `json:"slow_threshold_ns"`
}

// TimelineDump is one request timeline in exposition form: stamped
// phases in pipeline order plus the adjacent-phase attribution.
type TimelineDump struct {
	Client    uint32        `json:"client"`
	Timestamp uint64        `json:"timestamp"`
	Seq       uint64        `json:"seq,omitempty"`
	View      uint64        `json:"view,omitempty"`
	Phases    []PhaseMark   `json:"phases"`
	Segments  []SegmentDump `json:"segments,omitempty"`
	EndToEnd  int64         `json:"end_to_end_ns"`
}

// PhaseMark is one stamped phase.
type PhaseMark struct {
	Phase string `json:"phase"`
	AtNs  int64  `json:"at_ns"`
}

// SegmentDump attributes an interval to the phase that ended it.
type SegmentDump struct {
	Phase string `json:"phase"`
	DurNs int64  `json:"dur_ns"`
}

// EventDump is one protocol event in exposition form.
type EventDump struct {
	Kind string `json:"kind"`
	AtNs int64  `json:"at_ns"`
	View uint64 `json:"view,omitempty"`
	Seq  uint64 `json:"seq,omitempty"`
	// Target is the view a view-change event votes for or installs.
	Target uint64 `json:"target,omitempty"`
	// Cause is what triggered a view_change_start.
	Cause string `json:"cause,omitempty"`
}

func dumpTimeline(tl *Timeline) TimelineDump {
	d := TimelineDump{
		Client:    tl.Key.Client,
		Timestamp: tl.Key.Timestamp,
		Seq:       tl.Seq,
		View:      tl.View,
		EndToEnd:  int64(tl.EndToEnd()),
	}
	for p := Phase(0); p < NumPhases; p++ {
		if tl.Marks[p] != 0 {
			d.Phases = append(d.Phases, PhaseMark{Phase: p.String(), AtNs: tl.Marks[p]})
		}
	}
	for _, seg := range tl.Segments() {
		d.Segments = append(d.Segments, SegmentDump{Phase: seg.To.String(), DurNs: int64(seg.Dur)})
	}
	return d
}

// Dump snapshots the recorder. It is safe to call concurrently with
// stamping: published timelines are immutable and the rings are read
// through atomic pointers, so a dump under load is a loose but
// memory-safe snapshot.
func (r *Recorder) Dump() Dump {
	d := Dump{
		Replica:        r.replica,
		WallBase:       r.base,
		CompletedTotal: r.completed.Load(),
		Evicted:        r.evicted.Load(),
	}

	head := r.ringHead.Load()
	n := uint64(len(r.ring))
	if head < n {
		n = head
	}
	for i := head - n; i < head; i++ {
		if tl := r.ring[i&r.ringMask].Load(); tl != nil {
			d.Completed = append(d.Completed, dumpTimeline(tl))
		}
	}

	ehead := r.eventHead.Load()
	en := uint64(len(r.events))
	if ehead < en {
		en = ehead
	}
	for i := ehead - en; i < ehead; i++ {
		if e := r.events[i&r.eventMask].Load(); e != nil {
			d.Events = append(d.Events, EventDump{Kind: e.Kind.String(), AtNs: e.At, View: e.View, Seq: e.Seq, Target: e.Target, Cause: e.Cause.String()})
		}
	}

	r.slowMu.Lock()
	d.SlowRetained = r.slowRetained
	d.SlowThresholdNs = r.threshold
	// Oldest → newest: slowNext points at the oldest retained entry once
	// the ring has wrapped.
	for i := 0; i < len(r.slow); i++ {
		if tl := r.slow[(r.slowNext+i)%len(r.slow)]; tl != nil {
			d.Slow = append(d.Slow, dumpTimeline(tl))
		}
	}
	r.slowMu.Unlock()
	return d
}

// Lookup returns the completed timeline for a request if it is still in
// the flight ring (newest match wins), in exposition form.
func (r *Recorder) Lookup(client uint32, ts uint64) (TimelineDump, bool) {
	head := r.ringHead.Load()
	n := uint64(len(r.ring))
	if head < n {
		n = head
	}
	for i := head; i > head-n; i-- {
		tl := r.ring[(i-1)&r.ringMask].Load()
		if tl != nil && tl.Key.Client == client && tl.Key.Timestamp == ts {
			return dumpTimeline(tl), true
		}
	}
	return TimelineDump{}, false
}
