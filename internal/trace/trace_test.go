package trace

import (
	"sync"
	"testing"
	"time"
)

// stampAll drives one request through a canonical replica-side lifecycle.
func stampAll(r *Recorder, client uint32, ts uint64) {
	r.Stamp(client, ts, IngressArrive)
	r.Stamp(client, ts, VerifyDone)
	r.Stamp(client, ts, LoopDispatch)
	r.StampSeq(client, ts, PrepareQuorum, ts, 0)
	r.Stamp(client, ts, CommitQuorum)
	r.Stamp(client, ts, ExecSchedule)
	r.Stamp(client, ts, ExecDone)
	r.Stamp(client, ts, ReplySealed)
	r.Finish(client, ts, ReplySent)
}

func TestTimelinePhaseOrderAndSegments(t *testing.T) {
	r := New(Config{Replica: 3})
	stampAll(r, 7, 42)
	td, ok := r.Lookup(7, 42)
	if !ok {
		t.Fatal("completed timeline not in the flight ring")
	}
	if td.Client != 7 || td.Timestamp != 42 || td.Seq != 42 {
		t.Fatalf("bad identity: %+v", td)
	}
	if len(td.Phases) != 9 {
		t.Fatalf("expected 9 stamped phases, got %d: %+v", len(td.Phases), td.Phases)
	}
	var last int64
	for _, pm := range td.Phases {
		if pm.AtNs < last {
			t.Fatalf("marks not monotonic: %+v", td.Phases)
		}
		last = pm.AtNs
	}
	if len(td.Segments) != len(td.Phases)-1 {
		t.Fatalf("expected %d segments, got %d", len(td.Phases)-1, len(td.Segments))
	}
	if td.EndToEnd <= 0 {
		t.Fatal("end-to-end must be positive")
	}
}

func TestStampFirstWins(t *testing.T) {
	r := New(Config{})
	r.StampAt(1, 1, IngressArrive, 100)
	r.StampAt(1, 1, IngressArrive, 200) // retransmission re-stamp
	r.Finish(1, 1, ReplySent)
	td, ok := r.Lookup(1, 1)
	if !ok {
		t.Fatal("timeline missing")
	}
	if td.Phases[0].Phase != IngressArrive.String() || td.Phases[0].AtNs != 100 {
		t.Fatalf("first stamp must win: %+v", td.Phases)
	}
}

// TestRingWrapAround churns more requests than the completed ring holds
// and asserts only the newest survive while the totals keep counting.
func TestRingWrapAround(t *testing.T) {
	const ringSize = 16
	r := New(Config{Ring: ringSize})
	const total = 5 * ringSize
	for ts := uint64(1); ts <= total; ts++ {
		stampAll(r, 1, ts)
	}
	if got := r.Completed(); got != total {
		t.Fatalf("completed total = %d, want %d", got, total)
	}
	d := r.Dump()
	if len(d.Completed) != ringSize {
		t.Fatalf("ring holds %d, want %d", len(d.Completed), ringSize)
	}
	for _, td := range d.Completed {
		if td.Timestamp <= total-ringSize {
			t.Fatalf("ring retained an overwritten timeline: ts=%d", td.Timestamp)
		}
	}
	if _, ok := r.Lookup(1, 1); ok {
		t.Fatal("oldest timeline must have been overwritten")
	}
	if _, ok := r.Lookup(1, total); !ok {
		t.Fatal("newest timeline must be present")
	}
}

// TestConcurrentStampDump hammers the recorder from stamping,
// event-recording and dumping goroutines at once; run under -race this
// is the memory-safety proof for dump-under-load.
func TestConcurrentStampDump(t *testing.T) {
	r := New(Config{Slots: 64, Ring: 32, Events: 32})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for ts := uint64(1); ts <= 500; ts++ {
				stampAll(r, uint32(g), ts)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(0); i < 500; i++ {
			r.RecordEvent(Event{Kind: EvCheckpoint, Seq: i})
		}
	}()
	var dumps sync.WaitGroup
	dumps.Add(1)
	go func() {
		defer dumps.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			d := r.Dump()
			for _, td := range d.Completed {
				if len(td.Phases) == 0 {
					t.Error("published timeline with no phases")
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	dumps.Wait()
	if got := r.Completed(); got != 4*500 {
		t.Fatalf("completed = %d, want %d", got, 4*500)
	}
}

// TestSlotCollisionEvicts forces two live keys into the same slot (one
// slot table) and asserts the collision is counted, not corrupted.
func TestSlotCollisionEvicts(t *testing.T) {
	r := New(Config{Slots: 1})
	r.Stamp(1, 1, IngressArrive)
	r.Stamp(2, 2, IngressArrive) // evicts (1,1)
	if got := r.Evicted(); got != 1 {
		t.Fatalf("evicted = %d, want 1", got)
	}
	r.Finish(2, 2, ReplySent)
	if _, ok := r.Lookup(2, 2); !ok {
		t.Fatal("surviving timeline must finalize normally")
	}
}

// TestSlowLogRetainsOutliers feeds a uniform latency population plus a
// handful of large outliers and asserts the rolling-quantile slow log
// catches the outliers (and only plausibly slow timelines).
func TestSlowLogRetainsOutliers(t *testing.T) {
	r := New(Config{SlowQuantile: 0.9, SlowCap: 8})
	mkTimeline := func(ts uint64, e2e int64) *Timeline {
		tl := &Timeline{Key: Key{Client: 1, Timestamp: ts}}
		tl.Marks[IngressArrive] = 1000
		tl.Marks[ReplySent] = 1000 + e2e
		return tl
	}
	// Build the baseline window.
	for ts := uint64(1); ts <= 200; ts++ {
		r.publish(mkTimeline(ts, int64(time.Millisecond)))
	}
	// Outliers: 100x the baseline.
	for ts := uint64(1000); ts < 1004; ts++ {
		r.publish(mkTimeline(ts, int64(100*time.Millisecond)))
	}
	d := r.Dump()
	if d.SlowThresholdNs <= 0 {
		t.Fatal("threshold never established")
	}
	found := 0
	for _, td := range d.Slow {
		if td.Timestamp >= 1000 {
			found++
		}
	}
	if found != 4 {
		t.Fatalf("slow log retained %d/4 outliers: %+v", found, d.Slow)
	}
}

func TestEventRingWrap(t *testing.T) {
	r := New(Config{Events: 8})
	for i := uint64(0); i < 20; i++ {
		r.RecordEvent(Event{Kind: EvViewChangeInstall, View: i})
	}
	d := r.Dump()
	if len(d.Events) != 8 {
		t.Fatalf("event ring holds %d, want 8", len(d.Events))
	}
	if d.Events[len(d.Events)-1].View != 19 {
		t.Fatalf("newest event missing: %+v", d.Events)
	}
}

func TestPhaseNamesDistinct(t *testing.T) {
	seen := map[string]bool{}
	for p := Phase(0); p <= EndToEnd; p++ {
		n := p.String()
		if n == "" || n == "unknown" || seen[n] {
			t.Fatalf("bad phase name for %d: %q", p, n)
		}
		seen[n] = true
	}
}
