package harness

import (
	"bytes"
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/wire"
)

// TestBatchBoundarySingleOversizedRequest: a single request whose inline
// body exceeds MaxBatchBytes must still be proposed and committed — alone
// in its batch — rather than starved by the datagram bound. (The bound
// caps where a batch is CUT, never whether its first request ships.)
func TestBatchBoundarySingleOversizedRequest(t *testing.T) {
	o := fastOpts()
	o.AllBig = false // inline bodies, so MaxBatchBytes sees their full size
	o.BigThreshold = 0
	o.MaxBatchBytes = 100 // every 1 KiB request is over the bound by itself
	c, err := NewCluster(ClusterOptions{
		Opts:       o,
		NumClients: 1,
		Seed:       23,
		App:        NewEchoFactory(1024),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	cl, err := c.Client(0, client.WithPipelineDepth(8))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const ops = 24
	payload := bytes.Repeat([]byte{0xA5}, 1024)
	want := make([]byte, 1024) // EchoApp answers RespSize zero bytes
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < ops/8; n++ {
				resp, err := cl.Invoke(context.Background(), payload)
				if err != nil {
					t.Errorf("invoke: %v", err)
					return
				}
				if !bytes.Equal(resp, want) {
					t.Errorf("response corrupted")
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	// Every batch carried exactly one (oversized) request. A call returns
	// on a reply quorum that replica 0 need not be part of, so wait for it
	// to execute the last request before reading its counters.
	info := c.Replicas[0].Info()
	for deadline := time.Now().Add(5 * time.Second); info.Stats.Executed < ops && time.Now().Before(deadline); info = c.Replicas[0].Info() {
		time.Sleep(5 * time.Millisecond)
	}
	if info.Stats.Executed != ops {
		t.Fatalf("executed = %d, want %d", info.Stats.Executed, ops)
	}
	if info.Stats.Batches != ops {
		t.Fatalf("batches = %d, want %d (one oversized request per batch)", info.Stats.Batches, ops)
	}
}

// batchSizeTracer records the Count of every EvBatch the replicas emit.
type batchSizeTracer struct {
	mu     sync.Mutex
	counts []uint64
}

func (b *batchSizeTracer) OnEvent(ev trace.Event) {
	if ev.Kind != trace.EvBatch {
		return
	}
	b.mu.Lock()
	b.counts = append(b.counts, ev.Count)
	b.mu.Unlock()
}

// TestBatchBoundaryStaticUnderBursts: under a bursty pipelined workload
// that queues far more requests than MaxBatch, no batch on any replica
// carries more than MaxBatch requests, every replica reports MaxBatch as
// its batch window, and every call completes.
func TestBatchBoundaryStaticUnderBursts(t *testing.T) {
	o := fastOpts()
	o.MaxBatch = 8
	batches := &batchSizeTracer{}
	c, err := NewCluster(ClusterOptions{
		Opts:       o,
		NumClients: 2,
		Seed:       29,
		App:        NewEchoFactory(64),
		Tracer:     func(uint32) core.Tracer { return batches },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	// depth workers per client keep its whole pipeline full.
	const bursts, depth, perWorker = 3, 16, 5
	payload := bytes.Repeat([]byte{1}, 64)
	clients := make([]*client.Client, 2)
	for i := range clients {
		cl, err := c.Client(i, client.WithPipelineDepth(depth))
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		clients[i] = cl
	}
	var done atomic.Int64
	for burst := 0; burst < bursts; burst++ {
		var wg sync.WaitGroup
		for _, cl := range clients {
			for w := 0; w < depth; w++ {
				cl := cl
				wg.Add(1)
				go func() {
					defer wg.Done()
					for n := 0; n < perWorker; n++ {
						if _, err := cl.Invoke(context.Background(), payload); err != nil {
							t.Errorf("invoke: %v", err)
							return
						}
						done.Add(1)
					}
				}()
			}
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		time.Sleep(50 * time.Millisecond) // idle gap between bursts
	}
	if got, want := done.Load(), int64(bursts*depth*perWorker*len(clients)); got != want {
		t.Fatalf("completed %d calls, want %d", got, want)
	}
	for i, r := range c.Replicas {
		if w := r.Info().BatchWindow; w != o.MaxBatch {
			t.Fatalf("replica %d: batch window %d, want MaxBatch %d", i, w, o.MaxBatch)
		}
	}
	batches.mu.Lock()
	defer batches.mu.Unlock()
	full := 0
	for _, n := range batches.counts {
		if n > uint64(o.MaxBatch) {
			t.Fatalf("a batch carried %d requests, over MaxBatch %d", n, o.MaxBatch)
		}
		if n == uint64(o.MaxBatch) {
			full++
		}
	}
	// The load must press on the bound, or the check above shows nothing.
	if full == 0 {
		t.Fatal("no batch reached MaxBatch")
	}
}

// TestPoolScribbleOwnership: with debug scribbling on, every buffer
// returned to the arena is overwritten immediately. A release-after-send
// ownership violation anywhere on the hot path (sealed envelopes, reply
// payload scratch, verify scratch, receive buffers) would corrupt live
// data — authentication failures, wrong echoes, divergence — and, under
// -race (the CI mode for this test), a write-while-read report. The
// workload deliberately crosses checkpoint boundaries and exercises the
// cached-retransmission and read-only paths.
func TestPoolScribbleOwnership(t *testing.T) {
	wire.SetPoolDebug(true)
	defer wire.SetPoolDebug(false)

	o := fastOpts()
	o.CheckpointInterval = 4 // cross several checkpoint barriers
	c, err := NewCluster(ClusterOptions{
		Opts:       o,
		NumClients: 2,
		Seed:       31,
		App:        NewEchoFactory(256),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	payload := bytes.Repeat([]byte{0x5C}, 256)
	want := make([]byte, 256) // EchoApp answers zero bytes; 0xDB = scribble
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		cl, err := c.Client(i, client.WithPipelineDepth(4))
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 30; n++ {
				resp, err := cl.Invoke(context.Background(), payload)
				if err != nil {
					t.Errorf("invoke: %v", err)
					return
				}
				if !bytes.Equal(resp, want) {
					t.Errorf("scribbled buffer leaked into a reply")
					return
				}
				if n%10 == 9 {
					if _, err := cl.InvokeReadOnly(context.Background(), payload); err != nil {
						t.Errorf("read-only: %v", err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
