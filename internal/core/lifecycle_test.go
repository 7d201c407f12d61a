package core

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestShutdownBeforeRun: a replica that is built and discarded without
// ever running must shut down cleanly (releasing the execution engine
// and the connection) and stay permanently stopped.
func TestShutdownBeforeRun(t *testing.T) {
	cfg, rkeys, _ := testConfig(t, 1, 0)
	r := newTestReplica(t, cfg, 0, rkeys[0])
	if err := r.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown before Run: %v", err)
	}
	if err := r.Run(context.Background()); !errors.Is(err, ErrStopped) {
		t.Fatalf("Run after Shutdown = %v, want ErrStopped", err)
	}
	if r.Running() {
		t.Fatal("replica reports Running after Shutdown")
	}
	// Info still answers from the quiescent state.
	if info := r.Info(); info.View != 0 {
		t.Fatalf("quiescent Info.View = %d", info.View)
	}
}

// TestDoubleShutdown: Shutdown is idempotent — concurrent and repeated
// calls all return cleanly.
func TestDoubleShutdown(t *testing.T) {
	cfg, rkeys, _ := testConfig(t, 1, 0)
	r := newTestReplica(t, cfg, 0, rkeys[0])
	runDone := make(chan error, 1)
	go func() { runDone <- r.Run(context.Background()) }()
	// Wait for the loop to be live; otherwise a fast Shutdown legally
	// wins the race and Run reports ErrStopped (Shutdown-before-Run).
	r.Inspect(func(Info) {})

	errs := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func() { errs <- r.Shutdown(context.Background()) }()
	}
	for i := 0; i < 3; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("Shutdown %d: %v", i, err)
		}
	}
	if err := <-runDone; err != nil {
		t.Fatalf("Run returned %v after Shutdown, want nil", err)
	}
	if err := r.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown after stop: %v", err)
	}
}

// TestRunLifecycleErrors: double Run returns ErrRunning; Run after the
// loop finished returns ErrStopped.
func TestRunLifecycleErrors(t *testing.T) {
	cfg, rkeys, _ := testConfig(t, 1, 0)
	r := newTestReplica(t, cfg, 0, rkeys[0])
	first := make(chan error, 1)
	go func() { first <- r.Run(context.Background()) }()
	// Wait until the loop is live (Inspect round-trips through it).
	r.Inspect(func(Info) {})
	if !r.Running() {
		t.Fatal("replica must report Running while the loop is live")
	}
	if err := r.Run(context.Background()); !errors.Is(err, ErrRunning) {
		t.Fatalf("second Run = %v, want ErrRunning", err)
	}
	if err := r.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := <-first; err != nil {
		t.Fatalf("first Run = %v, want nil", err)
	}
	if err := r.Run(context.Background()); !errors.Is(err, ErrStopped) {
		t.Fatalf("Run after stop = %v, want ErrStopped", err)
	}
}

// TestRunContextCancel: cancelling Run's context stops the replica and
// Run returns the context error.
func TestRunContextCancel(t *testing.T) {
	cfg, rkeys, _ := testConfig(t, 1, 0)
	r := newTestReplica(t, cfg, 0, rkeys[0])
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- r.Run(ctx) }()
	r.Inspect(func(Info) {})
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after context cancellation")
	}
	if r.Running() {
		t.Fatal("replica still Running after context cancellation")
	}
	// Shutdown after a context-driven stop stays clean.
	if err := r.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}
