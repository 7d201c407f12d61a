package metrics

import (
	"io"
	"net/http"
	"sync"
	"time"
)

// ClientMetrics instruments the client side of the protocol — a gateway
// or any embedder of pbft.Client — with request counters and a latency
// histogram, exposed in the same Prometheus text format as the replica
// registry. Safe for concurrent use.
type ClientMetrics struct {
	mu       sync.Mutex
	requests uint64
	failures uint64
	latency  *histogram // seconds
}

// NewClient builds an empty client-side registry.
func NewClient() *ClientMetrics {
	return &ClientMetrics{
		latency: newHistogram([]float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5}),
	}
}

// Observe records one completed call: its duration and outcome.
func (c *ClientMetrics) Observe(d time.Duration, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.requests++
	if err != nil {
		c.failures++
	}
	c.latency.observe(d.Seconds())
}

// ClientSnapshot is a point-in-time copy of the client aggregates.
type ClientSnapshot struct {
	Requests uint64
	Failures uint64
	Latency  HistogramSnapshot // seconds
}

// Snapshot returns a consistent copy of the aggregates.
func (c *ClientMetrics) Snapshot() ClientSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ClientSnapshot{Requests: c.requests, Failures: c.failures, Latency: c.latency.snapshot()}
}

var clientSeries = []series[ClientSnapshot]{
	{name: "pbft_client_requests_total", typ: "counter", help: "Client calls completed (any outcome).",
		value: func(s ClientSnapshot) any { return s.Requests }},
	{name: "pbft_client_failures_total", typ: "counter", help: "Client calls completed with an error.",
		value: func(s ClientSnapshot) any { return s.Failures }},
	{name: "pbft_client_latency_seconds", typ: "histogram", help: "Client call duration, submit to outcome.",
		value: func(s ClientSnapshot) any { return s.Latency }},
}

// WritePrometheus renders the client aggregates.
func (c *ClientMetrics) WritePrometheus(w io.Writer) {
	writeSeries(w, clientSeries, []source[ClientSnapshot]{{v: c.Snapshot()}})
}

// Handler serves the /metrics content.
func (c *ClientMetrics) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		c.WritePrometheus(w)
	})
}
