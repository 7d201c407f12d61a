// Package adversary scripts Byzantine behavior for harness and chaos
// testing. It interposes on a replica's (or client's) transport
// connection and rewrites, multiplies, or suppresses outgoing datagrams
// according to a composable Behavior — so a single unmodified protocol
// stack can be driven as an equivocating primary, a MAC corruptor, a
// vote withholder, or a replayer of stale proofs, without forking any
// core code.
//
// The package deliberately does NOT implement transport.Broadcaster:
// core's fan-out helper then falls back to per-destination Send, which
// is exactly the hook an equivocator needs to tell different stories to
// different peers.
package adversary

import (
	"sync/atomic"

	"repro/internal/transport"
)

// Behavior inspects one outgoing datagram. The return value replaces
// the original transmission:
//
//	nil            — suppress the datagram entirely
//	[][]byte{d}    — send d (pass-through or rewrite)
//	[][]byte{a,b}  — send both, in order (duplication / equivocation)
//
// Implementations must not retain or mutate data after returning; if a
// rewrite is needed, work on a copy.
type Behavior interface {
	Outgoing(to string, data []byte) [][]byte
}

// BehaviorFunc adapts a function to the Behavior interface.
type BehaviorFunc func(to string, data []byte) [][]byte

// Outgoing implements Behavior.
func (f BehaviorFunc) Outgoing(to string, data []byte) [][]byte { return f(to, data) }

// Passthrough forwards every datagram unchanged.
var Passthrough Behavior = BehaviorFunc(func(_ string, data []byte) [][]byte {
	return [][]byte{data}
})

// Conn wraps a transport.Conn and filters outgoing traffic through a
// Behavior. Inbound traffic is untouched: a Byzantine node
// still reads the world honestly, it only lies on the way out.
type Conn struct {
	inner    transport.Conn
	behavior Behavior
}

// Wrap interposes behavior on conn. A nil behavior is Passthrough.
func Wrap(conn transport.Conn, behavior Behavior) *Conn {
	if behavior == nil {
		behavior = Passthrough
	}
	return &Conn{inner: conn, behavior: behavior}
}

// Addr returns the wrapped endpoint's address.
func (c *Conn) Addr() string { return c.inner.Addr() }

// Send filters data through the behavior, then transmits whatever
// survives. Errors from suppressed sends cannot exist; for multiplied
// sends the first transport error wins.
func (c *Conn) Send(to string, data []byte) error {
	var first error
	for _, out := range c.behavior.Outgoing(to, data) {
		if err := c.inner.Send(to, out); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Recv returns the wrapped endpoint's inbound channel.
func (c *Conn) Recv() <-chan transport.Packet { return c.inner.Recv() }

// Close releases the wrapped endpoint.
func (c *Conn) Close() error { return c.inner.Close() }

// Chain composes behaviors left to right: every datagram produced by
// behavior i is fed to behavior i+1, so suppression and multiplication
// compose the way shell pipelines do.
func Chain(behaviors ...Behavior) Behavior {
	return BehaviorFunc(func(to string, data []byte) [][]byte {
		frames := [][]byte{data}
		for _, b := range behaviors {
			var next [][]byte
			for _, f := range frames {
				next = append(next, b.Outgoing(to, f)...)
			}
			if len(next) == 0 {
				return nil
			}
			frames = next
		}
		return frames
	})
}

// Gate arms and disarms a behavior atomically. Disarmed, it is a pure
// passthrough; armed, it delegates to the wrapped behavior. Chaos
// scenarios use it to timestamp fault injection precisely: build the
// conn disarmed, let the cluster settle, then Arm() and start the
// recovery clock.
type Gate struct {
	inner Behavior
	armed atomic.Bool
}

// NewGate wraps b, initially disarmed.
func NewGate(b Behavior) *Gate { return &Gate{inner: b} }

// Arm activates the wrapped behavior.
func (g *Gate) Arm() { g.armed.Store(true) }

// Disarm restores passthrough.
func (g *Gate) Disarm() { g.armed.Store(false) }

// Armed reports whether the wrapped behavior is active.
func (g *Gate) Armed() bool { return g.armed.Load() }

// Outgoing implements Behavior.
func (g *Gate) Outgoing(to string, data []byte) [][]byte {
	if !g.armed.Load() {
		return [][]byte{data}
	}
	return g.inner.Outgoing(to, data)
}
