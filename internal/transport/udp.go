package transport

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/wire"
)

// MaxDatagram is the largest datagram the UDP transport sends or
// receives; larger sends fail with ErrTooLarge. The original PBFT
// implementation fragmented larger messages; we keep protocol messages
// under this bound (state pages are 4 KiB) and let the OS fragment at the
// IP layer when needed.
const MaxDatagram = 64 << 10

// udpBatch is the syscall batching factor: how many datagrams one
// recvmmsg/sendmmsg call moves at most. Under light load batches degrade
// to single datagrams (no added latency); under a connection swarm the
// kernel queue is deep enough that most calls move several.
const udpBatch = 32

// UDPConn is a Conn over a UDP socket, mirroring the deployment
// environment of the original PBFT implementation.
type UDPConn struct {
	sock    *net.UDPConn
	addr    string
	ch      chan Packet
	recvBuf int // receive-ring buffer size (MaxDatagram; tests shrink it)

	oversized atomic.Uint64
	truncated atomic.Uint64
	batch     batchCounters

	mu      sync.Mutex
	peers   map[string]*peerAddr
	truncBy map[string]uint64 // per-peer truncated-receive counts
	closed  bool
	wg      sync.WaitGroup

	sendMu sync.Mutex // serializes the platform send-batch state
	sender *sendBatcher
}

// peerAddr is one resolved destination: the net-layer address plus (on
// platforms with sendmmsg) its raw sockaddr form, precomputed once so the
// send path never re-encodes it.
type peerAddr struct {
	ua  *net.UDPAddr
	raw rawSockaddr
}

var (
	_ Conn        = (*UDPConn)(nil)
	_ Broadcaster = (*UDPConn)(nil)
)

// batchCounters tracks syscall batching effectiveness: how many
// recv/send syscalls were issued and how many datagrams each moved.
// The occupancy buckets are sized 1, 2-3, 4-7, 8-15, 16+.
type batchCounters struct {
	recvCalls atomic.Uint64
	recvMsgs  atomic.Uint64
	sendCalls atomic.Uint64
	sendMsgs  atomic.Uint64
	recvOcc   [5]atomic.Uint64
	sendOcc   [5]atomic.Uint64
}

// BatchOccupancyBounds are the inclusive upper bounds of the first four
// occupancy buckets; the fifth bucket is unbounded (16+ datagrams).
var BatchOccupancyBounds = [4]uint64{1, 3, 7, 15}

func occBucket(n int) int {
	switch {
	case n <= 1:
		return 0
	case n <= 3:
		return 1
	case n <= 7:
		return 2
	case n <= 15:
		return 3
	default:
		return 4
	}
}

func (c *UDPConn) noteRecvBatch(n int) {
	c.batch.recvCalls.Add(1)
	c.batch.recvMsgs.Add(uint64(n))
	c.batch.recvOcc[occBucket(n)].Add(1)
}

func (c *UDPConn) noteSendBatch(n int) {
	c.batch.sendCalls.Add(1)
	c.batch.sendMsgs.Add(uint64(n))
	c.batch.sendOcc[occBucket(n)].Add(1)
}

// BatchStats is a snapshot of the syscall batching counters.
type BatchStats struct {
	// RecvCalls counts receive syscalls that returned at least one
	// datagram; RecvMsgs counts the datagrams they returned (including
	// truncated ones that were then dropped).
	RecvCalls uint64
	RecvMsgs  uint64
	// SendCalls counts send syscalls; SendMsgs the datagrams they moved.
	SendCalls uint64
	SendMsgs  uint64
	// RecvOccupancy / SendOccupancy are datagrams-per-syscall histograms
	// over the buckets 1, 2-3, 4-7, 8-15, 16+.
	RecvOccupancy [5]uint64
	SendOccupancy [5]uint64
}

// RecvPerCall returns the mean datagrams moved per receive syscall.
func (s BatchStats) RecvPerCall() float64 {
	if s.RecvCalls == 0 {
		return 0
	}
	return float64(s.RecvMsgs) / float64(s.RecvCalls)
}

// SendPerCall returns the mean datagrams moved per send syscall.
func (s BatchStats) SendPerCall() float64 {
	if s.SendCalls == 0 {
		return 0
	}
	return float64(s.SendMsgs) / float64(s.SendCalls)
}

// Syscalls returns the total socket syscalls issued (recv + send).
func (s BatchStats) Syscalls() uint64 { return s.RecvCalls + s.SendCalls }

// BatchStats returns a snapshot of the syscall batching counters.
func (c *UDPConn) BatchStats() BatchStats {
	var s BatchStats
	s.RecvCalls = c.batch.recvCalls.Load()
	s.RecvMsgs = c.batch.recvMsgs.Load()
	s.SendCalls = c.batch.sendCalls.Load()
	s.SendMsgs = c.batch.sendMsgs.Load()
	for i := range s.RecvOccupancy {
		s.RecvOccupancy[i] = c.batch.recvOcc[i].Load()
		s.SendOccupancy[i] = c.batch.sendOcc[i].Load()
	}
	return s
}

// ListenUDP opens a UDP endpoint at addr (e.g. "127.0.0.1:7001"; a port of
// 0 picks a free port).
func ListenUDP(addr string) (*UDPConn, error) {
	return listenUDPBuf(addr, MaxDatagram)
}

// listenUDPBuf is ListenUDP with a configurable receive buffer size, so
// tests can force datagram truncation without crafting >64 KiB datagrams.
func listenUDPBuf(addr string, recvBuf int) (*UDPConn, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("resolve %q: %w", addr, err)
	}
	sock, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("listen %q: %w", addr, err)
	}
	c := &UDPConn{
		sock:    sock,
		addr:    sock.LocalAddr().String(),
		ch:      make(chan Packet, recvBuffer),
		recvBuf: recvBuf,
		peers:   make(map[string]*peerAddr),
		truncBy: make(map[string]uint64),
	}
	c.wg.Add(1)
	go c.readLoop()
	return c, nil
}

// Addr returns the bound local address.
func (c *UDPConn) Addr() string { return c.addr }

// Recv returns the inbound packet channel. Packet buffers come from the
// pooled receive ring; consumers that are done with a packet (and retain
// no alias of its Data) may hand the buffer back with Packet.Release.
func (c *UDPConn) Recv() <-chan Packet { return c.ch }

// Send transmits one datagram to the UDP address to. Payloads over the
// datagram limit return a wrapped ErrTooLarge and count in
// OversizedSends, so protocol-layer drops stay observable even when the
// caller treats sends as best-effort.
func (c *UDPConn) Send(to string, data []byte) error {
	if len(data) > MaxDatagram {
		c.oversized.Add(1)
		return fmt.Errorf("%w: %d bytes over limit %d", ErrTooLarge, len(data), MaxDatagram)
	}
	pa, err := c.resolve(to)
	if err != nil {
		return err
	}
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return ErrClosed
	}
	_, err = c.sock.WriteToUDP(data, pa.ua)
	c.noteSendBatch(1)
	return err
}

// Broadcast sends the same datagram to every address: one size check and
// one close check for the whole fan-out, and — where the platform has
// sendmmsg — one syscall per udpBatch destinations instead of one each.
func (c *UDPConn) Broadcast(addrs []string, data []byte) error {
	if len(data) > MaxDatagram {
		c.oversized.Add(uint64(len(addrs)))
		return fmt.Errorf("%w: %d bytes over limit %d", ErrTooLarge, len(data), MaxDatagram)
	}
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return ErrClosed
	}
	return c.sendBatch(addrs, data)
}

// OversizedSends returns how many sends were refused for exceeding the
// datagram size limit.
func (c *UDPConn) OversizedSends() uint64 { return c.oversized.Load() }

// TruncatedRecvs returns how many inbound datagrams were dropped because
// they exceeded the receive buffer. Before this counter existed such
// datagrams were silently truncated to the buffer size and handed to the
// protocol layer as garbage; now they are counted (see TruncatedRecvsFrom
// for the per-peer breakdown) and dropped whole, like any lost datagram.
func (c *UDPConn) TruncatedRecvs() uint64 { return c.truncated.Load() }

// TruncatedRecvsFrom returns the per-peer truncated-receive counts, keyed
// by the sender address the transport observed. The map is a copy.
func (c *UDPConn) TruncatedRecvsFrom() map[string]uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]uint64, len(c.truncBy))
	for k, v := range c.truncBy {
		out[k] = v
	}
	return out
}

// noteTruncated records one truncated receive from peer.
func (c *UDPConn) noteTruncated(peer string) {
	c.truncated.Add(1)
	c.mu.Lock()
	c.truncBy[peer]++
	c.mu.Unlock()
}

func (c *UDPConn) resolve(to string) (*peerAddr, error) {
	c.mu.Lock()
	pa, ok := c.peers[to]
	c.mu.Unlock()
	if ok {
		return pa, nil
	}
	ua, err := net.ResolveUDPAddr("udp", to)
	if err != nil {
		return nil, fmt.Errorf("resolve %q: %w", to, err)
	}
	pa = &peerAddr{ua: ua}
	fillRawSockaddr(pa)
	c.mu.Lock()
	c.peers[to] = pa
	c.mu.Unlock()
	return pa, nil
}

// recvMsg is one received datagram as produced by the platform batcher:
// a pooled ring buffer sliced to the datagram, the sender address, and
// whether the datagram was truncated (and must be dropped).
type recvMsg struct {
	buf       []byte
	from      string
	truncated bool
}

// readLoop pulls datagrams into pooled ring buffers: each receive borrows
// a buffer from the arena and delivers it by reference; the consumer
// returns it with Packet.Release (or lets the garbage collector have it —
// retained packets, like logged pre-prepares, simply keep theirs). The
// platform batcher drains up to udpBatch datagrams per syscall where the
// kernel supports it (recvmmsg), so a deep socket queue — the connection
// swarm case — costs one syscall per batch, not per datagram.
func (c *UDPConn) readLoop() {
	defer c.wg.Done()
	b := newRecvBatcher(c)
	for {
		n, err := b.fill()
		if err != nil {
			// Socket closed (or fatal error): end the loop.
			b.release()
			close(c.ch)
			return
		}
		for i := 0; i < n; i++ {
			m := &b.msgs[i]
			if m.truncated {
				// The datagram exceeded the receive buffer: dropping it
				// whole (with a counter) beats handing truncated garbage
				// upstream.
				c.noteTruncated(m.from)
				wire.PutBuf(m.buf)
				m.buf = nil
				continue
			}
			select {
			case c.ch <- Packet{From: m.from, Data: m.buf, pooled: true}:
			default:
				// Receiver too slow: drop, exactly like a kernel socket
				// buffer overflow.
				wire.PutBuf(m.buf)
			}
			m.buf = nil
		}
	}
}

// Close shuts the socket down and waits for the reader goroutine.
func (c *UDPConn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.sock.Close()
	c.wg.Wait()
	return err
}
