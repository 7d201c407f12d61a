package transport

import (
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"
)

// newUnreadUDPConn builds a UDPConn whose readLoop is NOT running, so a
// test can queue datagrams in the kernel socket buffer and observe how the
// recvBatcher drains them. The caller closes the socket directly.
func newUnreadUDPConn(t *testing.T) *UDPConn {
	t.Helper()
	sock, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { _ = sock.Close() })
	return &UDPConn{
		sock:    sock,
		addr:    sock.LocalAddr().String(),
		ch:      make(chan Packet, 64),
		recvBuf: MaxDatagram,
		peers:   make(map[string]*peerAddr),
		truncBy: make(map[string]uint64),
	}
}

// TestRecvBatchOccupancy queues a burst of datagrams before the first
// receive call, then drains through the platform batcher: on Linux one
// recvmmsg call must move several datagrams (occupancy > 1); on the
// portable path every call moves exactly one. Either way every datagram
// arrives and the occupancy histogram accounts for every syscall.
func TestRecvBatchOccupancy(t *testing.T) {
	const burst = 12
	c := newUnreadUDPConn(t)

	sender, err := net.Dial("udp", c.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer sender.Close()
	for i := 0; i < burst; i++ {
		if _, err := sender.Write([]byte(fmt.Sprintf("datagram-%02d", i))); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	// Let the kernel queue the burst before the first receive syscall —
	// this is the deep-socket-queue swarm condition batching exists for.
	time.Sleep(100 * time.Millisecond)

	// Deadline so a lost datagram fails the test instead of hanging it.
	_ = c.sock.SetReadDeadline(time.Now().Add(5 * time.Second))
	b := newRecvBatcher(c)
	defer b.release()
	got := make(map[string]bool)
	for len(got) < burst {
		n, err := b.fill()
		if err != nil {
			t.Fatalf("fill after %d datagrams: %v", len(got), err)
		}
		for i := 0; i < n; i++ {
			if b.msgs[i].truncated {
				t.Fatalf("unexpected truncation of %q", b.msgs[i].buf)
			}
			if b.msgs[i].from != sender.LocalAddr().String() {
				t.Fatalf("from = %q, want %q", b.msgs[i].from, sender.LocalAddr().String())
			}
			got[string(b.msgs[i].buf)] = true
		}
	}

	s := c.BatchStats()
	if s.RecvMsgs != burst {
		t.Fatalf("RecvMsgs = %d, want %d", s.RecvMsgs, burst)
	}
	var occCalls uint64
	for _, n := range s.RecvOccupancy {
		occCalls += n
	}
	if occCalls != s.RecvCalls {
		t.Fatalf("occupancy buckets sum to %d calls, counter says %d", occCalls, s.RecvCalls)
	}
	if runtime.GOOS == "linux" {
		if s.RecvCalls >= burst {
			t.Fatalf("no batching: %d syscalls for %d queued datagrams", s.RecvCalls, burst)
		}
		if s.RecvPerCall() <= 1 {
			t.Fatalf("recv occupancy = %.2f, want > 1", s.RecvPerCall())
		}
	} else if s.RecvCalls != burst {
		t.Fatalf("portable path: %d syscalls, want %d (one per datagram)", s.RecvCalls, burst)
	}
}

// TestSendBatchOccupancy fans one payload out to several destinations
// through the platform send batcher: on Linux the fan-out coalesces into
// fewer sendmmsg calls than destinations; everywhere the datagrams arrive
// and the counters balance.
func TestSendBatchOccupancy(t *testing.T) {
	const fanout = 8
	c := newUnreadUDPConn(t)

	recvs := make([]*net.UDPConn, fanout)
	addrs := make([]string, fanout)
	for i := range recvs {
		sock, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatalf("receiver %d: %v", i, err)
		}
		defer sock.Close()
		recvs[i] = sock
		addrs[i] = sock.LocalAddr().String()
	}

	payload := []byte("broadcast payload")
	if err := c.sendBatch(addrs, payload); err != nil {
		t.Fatalf("sendBatch: %v", err)
	}
	buf := make([]byte, 64)
	for i, sock := range recvs {
		_ = sock.SetReadDeadline(time.Now().Add(5 * time.Second))
		n, err := sock.Read(buf)
		if err != nil {
			t.Fatalf("receiver %d: %v", i, err)
		}
		if string(buf[:n]) != string(payload) {
			t.Fatalf("receiver %d got %q", i, buf[:n])
		}
	}

	s := c.BatchStats()
	if s.SendMsgs != fanout {
		t.Fatalf("SendMsgs = %d, want %d", s.SendMsgs, fanout)
	}
	var occCalls uint64
	for _, n := range s.SendOccupancy {
		occCalls += n
	}
	if occCalls != s.SendCalls {
		t.Fatalf("occupancy buckets sum to %d calls, counter says %d", occCalls, s.SendCalls)
	}
	if runtime.GOOS == "linux" && sysSENDMMSG != 0 {
		if s.SendCalls >= fanout {
			t.Fatalf("no coalescing: %d syscalls for a %d-way fan-out", s.SendCalls, fanout)
		}
	}
}
