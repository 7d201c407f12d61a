package transport

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func recvOne(t *testing.T, c Conn) Packet {
	t.Helper()
	select {
	case p, ok := <-c.Recv():
		if !ok {
			t.Fatal("recv channel closed")
		}
		return p
	case <-time.After(2 * time.Second):
		t.Fatal("timed out waiting for packet")
	}
	return Packet{}
}

func expectNone(t *testing.T, c Conn, d time.Duration) {
	t.Helper()
	select {
	case p, ok := <-c.Recv():
		if ok {
			t.Fatalf("unexpected packet from %s: %q", p.From, p.Data)
		}
	case <-time.After(d):
	}
}

func TestMemNetworkDelivery(t *testing.T) {
	n := NewNetwork(1)
	defer n.Close()
	a, err := n.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Listen("b")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	p := recvOne(t, b)
	if p.From != "a" || string(p.Data) != "hello" {
		t.Fatalf("got %+v", p)
	}
}

func TestMemNetworkAddressReuseRejected(t *testing.T) {
	n := NewNetwork(1)
	defer n.Close()
	if _, err := n.Listen("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("a"); err == nil {
		t.Fatal("second Listen on same address must fail")
	}
}

func TestMemNetworkUnknownDestinationVanishes(t *testing.T) {
	n := NewNetwork(1)
	defer n.Close()
	a, err := n.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send("ghost", []byte("x")); err != nil {
		t.Fatalf("UDP-style send to unknown host must not error: %v", err)
	}
	if got := n.Stats().Dropped; got != 1 {
		t.Fatalf("dropped = %d, want 1", got)
	}
}

func TestMemNetworkLoss(t *testing.T) {
	n := NewNetwork(42)
	defer n.Close()
	a, _ := n.Listen("a")
	b, _ := n.Listen("b")
	n.SetLinkFaults("a", "b", Faults{LossRate: 1})
	for i := 0; i < 10; i++ {
		if err := a.Send("b", []byte("lost")); err != nil {
			t.Fatal(err)
		}
	}
	expectNone(t, b, 50*time.Millisecond)
	st := n.Stats()
	if st.Dropped != 10 {
		t.Fatalf("dropped = %d, want 10", st.Dropped)
	}
	// Other direction unaffected.
	if err := b.Send("a", []byte("back")); err != nil {
		t.Fatal(err)
	}
	if p := recvOne(t, a); string(p.Data) != "back" {
		t.Fatalf("got %q", p.Data)
	}
}

func TestMemNetworkPartialLossIsSeeded(t *testing.T) {
	run := func(seed int64) int {
		n := NewNetwork(seed)
		defer n.Close()
		a, _ := n.Listen("a")
		b, _ := n.Listen("b")
		n.SetDefaultFaults(Faults{LossRate: 0.5})
		for i := 0; i < 200; i++ {
			_ = a.Send("b", []byte{byte(i)})
		}
		got := 0
		for {
			select {
			case <-b.Recv():
				got++
			case <-time.After(20 * time.Millisecond):
				return got
			}
		}
	}
	g1, g2 := run(7), run(7)
	if g1 != g2 {
		t.Fatalf("same seed must give same loss pattern: %d vs %d", g1, g2)
	}
	if g1 == 0 || g1 == 200 {
		t.Fatalf("50%% loss delivered %d/200", g1)
	}
}

func TestMemNetworkDuplicate(t *testing.T) {
	n := NewNetwork(1)
	defer n.Close()
	a, _ := n.Listen("a")
	b, _ := n.Listen("b")
	n.SetLinkFaults("a", "b", Faults{DuplicateRate: 1})
	if err := a.Send("b", []byte("twice")); err != nil {
		t.Fatal(err)
	}
	p1, p2 := recvOne(t, b), recvOne(t, b)
	if string(p1.Data) != "twice" || string(p2.Data) != "twice" {
		t.Fatalf("got %q %q", p1.Data, p2.Data)
	}
}

func TestMemNetworkDelay(t *testing.T) {
	n := NewNetwork(1)
	defer n.Close()
	a, _ := n.Listen("a")
	b, _ := n.Listen("b")
	n.SetLinkFaults("a", "b", Faults{Delay: 50 * time.Millisecond})
	start := time.Now()
	if err := a.Send("b", []byte("late")); err != nil {
		t.Fatal(err)
	}
	recvOne(t, b)
	if elapsed := time.Since(start); elapsed < 45*time.Millisecond {
		t.Fatalf("packet arrived after %v, want >= 50ms", elapsed)
	}
}

func TestMemNetworkIsolateAndHeal(t *testing.T) {
	n := NewNetwork(1)
	defer n.Close()
	a, _ := n.Listen("a")
	b, _ := n.Listen("b")
	n.Isolate("b")
	_ = a.Send("b", []byte("blocked"))
	_ = b.Send("a", []byte("blocked"))
	expectNone(t, b, 30*time.Millisecond)
	expectNone(t, a, 30*time.Millisecond)
	n.Heal("b")
	_ = a.Send("b", []byte("open"))
	if p := recvOne(t, b); string(p.Data) != "open" {
		t.Fatalf("got %q", p.Data)
	}
}

func TestMemConnCloseSemantics(t *testing.T) {
	n := NewNetwork(1)
	defer n.Close()
	a, _ := n.Listen("a")
	b, _ := n.Listen("b")
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal("double close must be a no-op")
	}
	if err := b.Send("a", nil); err != ErrClosed {
		t.Fatalf("send on closed conn: got %v, want ErrClosed", err)
	}
	// Sending to the departed endpoint behaves like UDP: no error.
	if err := a.Send("b", []byte("gone")); err != nil {
		t.Fatal(err)
	}
	// The address can be reused after close.
	if _, err := n.Listen("b"); err != nil {
		t.Fatalf("address must be reusable after close: %v", err)
	}
}

func TestMemNetworkStatsCountBytes(t *testing.T) {
	n := NewNetwork(1)
	defer n.Close()
	a, _ := n.Listen("a")
	b, _ := n.Listen("b")
	_ = a.Send("b", make([]byte, 100))
	_ = a.Send("b", make([]byte, 28))
	recvOne(t, b)
	recvOne(t, b)
	st := n.Stats()
	if st.Packets != 2 || st.Bytes != 128 {
		t.Fatalf("stats = %+v", st)
	}
	n.ResetStats()
	if st := n.Stats(); st.Packets != 0 || st.Bytes != 0 {
		t.Fatalf("stats after reset = %+v", st)
	}
}

func TestMemNetworkConcurrentSenders(t *testing.T) {
	n := NewNetwork(1)
	defer n.Close()
	dst, _ := n.Listen("dst")
	const senders, each = 8, 100
	for i := 0; i < senders; i++ {
		c, err := n.Listen(fmt.Sprintf("s%d", i))
		if err != nil {
			t.Fatal(err)
		}
		go func(c Conn) {
			for j := 0; j < each; j++ {
				_ = c.Send("dst", []byte{1})
			}
		}(c)
	}
	got := 0
	deadline := time.After(5 * time.Second)
	for got < senders*each {
		select {
		case <-dst.Recv():
			got++
		case <-deadline:
			t.Fatalf("received %d/%d", got, senders*each)
		}
	}
}

func TestUDPRoundTrip(t *testing.T) {
	a, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if err := a.Send(b.Addr(), []byte("ping")); err != nil {
		t.Fatal(err)
	}
	p := recvOne(t, b)
	if string(p.Data) != "ping" {
		t.Fatalf("got %q", p.Data)
	}
	if p.From != a.Addr() {
		t.Fatalf("from = %q, want %q", p.From, a.Addr())
	}
	if err := b.Send(p.From, []byte("pong")); err != nil {
		t.Fatal(err)
	}
	if p := recvOne(t, a); string(p.Data) != "pong" {
		t.Fatalf("got %q", p.Data)
	}
}

func TestUDPOversizedDatagramRejected(t *testing.T) {
	a, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	err = a.Send(a.Addr(), make([]byte, MaxDatagram+1))
	if err == nil {
		t.Fatal("oversized datagram must be rejected")
	}
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("error %v must wrap ErrTooLarge", err)
	}
	if got := a.OversizedSends(); got != 1 {
		t.Fatalf("OversizedSends = %d, want 1", got)
	}
	// The broadcast path counts one refusal per destination.
	err = a.Broadcast([]string{a.Addr(), a.Addr()}, make([]byte, MaxDatagram+1))
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("broadcast error %v must wrap ErrTooLarge", err)
	}
	if got := a.OversizedSends(); got != 3 {
		t.Fatalf("OversizedSends = %d, want 3", got)
	}
}

func TestUDPBroadcastDelivers(t *testing.T) {
	a, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	c, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := a.Broadcast([]string{b.Addr(), c.Addr()}, []byte("fanout")); err != nil {
		t.Fatal(err)
	}
	for _, dst := range []*UDPConn{b, c} {
		if p := recvOne(t, dst); string(p.Data) != "fanout" {
			t.Fatalf("got %q", p.Data)
		}
	}
}

func TestMemBroadcastDelivers(t *testing.T) {
	n := NewNetwork(7)
	defer n.Close()
	a, err := n.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Listen("b")
	if err != nil {
		t.Fatal(err)
	}
	c, err := n.Listen("c")
	if err != nil {
		t.Fatal(err)
	}
	if err := transportBroadcast(a, []string{"b", "c"}, []byte("fanout")); err != nil {
		t.Fatal(err)
	}
	for _, dst := range []*MemConn{b, c} {
		if p := recvOne(t, dst); string(p.Data) != "fanout" {
			t.Fatalf("got %q", p.Data)
		}
	}
	st := n.Stats()
	if st.Packets != 2 {
		t.Fatalf("packets = %d, want 2", st.Packets)
	}
}

// transportBroadcast calls the package-level Broadcast helper through the
// Conn interface, exercising the Broadcaster fast-path detection.
func transportBroadcast(c Conn, addrs []string, data []byte) error {
	return Broadcast(c, addrs, data)
}

func TestUDPCloseStopsReceiver(t *testing.T) {
	a, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case _, ok := <-a.Recv():
		if ok {
			t.Fatal("expected closed channel")
		}
	case <-time.After(time.Second):
		t.Fatal("recv channel must close on Close")
	}
	if err := a.Close(); err != nil {
		t.Fatal("double close must be a no-op")
	}
}
