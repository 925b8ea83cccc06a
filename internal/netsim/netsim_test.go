package netsim

import (
	"sync"
	"testing"
	"time"
	"unsafe"
)

func pair(t *testing.T) (*Network, *Endpoint, *Endpoint) {
	t.Helper()
	n := New(DefaultConfig())
	t.Cleanup(n.Close)
	return n, n.NewEndpoint(), n.NewEndpoint()
}

func TestSendRecvBasic(t *testing.T) {
	_, a, b := pair(t)
	if err := a.Send(b.TID(), 7, []byte("hello")); err != nil {
		t.Fatalf("send: %v", err)
	}
	m, err := b.Recv(a.TID(), 7)
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if string(m.Payload) != "hello" || m.Src != a.TID() || m.Tag != 7 {
		t.Fatalf("bad message: %v", m)
	}
}

// TestPayloadIsHandedOverWhole: a received payload is the sender's very
// buffer, spare capacity included, so the receiver can reuse it; a body
// arrives with its length as its capacity (it is shared, so its spare room
// is nobody's). A queue entry stays one 64-byte cache line.
func TestPayloadIsHandedOverWhole(t *testing.T) {
	if size := unsafe.Sizeof(queued{}); size != 64 {
		t.Errorf("a queue entry is %d bytes, want one 64-byte line", size)
	}
	_, a, b := pair(t)
	payload := append(make([]byte, 0, 100), "head"...)
	body := append(make([]byte, 0, 50), "body"...)
	if err := a.SendParts(b.TID(), 7, payload, body); err != nil {
		t.Fatal(err)
	}
	m, err := b.Recv(AnySrc, AnyTag)
	if err != nil {
		t.Fatal(err)
	}
	if string(m.Payload) != "head" || cap(m.Payload) != 100 || unsafe.SliceData(m.Payload) != unsafe.SliceData(payload) {
		t.Errorf("payload arrived as %q with capacity %d, want the sender's buffer, capacity 100", m.Payload, cap(m.Payload))
	}
	if string(m.Body) != "body" || cap(m.Body) != len(m.Body) {
		t.Errorf("body arrived as %q with capacity %d, want its length", m.Body, cap(m.Body))
	}
}

func TestRecvWildcards(t *testing.T) {
	n, a, b := pair(t)
	c := n.NewEndpoint()
	if err := a.Send(c.TID(), 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(c.TID(), 2, []byte("y")); err != nil {
		t.Fatal(err)
	}
	m, err := c.Recv(AnySrc, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.Src != b.TID() {
		t.Fatalf("wanted msg from b, got from %d", m.Src)
	}
	m, err = c.Recv(AnySrc, AnyTag)
	if err != nil {
		t.Fatal(err)
	}
	if m.Src != a.TID() || m.Tag != 1 {
		t.Fatalf("wanted msg from a tag 1, got %v", m)
	}
}

func TestRecvLeavesNonMatching(t *testing.T) {
	_, a, b := pair(t)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(a.Send(b.TID(), 1, []byte("one")))
	must(a.Send(b.TID(), 2, []byte("two")))
	must(a.Send(b.TID(), 1, []byte("three")))

	m, err := b.Recv(AnySrc, 2)
	must(err)
	if string(m.Payload) != "two" {
		t.Fatalf("got %q", m.Payload)
	}
	// Tag-1 messages preserved in order.
	m, _ = b.Recv(AnySrc, 1)
	if string(m.Payload) != "one" {
		t.Fatalf("got %q, want one", m.Payload)
	}
	m, _ = b.Recv(AnySrc, 1)
	if string(m.Payload) != "three" {
		t.Fatalf("got %q, want three", m.Payload)
	}
}

func TestRecvBlocksUntilSend(t *testing.T) {
	_, a, b := pair(t)
	done := make(chan Message, 1)
	go func() {
		m, err := b.Recv(a.TID(), 9)
		if err != nil {
			t.Error(err)
		}
		done <- m
	}()
	time.Sleep(5 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("recv returned before send")
	default:
	}
	if err := a.Send(b.TID(), 9, []byte("late")); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-done:
		if string(m.Payload) != "late" {
			t.Fatalf("got %q", m.Payload)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("recv never returned")
	}
}

func TestTryRecvAndProbe(t *testing.T) {
	_, a, b := pair(t)
	if m, ok, err := b.TryRecv(AnySrc, AnyTag); err != nil || ok {
		t.Fatalf("empty TryRecv = %v, %v", m, err)
	}
	if b.Probe(AnySrc, AnyTag) {
		t.Fatal("probe on empty mailbox")
	}
	if err := a.Send(b.TID(), 3, []byte("z")); err != nil {
		t.Fatal(err)
	}
	if !b.Probe(a.TID(), 3) {
		t.Fatal("probe missed queued message")
	}
	m, ok, err := b.TryRecv(a.TID(), 3)
	if err != nil || !ok {
		t.Fatalf("TryRecv = %v, %v", m, err)
	}
}

func TestKillUnblocksReceiver(t *testing.T) {
	n, a, b := pair(t)
	_ = a
	errc := make(chan error, 1)
	go func() {
		_, err := b.Recv(AnySrc, AnyTag)
		errc <- err
	}()
	time.Sleep(5 * time.Millisecond)
	n.Kill(b.TID(), 99)
	select {
	case err := <-errc:
		if err != ErrKilled {
			t.Fatalf("err = %v, want ErrKilled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("receiver not unblocked by kill")
	}
}

func TestKillDropsQueuedAndFutureMessages(t *testing.T) {
	n, a, b := pair(t)
	if err := a.Send(b.TID(), 1, []byte("queued")); err != nil {
		t.Fatal(err)
	}
	n.Kill(b.TID(), 99)
	if b.Pending() != 0 {
		t.Fatalf("queued messages survived kill: %d", b.Pending())
	}
	// Sending to a dead endpoint is not an error for the sender (the
	// network cannot know), the message just vanishes.
	if err := a.Send(b.TID(), 1, []byte("lost")); err != nil {
		t.Fatalf("send to dead endpoint: %v", err)
	}
	if b.Pending() != 0 {
		t.Fatal("message delivered to dead endpoint")
	}
	if n.Lookup(b.TID()) != nil {
		t.Fatal("dead endpoint reported alive")
	}
}

func TestSendFromKilledEndpointFails(t *testing.T) {
	n, a, b := pair(t)
	n.Kill(a.TID(), 99)
	if err := a.Send(b.TID(), 1, []byte("x")); err != ErrKilled {
		t.Fatalf("err = %v, want ErrKilled", err)
	}
}

func TestSendUnknownDest(t *testing.T) {
	_, a, _ := pair(t)
	if err := a.Send(TID(424242), 1, nil); err != ErrUnknownDest {
		t.Fatalf("err = %v, want ErrUnknownDest", err)
	}
}

func TestNotifyOnKill(t *testing.T) {
	n, a, b := pair(t)
	n.Notify(a.TID(), b.TID(), 55)
	n.Kill(b.TID(), 55)
	m, err := a.Recv(AnySrc, 55)
	if err != nil {
		t.Fatal(err)
	}
	dead, err := ParseExitPayload(m.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if dead != b.TID() {
		t.Fatalf("notification names %d, want %d", dead, b.TID())
	}
}

func TestNotifyAlreadyDead(t *testing.T) {
	n, a, b := pair(t)
	n.Kill(b.TID(), 55)
	n.Notify(a.TID(), b.TID(), 55) // must deliver immediately
	m, err := a.Recv(AnySrc, 55)
	if err != nil {
		t.Fatal(err)
	}
	if dead, _ := ParseExitPayload(m.Payload); dead != b.TID() {
		t.Fatalf("notification names %d, want %d", dead, b.TID())
	}
}

func TestNotifyUnknownTarget(t *testing.T) {
	n, a, _ := pair(t)
	n.Notify(a.TID(), TID(31337), 55)
	m, err := a.Recv(AnySrc, 55)
	if err != nil {
		t.Fatal(err)
	}
	if dead, _ := ParseExitPayload(m.Payload); dead != TID(31337) {
		t.Fatalf("notification names %d", dead)
	}
}

func TestKillIdempotent(t *testing.T) {
	n, a, b := pair(t)
	n.Notify(a.TID(), b.TID(), 55)
	n.Kill(b.TID(), 55)
	n.Kill(b.TID(), 55) // no second notification
	if _, err := a.Recv(AnySrc, 55); err != nil {
		t.Fatal(err)
	}
	if a.Pending() != 0 {
		t.Fatal("duplicate notification after double kill")
	}
}

func TestTIDsNeverReused(t *testing.T) {
	n := New(DefaultConfig())
	defer n.Close()
	seen := make(map[TID]bool)
	for i := 0; i < 100; i++ {
		e := n.NewEndpoint()
		if seen[e.TID()] {
			t.Fatalf("TID %d reused", e.TID())
		}
		seen[e.TID()] = true
		n.Kill(e.TID(), 1)
	}
}

func TestClockChargesAndMessageTiming(t *testing.T) {
	cfg := Config{Cost: CostModel{LatencyUS: 100, BandwidthMBps: 1, SendOverheadUS: 10, RecvOverheadUS: 5}}
	n := New(cfg)
	defer n.Close()
	a, b := n.NewEndpoint(), n.NewEndpoint()

	a.Charge(1000)
	payload := make([]byte, 1000) // 1000B at 1MB/s = 1000us
	if err := a.Send(b.TID(), 1, payload); err != nil {
		t.Fatal(err)
	}
	if got := a.ClockUS(); got != 1010 {
		t.Fatalf("sender clock = %v, want 1010", got)
	}
	if _, err := b.Recv(AnySrc, 1); err != nil {
		t.Fatal(err)
	}
	// arrival = 1010 + 100 + 1000 = 2110; recv overhead 5 => 2115.
	if got := b.ClockUS(); got != 2115 {
		t.Fatalf("receiver clock = %v, want 2115", got)
	}
}

func TestReceiverClockAheadNotRewound(t *testing.T) {
	n := New(Config{Cost: CostModel{LatencyUS: 1, BandwidthMBps: 1000, SendOverheadUS: 0, RecvOverheadUS: 0}})
	defer n.Close()
	a, b := n.NewEndpoint(), n.NewEndpoint()
	b.Charge(1e6)
	if err := a.Send(b.TID(), 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(AnySrc, 1); err != nil {
		t.Fatal(err)
	}
	if got := b.ClockUS(); got < 1e6 {
		t.Fatalf("receiver clock rewound to %v", got)
	}
}

func TestAdvanceTo(t *testing.T) {
	n := New(DefaultConfig())
	defer n.Close()
	e := n.NewEndpoint()
	e.AdvanceTo(500)
	if e.ClockUS() != 500 {
		t.Fatalf("clock = %v", e.ClockUS())
	}
	e.AdvanceTo(100) // never backwards
	if e.ClockUS() != 500 {
		t.Fatalf("clock moved backwards: %v", e.ClockUS())
	}
}

func TestChargeNegativeIgnored(t *testing.T) {
	n := New(DefaultConfig())
	defer n.Close()
	e := n.NewEndpoint()
	e.Charge(-100)
	if e.ClockUS() != 0 {
		t.Fatalf("negative charge applied: %v", e.ClockUS())
	}
}

func TestStatsCounting(t *testing.T) {
	_, a, b := pair(t)
	for i := 0; i < 3; i++ {
		if err := a.Send(b.TID(), 1, make([]byte, 10)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := b.Recv(AnySrc, AnyTag); err != nil {
			t.Fatal(err)
		}
	}
	as, bs := a.Stats(), b.Stats()
	if as.MsgsSent != 3 || as.BytesSent != 30 {
		t.Fatalf("sender stats %+v", as)
	}
	if bs.MsgsRecvd != 3 || bs.BytesRecv != 30 {
		t.Fatalf("receiver stats %+v", bs)
	}
}

func TestCloseUnblocksAll(t *testing.T) {
	n := New(DefaultConfig())
	a := n.NewEndpoint()
	errc := make(chan error, 1)
	go func() {
		_, err := a.Recv(AnySrc, AnyTag)
		errc <- err
	}()
	time.Sleep(5 * time.Millisecond)
	n.Close()
	select {
	case err := <-errc:
		if err != ErrClosed {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("close did not unblock receiver")
	}
}

func TestConcurrentSendersOneReceiver(t *testing.T) {
	n := New(DefaultConfig())
	defer n.Close()
	recv := n.NewEndpoint()
	const senders, per = 8, 200
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		e := n.NewEndpoint()
		wg.Add(1)
		go func(e *Endpoint) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := e.Send(recv.TID(), 1, []byte{byte(i)}); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(e)
	}
	got := 0
	for got < senders*per {
		if _, err := recv.Recv(AnySrc, 1); err != nil {
			t.Fatalf("recv: %v", err)
		}
		got++
	}
	wg.Wait()
	if recv.Pending() != 0 {
		t.Fatalf("%d stray messages", recv.Pending())
	}
}

func TestTransferUSZeroBandwidth(t *testing.T) {
	c := CostModel{LatencyUS: 42}
	if got := c.TransferUS(1 << 20); got != 42 {
		t.Fatalf("TransferUS = %v, want latency only", got)
	}
}

func TestAN2Defaults(t *testing.T) {
	c := AN2()
	if c.LatencyUS != 90 || c.BandwidthMBps != 14.6 {
		t.Fatalf("AN2 model %+v does not match the paper", c)
	}
}

func TestChargeSlowdown(t *testing.T) {
	_, a, b := pair(t)
	a.Charge(100)
	if got := a.ClockUS(); got != 100 {
		t.Fatalf("nominal charge: clock %v, want 100", got)
	}
	a.SetSlowdown(3)
	a.Charge(100)
	if got := a.ClockUS(); got != 400 {
		t.Fatalf("slowed charge: clock %v, want 400 (100 + 3*100)", got)
	}
	// Network costs are unaffected by the host factor: the slow host's send
	// must charge the same as the nominal host's.
	if err := a.Send(b.TID(), 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	slowSendCost := a.ClockUS() - 400
	b.SetSlowdown(0) // restore nominal
	base := b.ClockUS()
	if err := b.Send(a.TID(), 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if got := b.ClockUS() - base; got != slowSendCost {
		t.Fatalf("send cost changed under slowdown: %v vs %v", slowSendCost, got)
	}
	a.SetSlowdown(1) // factor 1 is nominal too
	a.Charge(100)
	if got := a.ClockUS(); got != 500+slowSendCost {
		t.Fatalf("restored charge: clock %v, want %v", got, 500+slowSendCost)
	}
}
