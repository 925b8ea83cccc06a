package netsim

import (
	"reflect"
	"testing"

	"samft/internal/trace"
)

// The receive contract: Take matches and dequeues and touches nothing
// else; Accept is the whole charge; Recv is exactly the two in sequence.

// tracedPair is pair with tracing on, so the recorder is part of the state
// the tests compare.
func tracedPair(t *testing.T) (*Network, *Endpoint, *Endpoint) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Trace = trace.New(64)
	n := New(cfg)
	t.Cleanup(n.Close)
	return n, n.NewEndpoint(), n.NewEndpoint()
}

// recvState is everything a receive may change on the receiving endpoint.
type recvState struct {
	clock  float64
	stats  EndpointStats
	events []trace.Event
}

func stateOf(e *Endpoint) recvState {
	return recvState{clock: e.ClockUS(), stats: e.Stats(), events: e.TraceRecorder().Events()}
}

func sameState(a, b recvState) bool {
	return a.clock == b.clock && a.stats == b.stats && reflect.DeepEqual(a.events, b.events)
}

func TestTakeChargesNothing(t *testing.T) {
	_, a, b := tracedPair(t)
	a.AdvanceTo(5000)
	if err := a.Send(b.TID(), 7, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	before := stateOf(b)

	m, err := b.Take(a.TID(), 7)
	if err != nil {
		t.Fatalf("Take: %v", err)
	}
	if m.ArrivalUS <= before.clock {
		t.Fatalf("setup: arrival %.1f is not ahead of the receiver's clock %.1f", m.ArrivalUS, before.clock)
	}
	if string(m.Payload) != "payload" || m.Src != a.TID() || m.Tag != 7 {
		t.Fatalf("bad message: %v", &m)
	}
	if b.Pending() != 0 {
		t.Fatal("Take left the message queued")
	}
	if after := stateOf(b); !sameState(before, after) {
		t.Fatalf("Take changed the endpoint:\nbefore %+v\nafter  %+v", before, after)
	}
}

// TestRecvIsTakeThenAccept runs the same script on two fresh networks, one
// receiving with Recv and one with Take then Accept, with the receiver's
// clock behind the arrival (the process waits for the network) and ahead of
// it (the message waited for the process).
func TestRecvIsTakeThenAccept(t *testing.T) {
	for _, tc := range []struct {
		name      string
		recvClock float64
	}{
		{"receiver waits for the message", 0},
		{"message waits for the receiver", 9000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(recv func(b *Endpoint, src TID) Message) (Message, recvState) {
				_, a, b := tracedPair(t)
				a.AdvanceTo(5000)
				b.AdvanceTo(tc.recvClock)
				if err := a.Send(b.TID(), 7, make([]byte, 100)); err != nil {
					t.Fatal(err)
				}
				m := recv(b, a.TID())
				return m, stateOf(b)
			}
			viaRecv, want := run(func(b *Endpoint, src TID) Message {
				m, err := b.Recv(src, 7)
				if err != nil {
					t.Fatalf("Recv: %v", err)
				}
				return m
			})
			viaTake, got := run(func(b *Endpoint, src TID) Message {
				m, err := b.Take(src, 7)
				if err != nil {
					t.Fatalf("Take: %v", err)
				}
				b.Accept(&m)
				return m
			})
			if viaRecv.ArrivalUS != viaTake.ArrivalUS || viaRecv.ID != viaTake.ID {
				t.Fatalf("messages differ: Recv %v, Take %v", &viaRecv, &viaTake)
			}
			if !sameState(want, got) {
				t.Fatalf("Take+Accept left a different endpoint than Recv:\nRecv %+v\nTake %+v", want, got)
			}

			cost := DefaultConfig().Cost
			clock := tc.recvClock
			idle, queued := viaRecv.ArrivalUS-clock, 0.0
			if idle < 0 {
				idle, queued = 0, -idle
			} else {
				clock = viaRecv.ArrivalUS
			}
			if want.clock != clock+cost.RecvOverheadUS {
				t.Errorf("clock = %.3f, want max(clock, arrival) + overhead = %.3f", want.clock, clock+cost.RecvOverheadUS)
			}
			if s := want.stats; s.MsgsRecvd != 1 || s.BytesRecv != 100 {
				t.Errorf("traffic counters %+v, want 1 message of 100 bytes", s)
			}
			// The wait counters keep whole nanoseconds.
			if s := want.stats; s.RecvIdleUS < idle-1e-3 || s.RecvIdleUS > idle || s.RecvQueuedUS < queued-1e-3 || s.RecvQueuedUS > queued {
				t.Errorf("wait counters idle %.3f queued %.3f, want %.3f / %.3f", s.RecvIdleUS, s.RecvQueuedUS, idle, queued)
			}
			var recvs []trace.Event
			for _, e := range want.events {
				if e.Kind == trace.NetRecv {
					recvs = append(recvs, e)
				}
			}
			if len(recvs) != 1 || recvs[0].VirtUS != want.clock || recvs[0].MsgID != viaRecv.ID || recvs[0].Bytes != 100 {
				t.Errorf("net.recv events = %+v, want one at the post-charge clock", recvs)
			}
		})
	}
}

func TestTakeReportsKilledAndClosedLikeRecv(t *testing.T) {
	const exitTag = 99
	t.Run("killed while blocked", func(t *testing.T) {
		n, _, b := pair(t)
		errc := make(chan error, 1)
		go func() {
			_, err := b.Take(AnySrc, AnyTag)
			errc <- err
		}()
		n.Kill(b.TID(), exitTag) // before or after Take parks: either way ErrKilled
		if err := <-errc; err != ErrKilled {
			t.Fatalf("blocked Take after kill = %v, want ErrKilled", err)
		}
		if _, err := b.Take(AnySrc, AnyTag); err != ErrKilled {
			t.Fatalf("Take on a dead endpoint = %v, want ErrKilled", err)
		}
	})
	t.Run("closed, after queued exit notifications", func(t *testing.T) {
		n, a, b := pair(t)
		n.Close()
		n.Notify(a.TID(), b.TID(), exitTag) // a subscribed death is still delivered during teardown
		m, err := a.Take(AnySrc, AnyTag)
		if err != nil || m.Tag != exitTag || m.Src != b.TID() {
			t.Fatalf("Take on a closed network = %v, %v; want the queued exit notification first", &m, err)
		}
		if _, err := a.Take(AnySrc, AnyTag); err != ErrClosed {
			t.Fatalf("Take on a drained closed endpoint = %v, want ErrClosed", err)
		}
	})
}
