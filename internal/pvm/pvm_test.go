package pvm

import (
	"errors"
	"testing"
	"time"

	"samft/internal/netsim"
)

func machine(t *testing.T) *Machine {
	t.Helper()
	m := NewMachine(netsim.DefaultConfig())
	t.Cleanup(m.Halt)
	return m
}

// spawnIdle starts a task that parks until the machine halts, returning its
// handle. Useful as a message target. It parks in Take, which moves no
// clock, so the test goroutine is the one goroutine driving the task's
// clock (see netsim.Endpoint).
func spawnIdle(m *Machine, name string) *Task {
	ready := make(chan *Task, 1)
	m.Spawn(name, func(t *Task) {
		ready <- t
		_, _ = t.Take(AnySrc, 12345) // park forever
	})
	return <-ready
}

func TestSpawnAndPingPong(t *testing.T) {
	m := machine(t)
	result := make(chan string, 1)

	var serverTID TID
	ready := make(chan struct{})
	m.Spawn("server", func(task *Task) {
		serverTID = task.TID()
		close(ready)
		msg, err := task.Recv(AnySrc, 20)
		if err != nil {
			t.Errorf("server recv: %v", err)
			return
		}
		if err := task.Send(msg.Src, 21, append([]byte("re:"), msg.Payload...)); err != nil {
			t.Errorf("server send: %v", err)
		}
	})
	<-ready

	m.Spawn("client", func(task *Task) {
		if err := task.Send(serverTID, 20, []byte("ping")); err != nil {
			t.Errorf("client send: %v", err)
			return
		}
		msg, err := task.Recv(serverTID, 21)
		if err != nil {
			t.Errorf("client recv: %v", err)
			return
		}
		result <- string(msg.Payload)
	})

	select {
	case got := <-result:
		if got != "re:ping" {
			t.Fatalf("got %q", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ping-pong timed out")
	}
}

func TestKillUnblocksTaskWithErrKilled(t *testing.T) {
	m := machine(t)
	started := make(chan TID, 1)
	recvErr := make(chan error, 1)
	task := m.Spawn("victim", func(task *Task) {
		started <- task.TID()
		_, err := task.Recv(AnySrc, AnyTag) // will be killed here
		recvErr <- err
	})
	tid := <-started
	m.Kill(tid)
	select {
	case err := <-recvErr:
		if !errors.Is(err, ErrKilled) {
			t.Fatalf("recv after kill = %v, want ErrKilled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("killed task did not unblock")
	}
	<-task.Done()
	if task.Err() != nil {
		t.Fatalf("kill reported as error: %v", task.Err())
	}
	if m.Network().Lookup(tid) != nil {
		t.Fatal("killed task still alive")
	}
}

func TestNotifyDeliversExitMessage(t *testing.T) {
	m := machine(t)
	victim := spawnIdle(m, "victim")

	got := make(chan TID, 1)
	watcherReady := make(chan struct{})
	m.Spawn("watcher", func(task *Task) {
		task.Notify(victim.TID())
		close(watcherReady)
		msg, err := task.Recv(AnySrc, TagTaskExit)
		if err != nil {
			t.Errorf("watcher recv: %v", err)
			return
		}
		dead, err := netsim.ParseExitPayload(msg.Payload)
		if err != nil {
			t.Errorf("parse: %v", err)
			return
		}
		got <- dead
	})
	<-watcherReady
	m.Kill(victim.TID())
	select {
	case dead := <-got:
		if dead != victim.TID() {
			t.Fatalf("notified about %d, want %d", dead, victim.TID())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no exit notification")
	}
}

func TestPanicCapturedAsErr(t *testing.T) {
	m := machine(t)
	boom := errors.New("boom")
	task := m.Spawn("bad", func(*Task) { panic(boom) })
	<-task.Done()
	if err := task.Err(); err == nil || !errors.Is(err, boom) {
		t.Fatalf("Err() = %v, want wrapped boom", err)
	}
}

func TestSendToDeadTaskVanishes(t *testing.T) {
	m := machine(t)
	victim := spawnIdle(m, "victim")
	sender := spawnIdle(m, "sender")
	m.Kill(victim.TID())
	if err := sender.Endpoint().Send(victim.TID(), 20, []byte("x")); err != nil {
		t.Fatalf("send to dead task: %v", err)
	}
}

func TestRestartGetsFreshTID(t *testing.T) {
	m := machine(t)
	first := spawnIdle(m, "proc")
	m.Kill(first.TID())
	second := spawnIdle(m, "proc")
	if first.TID() == second.TID() {
		t.Fatal("restarted task reused tid; stale messages could reach it")
	}
}

func TestTryRecvAndProbe(t *testing.T) {
	m := machine(t)
	a := spawnIdle(m, "a")
	b := spawnIdle(m, "b")
	if msg, ok, err := a.TryRecv(AnySrc, 20); err != nil || ok {
		t.Fatalf("TryRecv on empty = %v, %v", msg, err)
	}
	if err := b.Endpoint().Send(a.TID(), 20, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	if !a.Probe(b.TID(), 20) {
		t.Fatal("probe missed message")
	}
	msg, ok, err := a.TryRecv(b.TID(), 20)
	if err != nil || !ok || string(msg.Payload) != "hi" {
		t.Fatalf("TryRecv = %v, %v", msg, err)
	}
}

func TestChargeAdvancesClock(t *testing.T) {
	m := machine(t)
	a := spawnIdle(m, "a")
	before := a.ClockUS()
	a.Charge(1234)
	if got := a.ClockUS(); got < before+1234 {
		t.Fatalf("clock = %v, want >= %v", got, before+1234)
	}
}

func TestHaltUnblocksTasks(t *testing.T) {
	m := NewMachine(netsim.DefaultConfig())
	unblocked := make(chan error, 1)
	m.Spawn("stuck", func(task *Task) {
		_, err := task.Recv(AnySrc, AnyTag)
		unblocked <- err
	})
	time.Sleep(5 * time.Millisecond)
	m.Halt()
	select {
	case err := <-unblocked:
		if !errors.Is(err, ErrHalted) {
			t.Fatalf("err = %v, want ErrHalted", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("halt did not unblock task")
	}
}
