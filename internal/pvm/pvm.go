// Package pvm reimplements the subset of PVM3 that SAM depends on: task
// ids, spawn, tagged send/receive with wildcard matching, and failure
// notification (pvm_notify with PvmTaskExit). It is a thin veneer over the
// simulated cluster in internal/netsim, so "tasks" are goroutine groups
// with private heaps rather than Unix processes; the interface semantics —
// including the property that a restarted task gets a brand-new tid — match
// PVM3's.
package pvm

import (
	"fmt"
	"sync"

	"samft/internal/netsim"
	"samft/internal/trace"
)

// TID is a PVM task identifier.
type TID = netsim.TID

// Wildcards for Recv matching, as in pvm_recv(-1, -1).
const (
	AnySrc = netsim.AnySrc
	AnyTag = netsim.AnyTag
)

// NoTID is the zero task id.
const NoTID = netsim.NoTID

// TagTaskExit is the reserved message tag used for exit notifications.
// Application and SAM tags must be >= TagUserBase.
const (
	TagTaskExit = 1
	TagUserBase = 16
)

// ErrKilled is returned from operations on a task that has been killed.
var ErrKilled = netsim.ErrKilled

// ErrHalted is returned when the virtual machine has been shut down.
var ErrHalted = netsim.ErrClosed

// Machine is the PVM virtual machine: the set of daemons on the simulated
// cluster. All methods are safe for concurrent use.
type Machine struct {
	net *netsim.Network
}

// NewMachine boots a virtual machine over a fresh simulated network.
func NewMachine(cfg netsim.Config) *Machine {
	return &Machine{net: netsim.New(cfg)}
}

// Network exposes the underlying simulated network (for cost-model and
// statistics access by the harness).
func (m *Machine) Network() *netsim.Network { return m.net }

// Spawn starts body as a new task and returns it. The body runs on its own
// goroutine; when it returns, the task is marked done but its endpoint
// stays reachable (a finished Unix process's messages would bounce, but
// SAM tasks only finish at application end, after which the harness halts
// the machine). A panic in the body is captured and reported via Task.Err.
func (m *Machine) Spawn(name string, body func(*Task)) *Task {
	return m.SpawnAt(name, 0, body)
}

// SpawnAt is Spawn for a task started by another at modeled instant atUS
// (a replacement process, respawned by its recovery coordinator): the new
// task's clock starts there, not at the beginning of the run.
func (m *Machine) SpawnAt(name string, atUS float64, body func(*Task)) *Task {
	ep := m.net.NewEndpoint()
	ep.AdvanceTo(atUS)
	t := &Task{
		ep:   ep,
		name: name,
		done: make(chan struct{}),
	}

	if rec := ep.TraceRecorder(); rec != nil {
		rec.Emit(trace.Event{
			Kind: trace.PvmSpawn, VirtUS: ep.ClockUS(), Rank: -1,
			Src: int64(ep.TID()), Note: name,
		})
	}

	go t.run(body)
	return t
}

// Kill terminates the task with extreme prejudice, as when a workstation
// reboots: queued and in-flight messages are lost and watchers are
// notified. Killing an unknown or dead tid is a safe no-op; the return
// value reports whether a live task was actually killed.
func (m *Machine) Kill(tid TID) bool {
	return m.net.Kill(tid, TagTaskExit)
}

// Halt shuts the whole machine down, unblocking every task.
func (m *Machine) Halt() { m.net.Close() }

// Task is one PVM task: the handle through which a simulated process
// communicates. Its methods that move the task's clock (Send, SendParts,
// Recv, TryRecv, Accept, Charge) are driven by one goroutine at a time,
// as netsim.Endpoint requires.
type Task struct {
	ep   *netsim.Endpoint
	name string // spawn name, for panic reports

	done chan struct{}
	mu   sync.Mutex
	err  error // non-nil if body panicked with a real error
}

// TID returns the task's id.
func (t *Task) TID() TID { return t.ep.TID() }

// Endpoint exposes the task's network endpoint for clock/stat access.
func (t *Task) Endpoint() *netsim.Endpoint { return t.ep }

// Done is closed when the task body has returned (normally or via kill).
func (t *Task) Done() <-chan struct{} { return t.done }

// Err returns the error a task body panicked with, if any.
func (t *Task) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

func (t *Task) run(body func(*Task)) {
	defer close(t.done)
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		t.mu.Lock()
		if e, ok := r.(error); ok {
			t.err = fmt.Errorf("pvm: task %d (%s) panicked: %w", t.TID(), t.name, e)
		} else {
			t.err = fmt.Errorf("pvm: task %d (%s) panicked: %v", t.TID(), t.name, r)
		}
		t.mu.Unlock()
	}()
	body(t)
}

// Send transmits payload to dst with the given tag. Sending to a dead task
// silently succeeds (the bytes vanish in the network), as in real PVM over
// UDP-like transports. Sending from a killed task returns ErrKilled;
// higher layers use that to unwind the dead process.
func (t *Task) Send(dst TID, tag int, payload []byte) error {
	return t.ep.SendParts(dst, tag, payload, nil)
}

// SendParts is Send of a message in two parts: a payload and a body the
// receiver gets by reference (netsim.Endpoint.SendParts).
func (t *Task) SendParts(dst TID, tag int, payload, body []byte) error {
	return t.ep.SendParts(dst, tag, payload, body)
}

// Recv blocks until a message matching src/tag arrives. It returns
// ErrKilled if this task is killed while waiting. The message is
// returned by value: the fabric's queue storage is pooled, and nothing
// retains the frame after it is handed over.
func (t *Task) Recv(src TID, tag int) (netsim.Message, error) {
	return t.ep.Recv(src, tag)
}

// Take is Recv without the receive charge: it matches and dequeues, and
// the caller owes one Accept when the process turns to the message. A
// runtime that pulls messages off the mailbox on a helper goroutine uses
// the pair so that a message costs modeled time when it is handled, not
// when it is dequeued.
func (t *Task) Take(src TID, tag int) (netsim.Message, error) {
	return t.ep.Take(src, tag)
}

// Accept charges this task for a message Take returned.
func (t *Task) Accept(m *netsim.Message) { t.ep.Accept(m) }

// TryRecv is the non-blocking pvm_nrecv: ok reports whether a message
// matched.
func (t *Task) TryRecv(src TID, tag int) (netsim.Message, bool, error) {
	return t.ep.TryRecv(src, tag)
}

// Probe reports whether a matching message is queued (pvm_probe).
func (t *Task) Probe(src TID, tag int) bool {
	return t.ep.Probe(src, tag)
}

// Notify asks for a TagTaskExit message when target dies (pvm_notify).
func (t *Task) Notify(target TID) {
	if rec := t.ep.TraceRecorder(); rec != nil {
		rec.Emit(trace.Event{
			Kind: trace.PvmNotify, VirtUS: t.ep.ClockUS(), Rank: -1,
			Src: int64(t.TID()), Dst: int64(target),
		})
	}
	t.ep.Network().Notify(t.TID(), target, TagTaskExit)
}

// Charge advances the task's modeled clock by us microseconds of local
// computation (see netsim.Endpoint.Charge).
func (t *Task) Charge(us float64) { t.ep.Charge(us) }

// ClockUS returns the task's modeled local time.
func (t *Task) ClockUS() float64 { return t.ep.ClockUS() }
