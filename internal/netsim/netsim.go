// Package netsim simulates a cluster of workstations connected by a
// local-area network such as the AN2 ATM network used in the paper.
//
// The simulation runs every "process" as ordinary goroutines inside one Go
// program. Communication goes through one arrival-ordered queue per endpoint
// with PVM-style src/tag matching. The network never executes remote code; it only moves
// byte payloads, so the endpoints behave like separate address spaces as
// long as callers only exchange serialized data (the codec and pvm packages
// enforce this). A message may carry a second part, a body passed by
// reference (Endpoint.SendParts): separate address spaces holding the same
// bytes, which is safe because a sent body is never written again.
//
// Two features distinguish netsim from a plain channel fabric:
//
//   - A cost model. Every message charges modeled microseconds to a
//     per-endpoint virtual clock (latency + size/bandwidth, LogP-style).
//     Experiments report speedups in modeled time, which makes the
//     communication/computation ratio — the quantity that shapes the
//     paper's curves — independent of the machine running the simulation.
//     A send is charged when it is issued; a receive is charged by Accept,
//     at the instant the process turns to the message (Recv = Take +
//     Accept does both at once). The net.recv trace event is therefore
//     the handle instant, not the dequeue instant.
//
//   - Failure injection. Kill silences an endpoint atomically: queued and
//     future messages to it are dropped, its blocked receivers unblock with
//     ErrKilled, and subscribers receive an exit notification, mirroring
//     pvm_notify(PvmTaskExit).
//
// # Scaling and lock order
//
// Per-message work is allocation-free. Routing goes through a
// copy-on-write slice indexed by TID (published with an atomic pointer,
// copied only on endpoint registration), so the send hot path takes no
// network-wide lock and sends to distinct endpoints share no mutable
// state. Delivery appends the message by value to the receiver's queue
// under the receiver's mutex — a critical section of a few instructions.
// Matching is a scan of that queue in arrival order for the first message
// fitting the (src, tag) pattern. The runtimes receive with both
// wildcards, which always match the head; an exact match past a deep
// queue is O(depth), by choice: no runtime receives that way, and a
// source/tag index to make it O(1) cost more than it saved. Liveness
// flags, modeled clocks, and traffic counters are atomics.
//
// Lock order: Network.mu (registration, watcher sets, shutdown) and
// Endpoint.mu (one message queue) are never held together. Network.Kill
// marks the victim dead with an atomic store while holding Network.mu (the
// commit point a concurrent Notify must observe) and drains the queue only
// after releasing it. Endpoint.mu is a leaf: trace events are emitted after
// it is released. The one lock taken under Network.mu is the tracer's:
// NewEndpoint creates the endpoint's trace track (trace.Tracer.Track) while
// registering it. The trace locks are leaves.
package netsim

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"samft/internal/trace"
)

// Common errors returned by endpoint operations.
var (
	// ErrKilled is returned from blocking operations on an endpoint that
	// has been killed by failure injection.
	ErrKilled = errors.New("netsim: endpoint killed")
	// ErrClosed is returned when the whole network has been shut down.
	ErrClosed = errors.New("netsim: network closed")
	// ErrUnknownDest is returned when sending to a TID that never existed.
	ErrUnknownDest = errors.New("netsim: unknown destination")
)

// TID is a task identifier, analogous to a PVM task id. TIDs are unique for
// the lifetime of a Network and are never reused: a restarted process gets
// a fresh TID, so messages addressed to its previous incarnation can never
// reach it (the property the paper's recovery procedure relies on).
type TID int

// NoTID is the zero, never-allocated task id.
const NoTID TID = 0

// AnySrc and AnyTag are wildcards for Recv/Probe matching.
const (
	AnySrc TID = -1
	AnyTag int = -1
)

// CostModel describes the modeled network. The defaults correspond to the
// paper's AN2 cluster: 90 microseconds one-way latency and 14.6 MB/s of
// achievable PVM bandwidth.
type CostModel struct {
	// LatencyUS is the one-way message latency in microseconds.
	LatencyUS float64
	// BandwidthMBps is the achievable bandwidth in megabytes per second.
	BandwidthMBps float64
	// SendOverheadUS is CPU time charged to the sender per message.
	SendOverheadUS float64
	// RecvOverheadUS is CPU time charged to the receiver per message.
	RecvOverheadUS float64
}

// AN2 returns the cost model of the paper's evaluation cluster.
func AN2() CostModel {
	return CostModel{
		LatencyUS:      90,
		BandwidthMBps:  14.6,
		SendOverheadUS: 25,
		RecvOverheadUS: 25,
	}
}

// TransferUS returns the modeled one-way transfer time for a payload of the
// given size, excluding per-end CPU overheads.
func (c CostModel) TransferUS(bytes int) float64 {
	if c.BandwidthMBps <= 0 {
		return c.LatencyUS
	}
	return c.LatencyUS + float64(bytes)/c.BandwidthMBps
}

// Config configures a Network.
type Config struct {
	Cost CostModel
	// Chaos is the seeded fault-injection plan (see FaultPlan); the zero
	// plan injects nothing.
	Chaos FaultPlan
	// Trace, when non-nil, records every network event into one trace
	// track per endpoint. A nil tracer disables tracing at the cost of a
	// single branch per potential event.
	Trace *trace.Tracer
}

// DefaultConfig returns a Config with the AN2 cost model.
func DefaultConfig() Config {
	return Config{Cost: AN2()}
}

// Message is one unit of communication: an opaque payload, an optional
// body, and PVM-style addressing metadata.
type Message struct {
	Src TID
	Tag int
	// ID is a network-unique message id assigned at send time when
	// tracing is enabled (0 otherwise). The send and receive trace events
	// of one message share it, which lets the timeline exporter draw
	// send→delivery flow arrows.
	ID int64
	// Payload is the serialized message, or with a Body its header. It is
	// handed over whole and delivered at most once: it is not copied, it
	// keeps the capacity it was sent with, and once sent it is the
	// receiver's, who may write into it and reuse the buffer (a SAM
	// process packs its next header there). So the sender must not touch
	// it again, nor send it twice. Chaos duplicates only exit
	// notifications, whose payloads nobody reuses; a fault that duplicates
	// data-plane messages must copy each payload it duplicates.
	Payload []byte
	// Body is the second part of a two-part send (Endpoint.SendParts), nil
	// otherwise. A sent body is immutable and shared: the sender, every
	// destination it went to, and whatever they store it in hold the same
	// bytes, so nobody may ever write to it.
	Body []byte
	// ArrivalUS is the modeled time at which the message reaches the
	// destination endpoint.
	ArrivalUS float64
}

// Len returns the message size in bytes: payload and body, as the
// modeled wire carries them.
func (m *Message) Len() int { return len(m.Payload) + len(m.Body) }

func (m *Message) String() string {
	return fmt.Sprintf("msg{from %d tag=%d %dB}", m.Src, m.Tag, m.Len())
}

// routeTable is the immutable routing snapshot published by the
// copy-on-write scheme: registration copies the slice, inserts, and swaps
// the pointer; readers load it without locks. TIDs are dense small
// integers, so the table is a slice indexed by TID — routing a message is
// an atomic load plus an array index. Dead endpoints stay in the table
// (their liveness flag is atomic), so Kill never rewrites it.
type routeTable []*Endpoint

// Network is a simulated cluster fabric. All methods are safe for
// concurrent use.
type Network struct {
	cfg Config

	// routes is the copy-on-write routing table consulted (lock-free) by
	// every Send and Lookup.
	routes atomic.Pointer[routeTable]

	// mu guards registration, the watcher sets, and shutdown. No
	// Endpoint mutex is ever taken while it is held (see the package
	// lock-order note); the one lock acquired under it is the tracer's,
	// when registration creates the endpoint's trace track.
	mu      sync.Mutex
	nextTID TID
	// watchers maps a watched TID to the set of endpoints that asked to be
	// notified when it dies (pvm_notify).
	watchers map[TID]map[TID]bool
	closed   bool

	// usPerByte is the precomputed modeled transfer time per payload byte
	// (1/BandwidthMBps, or 0 for infinite bandwidth), so the send hot
	// path multiplies instead of dividing.
	usPerByte float64

	// chaos is the fault-injection runtime, nil unless Config.Chaos perturbs.
	chaos *chaosState

	// tracer is the event recorder, nil unless Config.Trace was set.
	tracer *trace.Tracer
	// msgID hands out network-unique message ids for trace flow events.
	msgID atomic.Int64
}

// New creates an empty network with the given configuration.
func New(cfg Config) *Network {
	if cfg.Cost == (CostModel{}) {
		cfg.Cost = AN2()
	}
	n := &Network{
		cfg:      cfg,
		nextTID:  100, // distinguishable from small ranks in logs
		watchers: make(map[TID]map[TID]bool),
		chaos:    newChaosState(cfg.Chaos),
		tracer:   cfg.Trace,
	}
	if cfg.Cost.BandwidthMBps > 0 {
		n.usPerByte = 1 / cfg.Cost.BandwidthMBps
	}
	empty := make(routeTable, 0)
	n.routes.Store(&empty)
	return n
}

// route returns the endpoint registered for tid (alive or dead) without
// taking any lock, or nil for a TID that never existed.
func (n *Network) route(tid TID) *Endpoint {
	table := *n.routes.Load()
	if tid < 0 || int(tid) >= len(table) {
		return nil
	}
	return table[tid]
}

// Cost returns the network's cost model.
func (n *Network) Cost() CostModel { return n.cfg.Cost }

// NewEndpoint allocates a live endpoint with a fresh TID and publishes a
// new routing snapshot. Registration is the only operation that copies
// the table; it is O(endpoints) but runs once per spawn, never per
// message.
func (n *Network) NewEndpoint() *Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		panic("netsim: NewEndpoint on closed network")
	}
	n.nextTID++
	e := newEndpoint(n, n.nextTID)
	e.rec = n.tracer.Track(int64(e.tid))
	old := *n.routes.Load()
	next := make(routeTable, int(e.tid)+1)
	copy(next, old)
	next[e.tid] = e
	n.routes.Store(&next)
	return e
}

// Lookup returns the endpoint for a TID, or nil if it does not exist or has
// been killed. Lock-free: a routing-table load plus an atomic liveness
// check.
func (n *Network) Lookup(tid TID) *Endpoint {
	e := n.route(tid)
	if e == nil || e.isDead() {
		return nil
	}
	return e
}

// Alive reports whether the endpoint exists and has not been killed.
func (n *Network) Alive(tid TID) bool { return n.Lookup(tid) != nil }

// Notify registers watcher to receive an exit notification message (with
// the given tag) when target dies. If target is already dead or unknown —
// or the whole network has been shut down — the notification is delivered
// immediately, matching PVM semantics (pvmd answers a notify request for
// an exited task right away).
//
// Because Kill marks the target dead (an atomic store, no lock nesting)
// while still holding the network lock, Notify cannot observe the target
// alive after Kill has claimed its watcher set: either the registration
// lands in the set Kill will drain, or Notify sees the target dead and
// self-delivers. Either way exactly one code path produces the exit
// message.
func (n *Network) Notify(watcher, target TID, tag int) {
	n.mu.Lock()
	w := n.route(watcher)
	t := n.route(target)
	dead := n.closed || t == nil || t.isDead()
	if !dead {
		set := n.watchers[target]
		if set == nil {
			set = make(map[TID]bool)
			n.watchers[target] = set
		}
		set[watcher] = true
	}
	n.mu.Unlock()
	if dead && w != nil {
		w.deliverExit(target, tag)
	}
}

// Kill atomically silences the endpoint: all queued messages are dropped,
// blocked receivers return ErrKilled, subsequent sends to it vanish, and
// every watcher receives an exit notification carrying the dead TID.
// Killing an already-dead or unknown TID is a safe no-op. The return value
// reports whether this call actually killed a live endpoint (the chaos
// runner uses it to tell injected failures from no-ops).
//
// Kill is reachable from the Send hot path through chaos triggers, but
// fires at most once per endpoint per run — a rare event, not a
// per-message cost, so its fan-out may allocate.
func (n *Network) Kill(tid TID, notifyTag int) bool {
	n.mu.Lock()
	e := n.route(tid)
	if e == nil || e.isDead() {
		n.mu.Unlock()
		return false
	}
	watchers := n.watchers[tid]
	delete(n.watchers, tid)
	// Mark the endpoint dead before releasing the network lock: a
	// concurrent Notify must either land in the watcher set claimed above
	// or observe the death and deliver immediately — never neither. The
	// mark is an atomic store, so no endpoint lock nests under n.mu; the
	// queue drain and receiver wakeup happen after the unlock.
	e.markDead()
	n.mu.Unlock()
	e.finishKill()

	if e.rec != nil {
		e.rec.Emit(trace.Event{
			Kind: trace.NetKill, VirtUS: e.ClockUS(),
			Src: int64(tid), Aux: int64(tid), Rank: -1,
		})
	}

	// Decide notification fates over watchers that are still alive: a
	// registered watcher may itself have died (simultaneous failures), and
	// counting it toward the "at least one notification survives" floor
	// would let chaos drop every deliverable copy — an unobserved failure
	// that no detector in the system can ever notice.
	targets := sortedTIDs(watchers)
	live := make([]TID, 0, len(targets))
	for _, w := range targets {
		if n.Lookup(w) != nil {
			live = append(live, w)
		}
	}
	fates := make([]int, len(live))
	for i := range fates {
		fates[i] = 1
	}
	if n.chaos != nil && (n.chaos.plan.NotifyDrop || n.chaos.plan.NotifyDup) {
		fates = n.chaos.notifyFates(len(live))
		if ctl := n.tracer.Control(); ctl != nil {
			for i, w := range live {
				switch fates[i] {
				case 0:
					ctl.Emit(trace.Event{
						Kind: trace.NetNotifyDrop, VirtUS: e.ClockUS(),
						Src: int64(tid), Dst: int64(w), Rank: -1,
					})
				case 2:
					ctl.Emit(trace.Event{
						Kind: trace.NetNotifyDup, VirtUS: e.ClockUS(),
						Src: int64(tid), Dst: int64(w), Rank: -1,
					})
				}
			}
		}
	}
	exit := func(w TID) bool {
		we := n.Lookup(w)
		if we == nil {
			return false
		}
		return we.deliverExit(tid, notifyTag)
	}
	delivered := 0
	for i, w := range live {
		for c := 0; c < fates[i]; c++ {
			if exit(w) {
				delivered++
			}
		}
	}
	if delivered == 0 {
		// Every fated delivery was dropped or raced with its watcher's own
		// death: force one copy to the first watcher still able to take it.
		for _, w := range live {
			if exit(w) {
				break
			}
		}
	}
	return true
}

// Close shuts the whole network down, unblocking every receiver with
// ErrClosed. Used by tests and harness teardown.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	n.mu.Unlock()
	for _, e := range *n.routes.Load() {
		if e != nil {
			e.closeNetwork()
		}
	}
}

// exitPayload encodes the dead task's id in the notification payload, as
// PVM does.
func exitPayload(t TID) []byte {
	return []byte(fmt.Sprintf("%d", int(t)))
}

// ParseExitPayload decodes a notification payload produced by Kill.
func ParseExitPayload(p []byte) (TID, error) {
	var v int
	_, err := fmt.Sscanf(string(p), "%d", &v)
	if err != nil {
		return NoTID, fmt.Errorf("netsim: bad exit payload %q: %w", p, err)
	}
	return TID(v), nil
}
