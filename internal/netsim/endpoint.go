package netsim

import (
	"math"
	"sync"
	"sync/atomic"
	"unsafe"

	"samft/internal/trace"
)

// Endpoint is one process's attachment to the network: a message queue
// with PVM-style matching, a modeled-time clock, and traffic statistics.
//
// The methods that move the modeled clock — Charge, AdvanceTo, Send,
// SendParts, Accept, Recv and TryRecv — must be driven by one goroutine at
// a time: the simulated process's, whose one CPU the clock models. Every
// other method is safe for concurrent use, and any goroutine may read the
// clock.
//
// Hot-path state is lock-free where it can be: liveness (dead/closed),
// the modeled clock, and the traffic counters are atomics, so Stats,
// ClockUS, liveness probes, and the sender-side bookkeeping of Send never
// take a lock. Delivery appends the message (by value) to the receiver's
// queue under its mutex — a critical section of a few instructions — and
// every receive scans that queue for the first match in arrival order.
type Endpoint struct {
	net *Network
	tid TID

	// state packs the liveness flags (stateDead | stateClosed) into one
	// word so the hot paths pay a single load. The dead bit is the kill
	// commit point: it is set (atomically, no lock) while Network.Kill
	// holds the network mutex, so Notify — also under the network mutex —
	// observes kills atomically without nesting endpoint locks under it.
	state atomic.Uint32

	// clockBits is the modeled local time in microseconds (float64 bits).
	// Its one writer loads and stores it; it is an atomic for the readers
	// on other goroutines (kill triggers, reports, trace events).
	clockBits atomic.Uint64

	// slowBits is the host-speed factor applied to Charge (float64 bits;
	// 0 means the nominal 1.0 and keeps the hot path a single load).
	// Heterogeneous-host scenarios slow a workstation's compute without
	// touching its network costs.
	slowBits atomic.Uint64

	// sent and recvd pack a message count (high 28 bits) and a byte count
	// (low 36 bits) into one word, so the steady-state path pays a single
	// atomic add per direction. The split caps an endpoint's lifetime
	// statistics at 268M messages and 64 GB of modeled traffic — orders
	// of magnitude beyond any simulation run — after which only the
	// counters (not delivery) would be wrong.
	sent  atomic.Uint64
	recvd atomic.Uint64

	// Receive-wait totals in modeled nanoseconds (integers so Accept pays
	// one plain atomic add): recvIdleNS is how long the process waited for
	// the network (arrival ahead of the clock), recvQueuedNS how long
	// messages waited for the process (clock ahead of the arrival).
	recvIdleNS   atomic.Uint64
	recvQueuedNS atomic.Uint64

	// Cost-model scalars copied from the network at registration, so the
	// per-message paths read plain fields instead of chasing pointers.
	sendOvUS  float64
	recvOvUS  float64
	latencyUS float64
	usPerByte float64

	mu   sync.Mutex
	cond *sync.Cond
	// queue holds delivered messages by value in arrival order; senders
	// append under mu. Entries before qHead were consumed at the head and
	// zeroed to release their payloads. A receive scans from qHead for the
	// first match: the runtimes' wildcard receive always takes the head,
	// while an exact match deep in the queue costs O(depth) — accepted,
	// since no runtime receives that way. The slice is reset when fully
	// drained, so its capacity converges on the in-flight high-water mark.
	queue   []queued
	qHead   int  // first queued entry
	waiting bool // a receiver is parked in cond.Wait
	// enqueued counts every message ever appended to queue (exit
	// notifications included). A plain field under mu: delivery already
	// holds it, so the hot path pays no extra atomic.
	enqueued int64
	// rec is this endpoint's trace track; nil when tracing is disabled,
	// making every instrumentation site a single-branch no-op.
	rec *trace.Recorder
}

// queued is a Message as it waits in a queue, in one 64-byte cache line
// where a Message takes 80 bytes: each part is kept as a pointer and its
// sizes. The payload keeps its length and capacity, as two 32-bit words,
// because it is handed over whole: the receiver may reuse its buffer (see
// Message.Payload). The body keeps only its length, since a sent body is
// shared and immutable and its spare capacity is nobody's. The queue is
// copied entry by entry — appended to, scanned, closed up behind a match —
// so its entries stay this size.
type queued struct {
	src     TID
	tag     int
	id      int64
	arrival float64
	payload *byte
	plen    uint32
	pcap    uint32
	body    *byte
	blen    int
}

func newQueued(src TID, tag int, id int64, arrival float64, payload, body []byte) queued {
	return queued{
		src: src, tag: tag, id: id, arrival: arrival,
		payload: unsafe.SliceData(payload), plen: uint32(len(payload)), pcap: uint32(cap(payload)),
		body: unsafe.SliceData(body), blen: len(body),
	}
}

// unpack writes q into m field by field: a Message is too large for the
// compiler to build in registers, and a literal would cost a zeroed
// temporary and a copy on every receive. Receives unpack straight into
// the Message they return.
func (q *queued) unpack(m *Message) {
	m.Src, m.Tag, m.ID, m.ArrivalUS = q.src, q.tag, q.id, q.arrival
	m.Payload = unsafe.Slice(q.payload, q.pcap)[:q.plen]
	m.Body = unsafe.Slice(q.body, q.blen)
}

func (q *queued) matches(src TID, tag int) bool {
	return (src == AnySrc || q.src == src) && (tag == AnyTag || q.tag == tag)
}

// statCountShift splits the packed traffic counters: count above, bytes
// below.
const (
	statBytesBits = 36
	statBytesMask = 1<<statBytesBits - 1
	statOneMsg    = 1 << statBytesBits
)

// Endpoint.state bits.
const (
	stateDead   = 1 << iota // killed; messages drop, operations fail
	stateClosed             // network shut down
)

// EndpointStats is a snapshot of an endpoint's traffic counters.
type EndpointStats struct {
	MsgsSent  int64
	MsgsRecvd int64
	BytesSent int64
	BytesRecv int64
	// RecvIdleUS is the modeled time the process spent waiting for the
	// network: the sum over accepted messages of arrival − clock where the
	// message arrived after the process turned to it. RecvQueuedUS is the
	// converse: how long messages that had already arrived waited for the
	// process to turn to them.
	RecvIdleUS   float64
	RecvQueuedUS float64
}

func newEndpoint(n *Network, tid TID) *Endpoint {
	e := &Endpoint{
		net: n, tid: tid,
		sendOvUS:  n.cfg.Cost.SendOverheadUS,
		recvOvUS:  n.cfg.Cost.RecvOverheadUS,
		latencyUS: n.cfg.Cost.LatencyUS,
		usPerByte: n.usPerByte,
	}
	e.cond = sync.NewCond(&e.mu)
	return e
}

// TID returns the endpoint's task id.
func (e *Endpoint) TID() TID { return e.tid }

// TraceRecorder returns the endpoint's trace track (nil when tracing is
// disabled). Higher layers use it to emit their own events onto the same
// per-process timeline the network writes to.
func (e *Endpoint) TraceRecorder() *trace.Recorder { return e.rec }

// Network returns the owning network.
func (e *Endpoint) Network() *Network { return e.net }

// Stats returns a snapshot of the endpoint's traffic counters without
// taking any lock.
func (e *Endpoint) Stats() EndpointStats {
	s, r := e.sent.Load(), e.recvd.Load()
	return EndpointStats{
		MsgsSent:  int64(s >> statBytesBits),
		MsgsRecvd: int64(r >> statBytesBits),
		BytesSent: int64(s & statBytesMask),
		BytesRecv: int64(r & statBytesMask),

		RecvIdleUS:   float64(e.recvIdleNS.Load()) / 1e3,
		RecvQueuedUS: float64(e.recvQueuedNS.Load()) / 1e3,
	}
}

// isDead reports the kill flag; lock-free so Network methods may call it
// while holding the network mutex.
func (e *Endpoint) isDead() bool { return e.state.Load()&stateDead != 0 }

// setState ORs bits into the state word (atomic.Uint32 has no Or until a
// later Go release; these are cold paths).
func (e *Endpoint) setState(bits uint32) {
	for {
		old := e.state.Load()
		if old&bits == bits || e.state.CompareAndSwap(old, old|bits) {
			return
		}
	}
}

// markDead sets the kill commit point. Called by Network.Kill while
// holding the network mutex (an atomic update, so no lock nesting); from
// that instant deliveries drop and senders see ErrKilled.
func (e *Endpoint) markDead() { e.setState(stateDead) }

// finishKill completes a kill after the network mutex has been released:
// queued messages are dropped and blocked receivers wake to observe the
// dead flag. Delivery checks the flag under mu, which this drain also
// holds: either a racing delivery lands before the drain and is dropped
// with it, or it observes the dead flag — never neither.
func (e *Endpoint) finishKill() {
	e.mu.Lock()
	e.queue = nil
	e.qHead = 0
	e.waiting = false
	e.cond.Broadcast()
	e.mu.Unlock()
}

func (e *Endpoint) closeNetwork() {
	e.setState(stateClosed)
	e.mu.Lock()
	e.cond.Broadcast()
	e.mu.Unlock()
}

// ClockUS returns the endpoint's modeled local time in microseconds.
func (e *Endpoint) ClockUS() float64 {
	return math.Float64frombits(e.clockBits.Load())
}

// addClock advances the modeled clock by us and returns the new time.
func (e *Endpoint) addClock(us float64) float64 {
	now := e.ClockUS() + us
	e.clockBits.Store(math.Float64bits(now))
	return now
}

// SetSlowdown sets the host-speed factor applied to subsequent Charge
// calls: modeled compute costs are multiplied by f. Factors above 1 model
// a slow workstation (a straggler), factors in (0, 1) a fast one; f <= 0
// restores the nominal speed. Network costs (latency, per-byte transfer,
// per-message CPU overheads) are unaffected — a slow host computes slowly
// but its network interface is the same.
func (e *Endpoint) SetSlowdown(f float64) {
	if f <= 0 || f == 1 {
		e.slowBits.Store(0)
		return
	}
	e.slowBits.Store(math.Float64bits(f))
}

// Charge advances the modeled clock by us microseconds of local
// computation, scaled by the endpoint's host-speed factor. Negative
// charges are ignored.
func (e *Endpoint) Charge(us float64) {
	if us <= 0 {
		return
	}
	if sb := e.slowBits.Load(); sb != 0 {
		us *= math.Float64frombits(sb)
	}
	e.addClock(us)
}

// AdvanceTo moves the modeled clock forward to at least us: a task
// spawned at a later modeled instant starts its clock there.
func (e *Endpoint) AdvanceTo(us float64) {
	if e.ClockUS() < us {
		e.clockBits.Store(math.Float64bits(us))
	}
}

// Send transmits a payload to dst: SendParts with no body.
func (e *Endpoint) Send(dst TID, tag int, payload []byte) error {
	return e.SendParts(dst, tag, payload, nil)
}

// SendParts transmits a message of two parts to dst: a payload (the
// sender's freshly packed header) and a body shared by reference. Neither
// part is copied, and the receiver gets the very same bytes. The payload is
// handed over whole, spare capacity included: the sender gives it up and
// sends it once, and the receiver may reuse the buffer. The body is
// immutable from here on: the sender may hand it to any number of
// destinations, and no holder may write to it (see Message). On the
// modeled wire the message is one frame of both parts' length. Sending to a
// dead endpoint silently drops the message — exactly what a network does
// when a workstation has crashed — but sending to a TID that never existed
// is an error.
//
// The steady-state path is allocation-free: routing is an index into the
// copy-on-write routing slice and the message travels by value through the
// receiver's queue.
func (e *Endpoint) SendParts(dst TID, tag int, payload, body []byte) error {
	if s := e.state.Load(); s != 0 {
		if s&stateDead != 0 {
			return ErrKilled
		}
		return ErrClosed
	}
	size := len(payload) + len(body)
	senderClock := e.addClock(e.sendOvUS)
	arrival := senderClock + e.latencyUS + float64(size)*e.usPerByte
	e.sent.Add(statOneMsg + uint64(size))

	// Chaos hook: seeded per-message jitter perturbs the arrival time.
	var jitter float64
	if c := e.net.chaos; c != nil {
		jitter = c.onSend()
		arrival += jitter
	}

	var msgID int64
	if e.rec != nil {
		msgID = e.net.msgID.Add(1)
		e.rec.Emit(trace.Event{
			Kind: trace.NetSend, VirtUS: senderClock, Rank: -1,
			Src: int64(e.tid), Dst: int64(dst), Tag: tag,
			Bytes: size, MsgID: msgID, ExtraUS: jitter,
		})
	}

	target := e.net.route(dst)
	if target == nil {
		if e.rec != nil {
			e.rec.Emit(trace.Event{
				Kind: trace.NetDrop, VirtUS: senderClock, Rank: -1,
				Src: int64(e.tid), Dst: int64(dst), Tag: tag,
				Bytes: size, MsgID: msgID, Note: "unknown",
			})
		}
		return ErrUnknownDest
	}
	// deliver is a no-op on a dead endpoint: the message vanishes.
	if !target.deliver(newQueued(e.tid, tag, msgID, arrival, payload, body)) && e.rec != nil {
		e.rec.Emit(trace.Event{
			Kind: trace.NetDrop, VirtUS: senderClock, Rank: -1,
			Src: int64(e.tid), Dst: int64(dst), Tag: tag,
			Bytes: size, MsgID: msgID, Note: "dead",
		})
	}
	return nil
}

// deliver queues a message, reporting whether it was accepted (false on a
// dead or closed endpoint, where the message vanishes). The wakeup runs
// after the unlock — legal because a receiver takes its notify ticket
// (inside cond.Wait) before releasing mu, so a sender that observed
// waiting under mu is guaranteed its Broadcast reaches the parked
// receiver — and desirable because the woken receiver does not slam into
// a still-held mutex.
func (e *Endpoint) deliver(q queued) bool {
	e.mu.Lock()
	if e.state.Load() != 0 {
		e.mu.Unlock()
		return false
	}
	e.queue = append(e.queue, q)
	e.enqueued++
	wake := e.waiting
	e.waiting = false
	e.mu.Unlock()
	if wake {
		e.cond.Broadcast()
	}
	return true
}

// deliverExit enqueues an exit notification, reporting whether it was
// actually queued. Unlike deliver it still enqueues after the network has
// closed: a watcher tearing down must be able to observe a death it
// explicitly subscribed to (Recv matches queued messages before reporting
// ErrClosed). Dead endpoints drop — the caller uses the return value to
// guarantee at least one live watcher observes a kill.
func (e *Endpoint) deliverExit(dead TID, tag int) bool {
	q := newQueued(dead, tag, 0, 0, exitPayload(dead), nil)
	e.mu.Lock()
	if e.state.Load()&stateDead != 0 {
		e.mu.Unlock()
		return false
	}
	e.queue = append(e.queue, q)
	e.enqueued++
	wake := e.waiting
	e.waiting = false
	e.mu.Unlock()
	if wake {
		e.cond.Broadcast()
	}
	if e.rec != nil {
		e.rec.Emit(trace.Event{
			Kind: trace.NetExit, VirtUS: e.ClockUS(), Rank: -1,
			Src: int64(dead), Dst: int64(e.tid), Tag: tag,
		})
	}
	return true
}

// fetch finds, removes, and returns (into out) the first message matching
// (src, tag) in arrival order. Called with mu held.
//
// A match at the head — every (AnySrc, AnyTag) receive — advances qHead; a
// match further in closes its gap with one copy of the tail.
func (e *Endpoint) fetch(src TID, tag int, out *Message) bool {
	// Head matches leave a consumed (zeroed) prefix behind; compact once
	// it dominates so the queue's footprint tracks the in-flight message
	// count rather than the total ever received.
	if e.qHead > 32 && e.qHead*2 > len(e.queue) {
		n := copy(e.queue, e.queue[e.qHead:])
		clear(e.queue[n:])
		e.queue = e.queue[:n]
		e.qHead = 0
	}
	i := e.find(src, tag)
	if i < 0 {
		return false
	}
	e.queue[i].unpack(out)
	if i == e.qHead {
		e.queue[i] = queued{}
		e.qHead++
		if e.qHead == len(e.queue) {
			e.queue = e.queue[:0]
			e.qHead = 0
		}
		return true
	}
	last := len(e.queue) - 1
	copy(e.queue[i:], e.queue[i+1:])
	e.queue[last] = queued{}
	e.queue = e.queue[:last]
	return true
}

// find returns the index of the first queued message matching (src, tag),
// or -1. Called with mu held.
func (e *Endpoint) find(src TID, tag int) int {
	for i := e.qHead; i < len(e.queue); i++ {
		if e.queue[i].matches(src, tag) {
			return i
		}
	}
	return -1
}

// Accept charges the receiver for a message Take handed out: traffic
// counters, the receive-wait counters, modeled-clock synchronization
// (clock = max(clock, ArrivalUS) + RecvOverheadUS) and the net.recv trace
// event. A process calls it at the instant it turns to the message, so a
// message dequeued early by a helper goroutine costs nothing until then.
// Everything it touches is an atomic or the recorder's own leaf lock, so
// Recv runs it after releasing mu — the receiver's critical section covers
// only the match itself.
func (e *Endpoint) Accept(m *Message) {
	e.recvd.Add(statOneMsg + uint64(m.Len()))
	// Receiving synchronizes the modeled clocks: the receiver cannot have
	// processed the message before it arrived.
	was := e.ClockUS()
	now := max(was, m.ArrivalUS) + e.recvOvUS
	e.clockBits.Store(math.Float64bits(now))
	// Who waited for whom: the process for the network (the clock was
	// raised to the arrival) or the message for the process (it had
	// already arrived when the process turned to it).
	if d := m.ArrivalUS - was; d > 0 {
		e.recvIdleNS.Add(uint64(d * 1e3))
	} else {
		e.recvQueuedNS.Add(uint64(-d * 1e3))
	}
	if e.rec != nil {
		e.rec.Emit(trace.Event{
			Kind: trace.NetRecv, VirtUS: now, Rank: -1,
			Src: int64(m.Src), Dst: int64(e.tid), Tag: m.Tag,
			Bytes: m.Len(), MsgID: m.ID,
		})
	}
}

// Take blocks until a message matching src/tag is available, removes it
// from the queue and returns it — and does nothing else: no clock, no
// counter, no trace event. The caller owes the endpoint one Accept for it.
// It returns ErrKilled if the endpoint is killed while waiting and
// ErrClosed if the network is shut down. Queued messages (in particular
// exit notifications delivered during teardown) are matched before the
// closed state is reported, so a subscriber can drain notifications it
// was promised even while the machine halts.
func (e *Endpoint) Take(src TID, tag int) (m Message, err error) {
	err = e.take(src, tag, &m)
	return m, err
}

// take is Take writing into out, so Recv pays no second copy of the message.
// The receives write into their named result: a Message is larger than the
// compiler zeroes and copies inline, and a local returned by value would
// cost a second zeroing and a copy.
func (e *Endpoint) take(src TID, tag int, out *Message) error {
	e.mu.Lock()
	for {
		if e.state.Load()&stateDead != 0 {
			e.mu.Unlock()
			return ErrKilled
		}
		if e.fetch(src, tag, out) {
			e.mu.Unlock()
			return nil
		}
		if e.state.Load()&stateClosed != 0 {
			e.mu.Unlock()
			return ErrClosed
		}
		e.waiting = true
		e.cond.Wait()
	}
}

// Recv is Take followed by Accept: the message is charged to the receiver
// the instant it is matched.
func (e *Endpoint) Recv(src TID, tag int) (m Message, err error) {
	if err = e.take(src, tag, &m); err == nil {
		e.Accept(&m)
	}
	return m, err
}

// TryRecv returns a matching message if one is queued (ok reports whether
// it did), charged like Recv. The error reports killed/closed states; like
// Recv, queued matches win over ErrClosed.
func (e *Endpoint) TryRecv(src TID, tag int) (m Message, ok bool, err error) {
	e.mu.Lock()
	if e.state.Load()&stateDead != 0 {
		e.mu.Unlock()
		return Message{}, false, ErrKilled
	}
	if e.fetch(src, tag, &m) {
		e.mu.Unlock()
		e.Accept(&m)
		return m, true, nil
	}
	closed := e.state.Load()&stateClosed != 0
	e.mu.Unlock()
	if closed {
		return Message{}, false, ErrClosed
	}
	return Message{}, false, nil
}

// Probe reports whether a matching message is queued, without consuming it.
func (e *Endpoint) Probe(src TID, tag int) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.find(src, tag) >= 0
}

// Enqueued returns how many messages were ever delivered into this
// endpoint's queue, taken out since or not. A harness that also counts
// the messages a process has finished handling can tell a drained cluster
// from a busy one without sampling (see cluster.Quiesce).
func (e *Endpoint) Enqueued() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.enqueued
}

// Pending returns the number of queued messages. Intended for tests.
func (e *Endpoint) Pending() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.queue) - e.qHead
}
