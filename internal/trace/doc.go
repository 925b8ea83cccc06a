// Package trace is the virtual-time distributed tracing subsystem: a
// low-overhead event recorder for the simulated cluster, a timeline
// analyzer that reconstructs cross-process causality, and exporters for
// human- and tool-readable timelines.
//
// # Why virtual time
//
// Every layer of the reproduction charges modeled microseconds to
// per-endpoint clocks (see internal/netsim), and message receipt advances
// the receiver's clock to at least the message's modeled arrival time —
// at the instant the process handles the message (netsim's Accept), which
// for a sam process is when its runtime loop turns to it, not when a
// helper goroutine dequeued it.
// The modeled clocks therefore form a Lamport-style order across
// processes: any two events connected by a message chain are correctly
// ordered by their VirtUS stamps. Merging per-process event buffers by
// virtual time yields a causally consistent global timeline that is
// independent of the real machine's goroutine scheduling — the same
// property that makes the paper's modeled speedup curves reproducible.
//
// # Recording model
//
// A Tracer owns one Recorder per track (one track per simulated process,
// keyed by its netsim TID, plus a control track for harness events). A
// Recorder is a fixed-capacity ring buffer: when full, the oldest events
// are overwritten and a drop counter advances, so tracing never grows
// without bound on long runs. All methods are safe for concurrent use,
// and every Emit on a nil Recorder (tracing disabled) costs exactly one
// nil-check branch — the instrumented hot paths guard event construction
// behind the same check, so a run without a Tracer pays nothing else.
//
// # Event schema
//
// Each Event carries:
//
//   - Seq     — per-track emission sequence number (uint64, from 0).
//   - VirtUS  — modeled virtual time in microseconds, from the clock of
//     the endpoint/process that emitted the event.
//   - Kind    — dotted event name; the layer prefix is "net.", "pvm.",
//     "sam.", or "cluster." (constants below).
//   - Rank    — SAM logical rank, -1 when not applicable.
//   - Src/Dst — netsim TIDs for network events; rank of the peer for SAM
//     protocol events (in Dst).
//   - MsgID   — network-assigned message id; a net.send and the net.recv
//     of the same message share it, which is what the Chrome exporter
//     turns into flow arrows.
//   - Tag     — PVM message tag (network events).
//   - Name    — SAM object name (object-scoped events).
//   - Bytes   — payload size for transfers.
//   - Aux     — kind-specific integer: checkpoint/transaction sequence,
//     step number, dead TID for kills, etc.
//   - ExtraUS — kind-specific duration: chaos jitter on net.send.
//   - Note    — short human-readable detail ("forced", "fresh", a wire
//     kind name, …).
//   - T, C, D — the §4.3 virtual-time vectors of the emitting process,
//     attached to checkpoint commits and recovery restores so cross-
//     process causal frontiers can be reconstructed offline.
//
// Event kinds:
//
//	net.send         message left the sender (Src→Dst, Tag, Bytes, MsgID; ExtraUS = chaos jitter)
//	net.recv         message handled by the receiver: stamped after the receive charge, so
//	                 VirtUS is the handle instant, not the dequeue (matches net.send by MsgID)
//	net.drop         send discarded: destination dead or unknown
//	net.kill         endpoint killed (on the victim's track; Aux = victim TID)
//	net.exit         exit notification delivered to a watcher
//	net.notify-drop  chaos dropped a watcher's exit notification (Dst = watcher)
//	net.notify-dup   chaos duplicated a watcher's exit notification (Dst = watcher)
//	pvm.spawn        task started (Note = spawn name)
//	pvm.notify       watcher registered for a target's death (Dst = target)
//	sam.ckpt-begin   checkpoint transaction opened (Aux = seq; Note "forced" if forced, "midstep" if its private state carries a step log,
//	                 "release" if a ReleaseAccum that owed a waiting migration opened it and waits for its commit)
//	sam.ckpt-piece   one message of the transaction leaves (Dst = rank, Name, Bytes = body, Aux = seq;
//	                 Note = wire kind, then "inactive" if unusable until the activation, then "+ack"
//	                 on the one piece per destination whose receipt that destination acknowledges)
//	sam.ckpt-commit  checkpoint transaction committed (Aux = seq; Note "forced" if forced; T/C/D)
//	sam.force-send   force-checkpoint message sent to a laggard (Dst = rank, Aux = freeable time)
//	sam.force-recv   force-checkpoint request received (Note "ckpt" if it causes one, "covered" if not)
//	sam.fetch        object fetch issued (Name)
//	sam.fetch-data   object contents arrived (Name, Src = rank, Bytes)
//	sam.migrate-out  accumulator ownership sent away (Name, Dst = rank)
//	sam.migrate-in   accumulator ownership arrived (Name, Src = rank)
//	sam.snap-hit     snapshot-cache hit while packing (Name, Bytes saved)
//	sam.snap-miss    snapshot-cache miss: object packed (Name, Bytes)
//	sam.rec-solicit  recovering process announced itself and solicited contributions
//	sam.rec-contrib  one recovery contribution processed (Note = wire kind, Src = rank)
//	sam.rec-restore  private state + owned objects installed; app resuming (Aux = steps; Note "fresh" on a from-Init restart, else "log <n>": the step-log entries the replay hands back; T/C/D)
//	sam.rec-dir      directory rebuilt / orphan set decided (Aux = undecided orphan count)
//	sam.owner-query  orphan-ownership query sent to a home (Name)
//	sam.owner-grant  home confirmed ownership (Name)
//	sam.owner-deny   home denied ownership (Name)
//	sam.rec-done     first application step boundary after recovery: replay finished
//	sam.resend       survivor re-sent a value the replacement's replay may read again, after its
//	                 recovery contribution (on the survivor's track; Name, Dst = rank, Bytes)
//	cluster.kill     harness kill injection (Rank; Aux = victim TID)
//	cluster.finished a rank's application completed (Rank)
//
// # Recovery phase decomposition
//
// RecoveryReport slices each recovering incarnation's track into five
// contiguous phases delimited by the sam.rec-* markers:
//
//	solicit    spawn → first contribution processed
//	resupply   → sam.rec-restore (private state and owned objects arrive)
//	rebuild    → sam.rec-dir (directory reports drained, fin quorum reached)
//	arbitrate  → last owner-query answer (kOwnerQuery/kOwnerDeny round-trips)
//	restart    → sam.rec-done (deterministic replay of the interrupted step)
//
// Marker times are clamped to be monotone, so the phases partition the
// whole recovery window — attribution is 100% by construction on a
// completed recovery — and each phase reports the messages and bytes the
// incarnation received inside its interval, the counterpart of the
// paper's recovery-cost discussion in §5–§6.
//
// # Chrome trace export
//
// WriteChrome emits the Chrome trace-event JSON format (load in
// chrome://tracing or https://ui.perfetto.dev): one process ("pid") per
// track with its rank/incarnation label, every event as a short slice at
// its virtual-time timestamp, send→recv flow arrows linked by MsgID, and
// the recovery phases of each recovering incarnation as duration slices.
// Timestamps are modeled microseconds, so the timeline reads in virtual
// time, not wall time.
package trace
