package trace

import (
	"strconv"
	"sync"
)

// Kind names one event type; see the package documentation for the full
// schema.
type Kind string

// Event kinds, grouped by emitting layer.
const (
	NetSend       Kind = "net.send"
	NetRecv       Kind = "net.recv"
	NetDrop       Kind = "net.drop"
	NetKill       Kind = "net.kill"
	NetExit       Kind = "net.exit"
	NetNotifyDrop Kind = "net.notify-drop"
	NetNotifyDup  Kind = "net.notify-dup"

	PvmSpawn  Kind = "pvm.spawn"
	PvmNotify Kind = "pvm.notify"

	SamCkptBegin  Kind = "sam.ckpt-begin"
	SamCkptPiece  Kind = "sam.ckpt-piece"
	SamCkptCommit Kind = "sam.ckpt-commit"
	SamForceSend  Kind = "sam.force-send"
	SamForceRecv  Kind = "sam.force-recv"
	SamFetch      Kind = "sam.fetch"
	SamFetchData  Kind = "sam.fetch-data"
	SamMigrateOut Kind = "sam.migrate-out"
	SamMigrateIn  Kind = "sam.migrate-in"
	SamSnapHit    Kind = "sam.snap-hit"
	SamSnapMiss   Kind = "sam.snap-miss"
	SamRecSolicit Kind = "sam.rec-solicit"
	SamRecContrib Kind = "sam.rec-contrib"
	SamRecRestore Kind = "sam.rec-restore"
	SamRecDir     Kind = "sam.rec-dir"
	SamOwnerQuery Kind = "sam.owner-query"
	SamOwnerGrant Kind = "sam.owner-grant"
	SamOwnerDeny  Kind = "sam.owner-deny"
	SamRecDone    Kind = "sam.rec-done"
	SamResend     Kind = "sam.resend"
	// Coverage repair (ckptstore): a proactive re-replication of one
	// object's checkpoint copy to Dst (Bytes = frame size, Aux =
	// checkpoint seq), and the completion of one repair round (Aux =
	// objects repaired).
	SamRepairSend Kind = "sam.repair-send"
	SamRepairDone Kind = "sam.repair-done"

	ClusterKill     Kind = "cluster.kill"
	ClusterFinished Kind = "cluster.finished"
)

// Event is one recorded occurrence. Field semantics are kind-specific;
// see the package documentation.
type Event struct {
	Seq     uint64
	VirtUS  float64
	Kind    Kind
	Rank    int
	Src     int64
	Dst     int64
	MsgID   int64
	Tag     int
	Name    uint64
	Bytes   int
	Aux     int64
	ExtraUS float64
	Note    string
	T, C, D []int64
}

// DefaultCapacity is the per-track ring-buffer size when a Tracer is
// created with capacity <= 0. At ~200 bytes per event this bounds a
// track to a few MB.
const DefaultCapacity = 1 << 14

// Recorder is one track's ring buffer. All methods are safe for
// concurrent use, and every method on a nil *Recorder is a cheap no-op —
// the disabled-tracing fast path is a single branch.
type Recorder struct {
	key int64

	mu      sync.Mutex
	label   string
	rank    int
	buf     []Event
	cap     int
	next    uint64 // total events emitted (also the next Seq)
	dropped uint64
}

// Emit records one event. The recorder fills in Seq. If the ring is full
// the oldest event is overwritten.
func (r *Recorder) Emit(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	e.Seq = r.next
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, e)
	} else {
		r.buf[int(r.next)%r.cap] = e
		r.dropped++
	}
	r.next++
	r.mu.Unlock()
}

// Label attaches a display name and rank to the track.
func (r *Recorder) Label(label string, rank int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.label = label
	r.rank = rank
	r.mu.Unlock()
}

// Events returns the retained events in emission order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.buf))
	if len(r.buf) < r.cap {
		out = append(out, r.buf...)
		return out
	}
	start := int(r.next) % r.cap
	out = append(out, r.buf[start:]...)
	out = append(out, r.buf[:start]...)
	return out
}

// Dropped returns how many events were overwritten by ring wrap.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Tracer owns the tracks of one run. A nil *Tracer is a valid disabled
// tracer: Track returns a nil Recorder and every emit through it is a
// single-branch no-op.
type Tracer struct {
	capacity int

	mu     sync.Mutex
	tracks map[int64]*Recorder
	order  []*Recorder
}

// ControlKey is the reserved track key for harness (cluster) events.
const ControlKey int64 = -1

// New creates a Tracer whose tracks retain up to capacity events each
// (DefaultCapacity when <= 0).
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{capacity: capacity, tracks: make(map[int64]*Recorder)}
}

// Track returns the recorder for key, creating it on first use. On a nil
// tracer it returns nil, the disabled recorder.
func (t *Tracer) Track(key int64) *Recorder {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if r, ok := t.tracks[key]; ok {
		return r
	}
	r := &Recorder{key: key, rank: -1, cap: t.capacity}
	t.tracks[key] = r
	t.order = append(t.order, r)
	return r
}

// Control returns the harness track's recorder (nil on a nil tracer).
func (t *Tracer) Control() *Recorder { return t.Track(ControlKey) }

// Label names the track for key (creating it if needed).
func (t *Tracer) Label(key int64, label string, rank int) {
	t.Track(key).Label(label, rank)
}

// Track metadata plus its retained events, as captured by Snapshot.
type TrackEvents struct {
	Key     int64
	Label   string
	Rank    int
	Dropped uint64
	Events  []Event
}

// Snapshot copies every track's retained events, in track-creation
// order. Safe while the run is still emitting.
func (t *Tracer) Snapshot() []TrackEvents {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	order := append([]*Recorder(nil), t.order...)
	t.mu.Unlock()
	out := make([]TrackEvents, 0, len(order))
	for _, r := range order {
		r.mu.Lock()
		label, rank, dropped := r.label, r.rank, r.dropped
		r.mu.Unlock()
		out = append(out, TrackEvents{
			Key: r.key, Label: label, Rank: rank, Dropped: dropped,
			Events: r.Events(),
		})
	}
	return out
}

func trackName(key int64) string {
	if key == ControlKey {
		return "cluster"
	}
	return "tid" + strconv.FormatInt(key, 10)
}

// CopyVec deep-copies a virtual-time vector for inclusion in an event.
// Emit call sites use it so events never alias live clock state.
func CopyVec(v []int64) []int64 {
	if len(v) == 0 {
		return nil
	}
	return append([]int64(nil), v...)
}
