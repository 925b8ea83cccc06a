package netsim

import (
	"encoding/binary"
	"testing"
	"unsafe"

	"samft/internal/trace"
	"samft/internal/xrand"
)

// refMailbox is the obviously-correct reference an endpoint's matching is
// checked against: a flat slice, matched by a fresh scan in arrival order
// and shrunk by rebuilding the slice.
type refMailbox struct {
	msgs []Message
}

func (r *refMailbox) push(m *Message) { r.msgs = append(r.msgs, *m) }

func (r *refMailbox) findIdx(src TID, tag int) int {
	for i := range r.msgs {
		if m := &r.msgs[i]; (src == AnySrc || m.Src == src) && (tag == AnyTag || m.Tag == tag) {
			return i
		}
	}
	return -1
}

func (r *refMailbox) pop(src TID, tag int, out *Message) bool {
	i := r.findIdx(src, tag)
	if i < 0 {
		return false
	}
	*out = r.msgs[i]
	r.msgs = append(r.msgs[:i], r.msgs[i+1:]...)
	return true
}

// serial is the send sequence number a test message carries as its payload.
func serial(m *Message) uint64 { return binary.LittleEndian.Uint64(m.Payload) }

// TestMatchingIsArrivalOrder drives a receiving endpoint and the reference
// with the same seeded schedule — sends from six sources, TryRecv and Probe
// with all four (src, tag) patterns, bursts that build deep queues, and
// whole-pattern drains — and requires identical answers, and an identical
// queue length, at every step. Chaos jitter perturbs modeled arrival times
// throughout: matching follows delivery order, never ArrivalUS. The
// schedule must reach both removal paths (head and mid-queue) and the
// compaction of a consumed prefix longer than 32 entries.
func TestMatchingIsArrivalOrder(t *testing.T) {
	var headMatches, midMatches, compactions int
	for seed := uint64(1); seed <= 8; seed++ {
		cfg := DefaultConfig()
		cfg.Chaos = FaultPlan{ChaosSeed: seed, JitterUS: 25}
		n := New(cfg)
		dst := n.NewEndpoint()
		srcs := make([]*Endpoint, 6)
		for i := range srcs {
			srcs[i] = n.NewEndpoint()
		}
		ref := &refMailbox{}
		rng := xrand.New(seed)
		sent := uint64(0)

		pattern := func() (TID, int) {
			src := AnySrc
			if rng.Intn(2) == 0 {
				src = srcs[rng.Intn(len(srcs))].TID()
			}
			tag := AnyTag
			if rng.Intn(2) == 0 {
				tag = rng.Intn(4)
			}
			return src, tag
		}
		// recv checks one TryRecv against the reference, reporting whether
		// it matched.
		recv := func(step int, src TID, tag int) bool {
			if dst.qHead > 32 && dst.qHead*2 > len(dst.queue) {
				compactions++
			}
			i := ref.findIdx(src, tag)
			m, ok, err := dst.TryRecv(src, tag)
			if err != nil {
				t.Fatal(err)
			}
			var want Message
			if wantOK := ref.pop(src, tag, &want); ok != wantOK {
				t.Fatalf("seed %d step %d: TryRecv(%d,%d) ok=%v, reference ok=%v", seed, step, src, tag, ok, wantOK)
			}
			if !ok {
				return false
			}
			if serial(&m) != serial(&want) || m.Src != want.Src || m.Tag != want.Tag {
				t.Fatalf("seed %d step %d: TryRecv(%d,%d) = #%d (src %d tag %d), reference #%d — arrival order broken",
					seed, step, src, tag, serial(&m), m.Src, m.Tag, serial(&want))
			}
			if i == 0 {
				headMatches++
			} else {
				midMatches++
			}
			return true
		}

		for step := 0; step < 5000; step++ {
			switch op := rng.Intn(10); {
			case op < 4: // send, sometimes a burst
				burst := 1
				if rng.Intn(8) == 0 {
					burst = rng.Intn(41)
				}
				for k := 0; k < burst; k++ {
					sent++
					e, tag := srcs[rng.Intn(len(srcs))], rng.Intn(4)
					payload := binary.LittleEndian.AppendUint64(nil, sent)
					if err := e.Send(dst.TID(), tag, payload); err != nil {
						t.Fatal(err)
					}
					// Single-threaded sends: delivery order is send order.
					ref.push(&Message{Src: e.TID(), Tag: tag, Payload: payload})
				}
			case op < 8:
				src, tag := pattern()
				recv(step, src, tag)
			case op < 9:
				src, tag := pattern()
				if got, want := dst.Probe(src, tag), ref.findIdx(src, tag) >= 0; got != want {
					t.Fatalf("seed %d step %d: Probe(%d,%d) = %v, reference %v", seed, step, src, tag, got, want)
				}
			default: // drain one pattern completely
				src, tag := pattern()
				for recv(step, src, tag) {
				}
			}
			if got, want := dst.Pending(), len(ref.msgs); got != want {
				t.Fatalf("seed %d step %d: Pending = %d, reference %d", seed, step, got, want)
			}
		}
		n.Close()
	}
	if headMatches == 0 || midMatches == 0 || compactions == 0 {
		t.Fatalf("schedule missed a path: %d head matches, %d mid-queue matches, %d compactions",
			headMatches, midMatches, compactions)
	}
}

// TestMailboxMatchesLinearScan drives one endpoint's queue directly —
// deliver, fetch and find, no sender and no clock — and the reference with
// the same seeded schedule of pushes, pops and peeks (wildcard and exact
// patterns, bursts building deep queues, whole-pattern drains that empty
// and reset the slice), requiring identical results and an identical
// queue length at every step.
func TestMailboxMatchesLinearScan(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := xrand.New(seed)
		n := New(DefaultConfig())
		mb := n.NewEndpoint()
		ref := &refMailbox{}
		nextID := int64(0)

		pattern := func() (TID, int) {
			src := AnySrc
			if rng.Intn(2) == 0 {
				src = TID(rng.Intn(6))
			}
			tag := AnyTag
			if rng.Intn(2) == 0 {
				tag = rng.Intn(4)
			}
			return src, tag
		}
		pop := func(src TID, tag int, out *Message) bool {
			mb.mu.Lock()
			defer mb.mu.Unlock()
			return mb.fetch(src, tag, out)
		}

		for step := 0; step < 5000; step++ {
			switch op := rng.Intn(10); {
			case op < 4: // push, sometimes a burst
				burst := 1
				if rng.Intn(8) == 0 {
					burst = rng.Intn(40)
				}
				for k := 0; k < burst; k++ {
					nextID++
					m := Message{
						Src: TID(rng.Intn(6)), Tag: rng.Intn(4),
						ID: nextID, ArrivalUS: float64(nextID),
					}
					if !mb.deliver(newQueued(m.Src, m.Tag, m.ID, m.ArrivalUS, nil, nil)) {
						t.Fatalf("seed %d step %d: deliver refused on a live endpoint", seed, step)
					}
					ref.push(&m)
				}
			case op < 8: // pop
				src, tag := pattern()
				var got, want Message
				gotOK := pop(src, tag, &got)
				wantOK := ref.pop(src, tag, &want)
				if gotOK != wantOK {
					t.Fatalf("seed %d step %d: pop(%d,%d) ok=%v, reference ok=%v",
						seed, step, src, tag, gotOK, wantOK)
				}
				if gotOK && (got.ID != want.ID || got.Src != want.Src || got.Tag != want.Tag) {
					t.Fatalf("seed %d step %d: pop(%d,%d) = ID %d (src %d tag %d), reference ID %d — arrival order broken",
						seed, step, src, tag, got.ID, got.Src, got.Tag, want.ID)
				}
			case op < 9: // peek
				src, tag := pattern()
				if got, want := mb.Probe(src, tag), ref.findIdx(src, tag) >= 0; got != want {
					t.Fatalf("seed %d step %d: peek(%d,%d) = %v, reference %v",
						seed, step, src, tag, got, want)
				}
			default: // drain one pattern completely
				src, tag := pattern()
				var got, want Message
				for pop(src, tag, &got) {
					if !ref.pop(src, tag, &want) || got.ID != want.ID {
						t.Fatalf("seed %d step %d: drain diverged at ID %d", seed, step, got.ID)
					}
				}
				if ref.pop(src, tag, &want) {
					t.Fatalf("seed %d step %d: reference still had ID %d after drain", seed, step, want.ID)
				}
			}
			if got := mb.Pending(); got != len(ref.msgs) {
				t.Fatalf("seed %d step %d: count = %d, reference %d", seed, step, got, len(ref.msgs))
			}
		}
		n.Close()
	}
}

// TestEndpointMatchesLinearScanUnderChaos repeats the equivalence check
// through the full send and receive path (delivery, queue scan, head
// advance, mid-queue removal, compaction) with seeded chaos jitter
// perturbing modeled arrival times, by comparing every TryRecv against a
// reference fed the same delivery order.
func TestEndpointMatchesLinearScanUnderChaos(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		cfg := DefaultConfig()
		cfg.Chaos = FaultPlan{ChaosSeed: seed, JitterUS: 25}
		n := New(cfg)
		dst := n.NewEndpoint()
		srcs := make([]*Endpoint, 5)
		for i := range srcs {
			srcs[i] = n.NewEndpoint()
		}
		ref := &refMailbox{}
		rng := xrand.New(seed ^ 0xabcdef)

		for step := 0; step < 3000; step++ {
			if rng.Intn(2) == 0 {
				e := srcs[rng.Intn(len(srcs))]
				tag := 1 + rng.Intn(3)
				if err := e.Send(dst.TID(), tag, nil); err != nil {
					t.Fatal(err)
				}
				// Single-threaded sends: delivery order is send order.
				ref.push(&Message{Src: e.TID(), Tag: tag})
			} else {
				src := AnySrc
				if rng.Intn(2) == 0 {
					src = srcs[rng.Intn(len(srcs))].TID()
				}
				tag := AnyTag
				if rng.Intn(2) == 0 {
					tag = 1 + rng.Intn(3)
				}
				m, ok, err := dst.TryRecv(src, tag)
				if err != nil {
					t.Fatal(err)
				}
				var want Message
				wantOK := ref.pop(src, tag, &want)
				if ok != wantOK {
					t.Fatalf("seed %d step %d: TryRecv(%d,%d) ok=%v, reference %v",
						seed, step, src, tag, ok, wantOK)
				}
				if ok && (m.Src != want.Src || m.Tag != want.Tag) {
					t.Fatalf("seed %d step %d: TryRecv(%d,%d) = src %d tag %d, reference src %d tag %d",
						seed, step, src, tag, m.Src, m.Tag, want.Src, want.Tag)
				}
			}
		}
		n.Close()
	}
}

// TestSendRecvAllocFree pins the per-message allocation budget at zero
// once an endpoint's queue has grown to its working size: a wildcard and
// an exact send+receive pair, an exact match taken from the middle of a
// queue of eight, a two-part send, whose body arrives as the very bytes
// that were sent, the runtimes' receive (Take, then Accept), TryRecv, a
// send+receive pair on a network whose trace rings have wrapped, and one
// on a network whose FaultPlan jitters every delivery.
func TestSendRecvAllocFree(t *testing.T) {
	n := New(DefaultConfig())
	defer n.Close()
	a, b, dst := n.NewEndpoint(), n.NewEndpoint(), n.NewEndpoint()
	traced := New(Config{Cost: AN2(), Trace: trace.New(4)})
	defer traced.Close()
	ta, tdst := traced.NewEndpoint(), traced.NewEndpoint()
	jcfg := DefaultConfig()
	jcfg.Chaos = FaultPlan{ChaosSeed: 1, JitterUS: 25}
	jittered := New(jcfg)
	defer jittered.Close()
	ja, jdst := jittered.NewEndpoint(), jittered.NewEndpoint()
	payload, body := make([]byte, 64), make([]byte, 56<<10)
	send := func(from *Endpoint, tag int) {
		if err := from.Send(dst.TID(), tag, payload); err != nil {
			t.Fatal(err)
		}
	}
	recv := func(src TID, tag int) {
		if _, err := dst.Recv(src, tag); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name string
		pair func()
	}{
		{"wildcard", func() { send(a, 1); recv(AnySrc, AnyTag) }},
		{"exact", func() { send(a, 1); recv(a.TID(), 1) }},
		{"two-part", func() {
			if err := a.SendParts(dst.TID(), 1, payload, body); err != nil {
				t.Fatal(err)
			}
			m, err := dst.Recv(AnySrc, AnyTag)
			if err != nil {
				t.Fatal(err)
			}
			if m.Len() != len(payload)+len(body) || unsafe.SliceData(m.Body) != unsafe.SliceData(body) {
				t.Fatalf("two-part send arrived as %d B with body at %p, want %d B with the sent body at %p",
					m.Len(), unsafe.SliceData(m.Body), len(payload)+len(body), unsafe.SliceData(body))
			}
		}},
		{"take+accept", func() {
			send(a, 1)
			m, err := dst.Take(AnySrc, AnyTag)
			if err != nil {
				t.Fatal(err)
			}
			dst.Accept(&m)
		}},
		{"tryrecv", func() {
			send(a, 1)
			if _, ok, err := dst.TryRecv(AnySrc, AnyTag); !ok || err != nil {
				t.Fatalf("TryRecv = %v, %v; want a message", ok, err)
			}
		}},
		{"traced", func() {
			for i := 0; i < 5; i++ { // more events than a ring holds
				if err := ta.Send(tdst.TID(), 1, payload); err != nil {
					t.Fatal(err)
				}
				if _, err := tdst.Recv(AnySrc, AnyTag); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"jitter", func() {
			if err := ja.Send(jdst.TID(), 1, payload); err != nil {
				t.Fatal(err)
			}
			if _, err := jdst.Recv(AnySrc, AnyTag); err != nil {
				t.Fatal(err)
			}
		}},
		{"mid-queue exact", func() {
			for i := 0; i < 8; i++ {
				if i == 4 {
					send(b, 2)
				} else {
					send(a, 1)
				}
			}
			recv(b.TID(), 2)
			for i := 0; i < 7; i++ {
				recv(AnySrc, AnyTag)
			}
		}},
	} {
		c.pair() // warm-up: grow the queue to its working size
		if allocs := testing.AllocsPerRun(100, c.pair); allocs != 0 {
			t.Errorf("%s: %.1f allocs per run, want 0", c.name, allocs)
		}
		if dst.Pending() != 0 {
			t.Fatalf("%s left %d messages queued", c.name, dst.Pending())
		}
	}
}
