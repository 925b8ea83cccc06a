package sam

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"samft/internal/codec"
	"samft/internal/ft"
	"samft/internal/netsim"
	"samft/internal/pvm"
)

// TestKindNameNoAlloc pins kindName at zero allocations: encodeWire's
// error path and every trace line go through it.
func TestKindNameNoAlloc(t *testing.T) {
	var sink string
	if n := testing.AllocsPerRun(100, func() {
		sink = kindName(kOwnerDeny)
		sink = kindName(len(kindNames))
	}); n != 0 {
		t.Fatalf("kindName allocates %v times per call pair", n)
	}
	_ = sink
	for k := kReg; k <= kOwnerDeny; k++ {
		if name := kindName(k); name == "" || name == "?" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if got := kindName(0); got != "?" {
		t.Errorf("kindName(0) = %q, want ?", got)
	}
}

// TestEveryKindIsNamed pins the kind list against its name table: kinds are
// numbered 1 … kOwnerDeny without a gap, each has a name of its own, and the
// table holds no name left over from a kind that is gone. The list only ever
// shrinks (ROADMAP: fewer message kinds, not more), so its length is pinned
// as a ceiling.
func TestEveryKindIsNamed(t *testing.T) {
	const last = kOwnerDeny
	if last > 26 {
		t.Errorf("%d message kinds, want at most 26: fold the new exchange into an existing one", last)
	}
	if len(kindNames) != last+1 {
		t.Errorf("kindNames has %d slots for %d kinds", len(kindNames), last)
	}
	seen := map[string]int{}
	for k := 1; k <= last; k++ {
		name := kindName(k)
		if name == "" || name == "?" {
			t.Errorf("kind %d has no name", k)
		} else if prev, dup := seen[name]; dup {
			t.Errorf("kinds %d and %d are both named %q", prev, k, name)
		}
		seen[name] = k
	}
}

// TestFrameSizes pins the frame sizes msg.go's comment states, and that a
// frame's two parts are the bytes of the one frame they replace: every field
// is encoded whether its kind uses it or not, so the smallest control frame
// and one whose delta stamp carries a single changed entry have fixed sizes,
// and a frame with a body is 162 bytes of header plus the body. Each frame
// also decodes back to the wire it was sent from, with the body attached.
func TestFrameSizes(t *testing.T) {
	var p Proc // no FT policy: encodeHead adds no stamp
	body := packPayload(t, 1)
	meta := ft.ObjectMeta{Name: 42, Version: 3}
	for _, tc := range []struct {
		what string
		w    *wire
		want int
	}{
		{"bare control frame", &wire{Kind: kCkptAck, Seq: 7, Target: 1}, 158},
		{"one-entry stamp", &wire{Kind: kCkptAck, Seq: 7, Target: 1, HasStamp: true, StampIdx: []int64{2}, StampVal: []int64{9}, StampC: 3}, 182},
		{"ObjData", &wire{Kind: kObjData, Name: 42, Body: body, Meta: meta, HasMeta: true, Inactive: true, Piece: 2}, 162 + len(body)},
		{"AccData", &wire{Kind: kAccData, Name: 42, Target: 3, Body: body, Meta: meta, HasMeta: true}, 162 + len(body)},
		{"CkptPriv", &wire{Kind: kCkptPriv, Body: body, Seq: 5, Inactive: true, Piece: -1}, 162 + len(body)},
		{"CkptCopy", &wire{Kind: kCkptCopy, Name: 42, Owner: 1, Body: body, Seq: 5, Meta: meta, HasMeta: true, Piece: -1}, 162 + len(body)},
		{"RecoverPriv", &wire{Kind: kRecoverPriv, Body: body, Seq: 5}, 162 + len(body)},
		{"RecoverData", &wire{Kind: kRecoverData, Name: 42, Body: body, Seq: 5, Meta: meta, HasMeta: true, Piece: -1}, 162 + len(body)},
	} {
		single, err := codec.Pack(tc.w)
		if err != nil {
			t.Fatalf("%s: %v", tc.what, err)
		}
		m := netsim.Message{Payload: p.encodeHead(tc.w, 1), Body: tc.w.Body}
		if m.Len() != tc.want || m.Len() != len(single) {
			t.Errorf("%s is %d B of header + %d B of body = %d B, want %d B, the single frame's %d B",
				tc.what, len(m.Payload), len(m.Body), m.Len(), tc.want, len(single))
		}
		got := new(wire)
		if err := decodeFrame(&m, got); err != nil {
			t.Fatalf("%s: decode: %v", tc.what, err)
		}
		if !reflect.DeepEqual(got, tc.w) {
			t.Errorf("%s decodes to %+v, want %+v", tc.what, got, tc.w)
		}
	}
}

// TestFrameHeadersAllocNothing pins the frame path's allocation contract
// (msg.go): between two real processes, a stamped frame sent through the
// network and handled by handleMessage allocates nothing once the header
// buffers circulate, with a body and without one. Each round is one frame
// each way, so every buffer a process packs into came back from its peer.
func TestFrameHeadersAllocNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops the codec's pooled encoders at random under the race detector")
	}
	m := pvm.NewMachine(netsim.Config{})
	block := make(chan struct{})
	tasks := make([]*pvm.Task, 2)
	tids := make([]pvm.TID, 2)
	for i := range tasks {
		tasks[i] = m.Spawn(fmt.Sprintf("t%d", i), func(*pvm.Task) { <-block })
		tids[i] = tasks[i].TID()
	}
	t.Cleanup(func() {
		close(block)
		m.Halt()
	})
	var procs [2]*Proc
	for r := range procs {
		procs[r] = NewProc(tasks[r], Config{Rank: r, Ranks: tids, Policy: ft.PolicySAM, Degree: 1})
	}
	body := packPayload(t, 1)
	for _, c := range []struct {
		what string
		w    wire
	}{
		{"control frame", wire{Kind: kForceAck}},
		{"frame with a body", wire{Kind: kCkptPriv, Body: body, Seq: 5, Inactive: true, Piece: -1}},
	} {
		round := func() {
			for r, p := range procs {
				w := c.w // a wire literal at a send site, as in the runtime
				p.send(1-r, &w)
				msg, err := tasks[1-r].Take(pvm.AnySrc, pvm.AnyTag)
				if err != nil {
					t.Fatal(err)
				}
				procs[1-r].handleMessage(msg)
			}
		}
		round() // warm-up: pool the codec's scratch, grow the stamps
		round()
		if n := testing.AllocsPerRun(100, round); n != 0 {
			t.Errorf("%s: a round trip made %.1f allocs, want 0", c.what, n)
		}
		for _, p := range procs {
			if got := p.recvWire; got.Kind != c.w.Kind || !got.HasStamp {
				t.Fatalf("%s: the last frame handled was %s (stamped %v)", c.what, kindName(got.Kind), got.HasStamp)
			}
		}
	}
	if got := procs[1].privStaging[0]; got.seq != 5 || unsafe.SliceData(got.body) != unsafe.SliceData(body) {
		t.Fatalf("the private state piece was not staged by reference: %+v", got)
	}
}

// TestSentBodiesAreShared: a body crosses the network by reference. The
// object a transaction pushes is stored at its receiver as the very bytes
// the sender packed and caches — one packed copy per object, however many
// processes hold it — and a body that arrives with a flipped byte is still
// caught: the frame is dropped whole, nothing is installed and nothing is
// acknowledged.
func TestSentBodiesAreShared(t *testing.T) {
	p, tasks, pieces := threeToOne(t)
	var push *wire
	for _, f := range pieces {
		if f.to == 1 && f.Kind == kObjData {
			push = f.wire
		}
	}
	if push == nil {
		t.Fatal("setup: no ObjData piece to rank 1")
	}
	name := Name(push.Name)
	cached := p.objs[name].packCache
	if len(cached) == 0 || unsafe.SliceData(push.Body) != unsafe.SliceData(cached) {
		t.Fatal("the body that arrived is a copy of the sender's packed object, not the object's one packed copy")
	}
	q, qtasks := testProcCfg(t, 5, Config{Rank: 1, Policy: ft.PolicySAM, Degree: 1})
	receive(t, q, qtasks, pieces)
	if o := q.objs[name]; o == nil || unsafe.SliceData(o.packCache) != unsafe.SliceData(cached) {
		t.Fatal("the receiver stores a copy of the pushed value's packed contents, not the sender's bytes")
	}

	// The same push, numbered so that it asks for an ack, to a fresh
	// receiver: with any one byte of its body flipped it must vanish.
	w := *push
	w.Piece = 0
	head := p.encodeHead(&w, 2)
	r, rtasks := testProcCfg(t, 5, Config{Rank: 2, Policy: ft.PolicySAM, Degree: 1})
	deliver := func(body []byte) {
		r.handleMessage(netsim.Message{Src: tasks[0].TID(), Tag: TagSAM, Payload: head, Body: body})
	}
	for i := range w.Body {
		bad := slices.Clone(w.Body)
		bad[i] ^= 0x20
		deliver(bad)
		if o := r.objs[name]; o != nil && o.data != nil {
			t.Fatalf("a body with byte %d of %d flipped was installed", i, len(bad))
		}
		if back := drain(t, rtasks); len(back) != 0 {
			t.Fatalf("a body with byte %d flipped drew %v", i, kindsTo(back, 0))
		}
	}
	deliver(w.Body)
	if o := r.objs[name]; o == nil || o.data == nil {
		t.Fatal("setup: the intact frame was not installed either")
	}
	if got := kindsTo(drain(t, rtasks), 0); !slices.Equal(got, []string{"CkptAck"}) {
		t.Fatalf("the intact frame drew %v, want one CkptAck", got)
	}
}

// TestSAMTagIsAUserTag: SAM's one tag sits in the user range and is not
// the exit notification's, the only other tag a process receives. Those
// two are the whole tag namespace of a run.
func TestSAMTagIsAUserTag(t *testing.T) {
	if TagSAM < pvm.TagUserBase {
		t.Errorf("TagSAM = %d is below pvm.TagUserBase = %d", TagSAM, pvm.TagUserBase)
	}
	if TagSAM == pvm.TagTaskExit {
		t.Errorf("TagSAM = %d is the exit notification's tag", TagSAM)
	}
}

// TestForeignMessagesAreDropped: the runtime receives on any tag, so
// handleMessage must drop what is not SAM's to decode: a message on another
// tag, even one carrying an intact SAM header (the runtime once decoded
// every non-exit message as a SAM frame), and a TagSAM message whose header
// is an intact frame of another registered type. A dropped message is
// dispatched to no handler, draws no reply and leaves its buffer to the
// network. The last row is the same header on TagSAM, which is all three.
func TestForeignMessagesAreDropped(t *testing.T) {
	priv, err := codec.Pack(&ft.PrivateState{Rank: 1, Seq: 3, T: []int64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		tag      int
		priv     bool // the header is priv, not a SAM header
		dispatch bool
	}{
		{"user tag", TagSAM + 1, false, false},
		{"reserved tag", pvm.TagTaskExit + 1, false, false},
		{"private state on TagSAM", TagSAM, true, false},
		{"SAM header on TagSAM", TagSAM, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, tasks := testProc(t, 0, 2, false)
			peer := NewProc(tasks[1], Config{Rank: 1, Ranks: p.cfg.Ranks, Policy: ft.PolicySAM, Degree: 1})
			name := nameHomedAt(t, 2, 0)
			head := priv
			if !tc.priv {
				head = peer.encodeHead(&wire{Kind: kReg, SrcRank: 1, Name: uint64(name)}, 0)
			}
			if err := tasks[1].SendParts(tasks[0].TID(), tc.tag, head, nil); err != nil {
				t.Fatal(err)
			}
			m, err := tasks[0].Take(pvm.AnySrc, pvm.AnyTag)
			if err != nil {
				t.Fatal(err)
			}
			p.handleMessage(m)
			d := p.dir[name]
			if got := d != nil && d.known && d.owner == 1; got != tc.dispatch {
				t.Errorf("the registration was dispatched: %v, want %v", got, tc.dispatch)
			}
			if got := len(p.headFree) == 1; got != tc.dispatch {
				t.Errorf("the header buffer was recycled: %v, want %v", got, tc.dispatch)
			}
			for r, task := range tasks {
				if task.Probe(pvm.AnySrc, pvm.AnyTag) {
					t.Errorf("rank %d was sent a message", r)
				}
			}
		})
	}
}

// FuzzDecodeFrame feeds decodeFrame arbitrary (header, body) pairs. It must
// never panic, and a pair it accepts must be rejected again with any one of
// its bytes changed: the header and the body are each covered by their own
// checksum. Every pair is also decoded into one wire reused across inputs,
// as a process's receive wire is, which must reach the same verdict and,
// on an accepted pair, the wire a fresh decode gives. With reseal set, the header's checksum is recomputed first, so
// that hostile bytes reach the decoder proper instead of stopping at the
// checksum. The seeds are a packed frame of every type the package
// registers and a frame of every message kind.
func FuzzDecodeFrame(f *testing.F) {
	body, err := codec.Pack(&recoveryPayload{X: 7})
	if err != nil {
		f.Fatal(err)
	}
	for _, v := range []interface{}{
		&wire{Kind: kReg}, &ft.PrivateState{Rank: 1, Seq: 3, AppState: body, T: []int64{1, 2}},
		&recoveryPayload{X: 1}, &txBlob{Fill: []byte("fill")}, &cacheProbe{A: 1, B: []float64{2}},
	} {
		b, err := codec.Pack(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b, []byte(nil), uint(len(b)/2), byte(1), false)
	}
	var p Proc
	for k := kReg; k <= kOwnerDeny; k++ {
		w := &wire{Kind: k, SrcRank: 1, Name: 42, Seq: 5, Piece: -1, Names: []uint64{42}, Counts: []int64{1},
			HasStamp: true, StampIdx: []int64{2}, StampVal: []int64{9}}
		switch k {
		case kObjData, kAccData, kCkptPriv, kCkptCopy, kRecoverPriv, kRecoverData:
			w.Body = body
		}
		head := p.encodeHead(w, 0)
		f.Add(head, w.Body, uint(k), byte(0x80), false)
		f.Add(head, w.Body, uint(len(head)), byte(0xff), true)
	}
	var reused wire
	f.Fuzz(func(t *testing.T, head, body []byte, at uint, flip byte, reseal bool) {
		if reseal && len(head) >= 6 {
			head = slices.Clone(head)
			binary.BigEndian.PutUint32(head[len(head)-4:], crc32.ChecksumIEEE(head[:len(head)-4]))
		}
		m := netsim.Message{Payload: head, Body: body}
		fresh := new(wire)
		err := decodeFrame(&m, fresh)
		if errReused := decodeFrame(&m, &reused); (err == nil) != (errReused == nil) {
			t.Fatalf("a fresh wire decodes with %v, the reused one with %v", err, errReused)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(&reused, fresh) {
			t.Fatalf("the reused wire decodes to %+v, a fresh one to %+v", reused, *fresh)
		}
		if flip == 0 {
			flip = 1
		}
		i := int(at % uint(len(head)+len(body)))
		h, b := slices.Clone(head), slices.Clone(body)
		if i < len(h) {
			h[i] ^= flip
		} else {
			b[i-len(h)] ^= flip
		}
		if w := new(wire); decodeFrame(&netsim.Message{Payload: h, Body: b}, w) == nil {
			t.Fatalf("byte %d of %d xor %#x was accepted: %+v", i, len(h)+len(b), flip, w)
		}
	})
}
