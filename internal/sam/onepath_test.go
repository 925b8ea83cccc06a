package sam

// White-box tests for the paths every caller now shares: the two copy
// freshness rules, self-addressed messages dispatched in send, the image a
// handler keeps versus the wire its sender re-sends, and Push of a value
// that has already been reclaimed, the instant a received message is
// charged to the process's clock, and the receive side's one read route
// (serveRead), one arrival tail (arrived) and one directory-owner writer
// (setOwner).

import (
	"math"
	"reflect"
	"testing"

	"samft/internal/ckptstore"
	"samft/internal/codec"
	"samft/internal/ft"
	"samft/internal/pvm"
)

// held describes the checkpoint copy a holder already has.
type held struct {
	owner   int
	seq     int64
	version int64
}

func (h held) install(t *testing.T, p *Proc, o *object) {
	w := &wire{
		Kind: kCkptCopy, Name: uint64(o.name), Owner: h.owner, Seq: h.seq,
		Meta: ft.ObjectMeta{Version: h.version}, HasMeta: true, Body: packPayload(t, 1),
	}
	p.applyCkptCopy(o, imageOf(w))
	if o.copy == nil || !o.usable() {
		t.Fatalf("setup: copy %+v installed as %+v, usable=%v", h, o.copy, o.usable())
	}
}

// TestHolderFreshnessRule pins acceptsCopy, the one holder-side rule for
// checkpoint copies.
func TestHolderFreshnessRule(t *testing.T) {
	const self, ownerA, ownerB = 0, 1, 2
	ver := func(v int64) (ft.ObjectMeta, bool) { return ft.ObjectMeta{Version: v}, true }
	cases := []struct {
		name   string
		isMain bool
		have   *held
		img    image
		hasVer int64 // incoming version; <0 = versionless
		want   bool
	}{
		{name: "nothing held", img: image{owner: ownerA, seq: 1}, hasVer: -1, want: true},
		{name: "own live main is authoritative", isMain: true, img: image{owner: self, seq: 9}, hasVer: 9, want: false},
		{name: "main, but the copy backs the migration target", isMain: true, img: image{owner: ownerA, seq: 1}, hasVer: 1, want: true},
		{name: "newer version", have: &held{ownerA, 5, 3}, img: image{owner: ownerA, seq: 6}, hasVer: 4, want: true},
		{name: "same version re-sent", have: &held{ownerA, 5, 3}, img: image{owner: ownerA, seq: 5}, hasVer: 3, want: true},
		{name: "older version, same owner, older seq", have: &held{ownerA, 5, 3}, img: image{owner: ownerA, seq: 4}, hasVer: 2, want: false},
		// The fall-through: the version test does not reject, it hands an
		// older version to the owner/seq test, which accepts a different
		// owner (and a same-owner copy no older by seq).
		{name: "older version, different owner", have: &held{ownerA, 5, 3}, img: image{owner: ownerB, seq: 1}, hasVer: 2, want: true},
		{name: "older version, same owner, newer seq", have: &held{ownerA, 5, 3}, img: image{owner: ownerA, seq: 6}, hasVer: 2, want: true},
		{name: "versionless, same owner, older seq", have: &held{ownerA, 5, 0}, img: image{owner: ownerA, seq: 4}, hasVer: -1, want: false},
		{name: "versionless, same owner, same seq", have: &held{ownerA, 5, 0}, img: image{owner: ownerA, seq: 5}, hasVer: -1, want: true},
		{name: "versionless, different owner", have: &held{ownerA, 5, 0}, img: image{owner: ownerB, seq: 1}, hasVer: -1, want: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, _ := testProc(t, self, 4, false)
			o := p.obj(MkName(7, 1, 0))
			if tc.have != nil {
				tc.have.install(t, p, o)
			}
			o.isMain = tc.isMain
			img := tc.img
			if tc.hasVer >= 0 {
				img.meta, img.hasMeta = ver(tc.hasVer)
			}
			if got := p.acceptsCopy(o, &img); got != tc.want {
				t.Errorf("acceptsCopy = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestCommittedCopyDecodesOnlyWhenInstalled: a checkpoint copy committed for
// an object whose contents are already usable here becomes its backing copy
// undecoded, so o.data keeps its pointer and nothing is allocated. A copy for
// an object with no usable contents is decoded and installed, unless its body
// does not decode.
func TestCommittedCopyDecodesOnlyWhenInstalled(t *testing.T) {
	p, _ := testProc(t, 0, 4, false)
	copyOf := func(name Name, body []byte) *image {
		return imageOf(&wire{Kind: kCkptCopy, Name: uint64(name), Owner: 1, Seq: 2, Body: body})
	}

	o := p.obj(MkName(7, 1, 0))
	held{owner: 1, seq: 1, version: 1}.install(t, p, o)
	data := o.data.(*recoveryPayload)
	img := copyOf(o.name, packPayload(t, 2))
	if n := testing.AllocsPerRun(10, func() { p.applyCkptCopy(o, img) }); n != 0 {
		t.Errorf("committing a copy over usable contents made %v allocs, want 0 (nothing decoded)", n)
	}
	if o.copy != img || o.data.(*recoveryPayload) != data || data.X != 1 {
		t.Errorf("copy %p, data %p (X=%d): want the new copy behind the old data %p (X=1)", o.copy, o.data, data.X, data)
	}

	fresh := p.obj(MkName(7, 2, 0))
	p.applyCkptCopy(fresh, copyOf(fresh.name, packPayload(t, 3)))
	if !fresh.usable() || fresh.data.(*recoveryPayload).X != 3 {
		t.Errorf("a copy of an object with no contents here was not installed: usable=%v data=%v", fresh.usable(), fresh.data)
	}

	bad := p.obj(MkName(7, 3, 0))
	p.applyCkptCopy(bad, copyOf(bad.name, []byte("not a frame")))
	if bad.copy != nil || bad.usable() {
		t.Errorf("a copy whose body does not decode was installed: copy %+v, usable=%v", bad.copy, bad.usable())
	}
}

// TestRecoveringFreshnessRule pins keepNewer, the one recovering-side rule
// (the restore stash and unconfirmedData both go through it). Unlike the holder
// side there is no fall-through: with metadata on both, the version decides.
func TestRecoveringFreshnessRule(t *testing.T) {
	const name = 42
	meta := func(src int, seq, version int64) *image {
		return &image{name: name, sender: src, seq: seq, meta: ft.ObjectMeta{Version: version}, hasMeta: true}
	}
	bare := func(src int, seq int64) *image { return &image{name: name, sender: src, seq: seq} }
	cases := []struct {
		name    string
		prev, w *image
		want    bool // w replaces prev
	}{
		{"first contribution", nil, bare(1, 1), true},
		{"newer version", meta(1, 5, 3), meta(2, 1, 4), true},
		{"same version", meta(1, 5, 3), meta(2, 1, 3), true},
		{"older version, different survivor, newer seq", meta(1, 5, 3), meta(2, 9, 2), false},
		{"versionless, different survivor", bare(1, 5), bare(2, 1), true},
		{"versionless, same survivor, older seq", bare(1, 5), bare(1, 4), false},
		{"versionless, same survivor, same seq", bare(1, 5), bare(1, 5), true},
		{"metadata on one side only, same survivor, older seq", meta(1, 5, 3), bare(1, 4), false},
		{"metadata on one side only, different survivor", bare(1, 5), meta(2, 1, 0), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			best := map[Name]*image{}
			if tc.prev != nil {
				best[name] = tc.prev
			}
			keepNewer(best, tc.w)
			if got := best[name] == tc.w; got != tc.want {
				t.Errorf("replaced = %v, want %v", got, tc.want)
			}
		})
	}
}

// appCmd submits an application command straight to the runtime's handler
// and returns it; done reports whether (and how) it has completed.
func appCmd(p *Proc, c *cmd) *cmd {
	c.res = make(chan cmdResult, 1)
	p.handleCmd(c)
	return c
}

func done(c *cmd) (cmdResult, bool) {
	select {
	case r := <-c.res:
		return r, true
	default:
		return cmdResult{}, false
	}
}

// TestSelfHomedRequestsStayLocal runs the three request kinds with rank 0
// as both home and requester and rank 1 as owner: the request leg is a
// self-addressed message, so it must reach the directory without touching
// the network, and each access must complete once the owner's reply is in.
func TestSelfHomedRequestsStayLocal(t *testing.T) {
	const owner = 1
	body := func(t *testing.T) []byte { return packPayload(t, 7) }
	cases := []struct {
		name             string
		op               cmdOp
		kind             ft.ObjKind
		reg, fwd, answer int
	}{
		{"value fetch", opUseValue, ft.KindValue, kReg, kReadFwd, kObjData},
		{"accumulator acquire", opUpdateAccum, ft.KindAccum, kReg, kAccGrant, kAccData},
		{"chaotic read", opChaoticRead, ft.KindAccum, kReg, kReadFwd, kObjData},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, tasks := testProcCfg(t, 2, Config{Rank: 0, Policy: ft.PolicyOff})
			name := nameHomedAt(t, 2, 0)
			sent := func() int64 { return tasks[0].Endpoint().Stats().MsgsSent }

			before := sent()
			c := appCmd(p, &cmd{op: tc.op, name: name})
			if _, ok := done(c); ok {
				t.Fatal("access completed before any owner existed")
			}
			if got := sent() - before; got != 0 {
				t.Fatalf("request leg to a self-homed name put %d message(s) on the network", got)
			}
			d := p.dirEnt(name)
			if len(d.pendingRead)+len(d.acqQueue) != 1 {
				t.Fatalf("request not parked in our own directory: %+v", d)
			}

			// The owner registers: the parked request is forwarded to it —
			// the one network message of the whole exchange from this side.
			p.dispatch(&wire{Kind: tc.reg, SrcRank: owner, Name: uint64(name)})
			if got := sent() - before; got != 1 {
				t.Fatalf("messages sent after registration = %d, want 1 (the forward)", got)
			}
			if w := recvWire(t, tasks[owner]); w.Kind != tc.fwd || w.Target != 0 || Name(w.Name) != name {
				t.Fatalf("forward = %s target %d, want %s target 0", kindName(w.Kind), w.Target, kindName(tc.fwd))
			}

			p.dispatch(&wire{
				Kind: tc.answer, SrcRank: owner, Name: uint64(name), Target: 0, Body: body(t),
				Meta: ft.ObjectMeta{Kind: uint8(tc.kind)}, HasMeta: true,
			})
			r, ok := done(c)
			if !ok || r.err != nil {
				t.Fatalf("access did not complete after the owner's reply: done=%v err=%v", ok, r.err)
			}
			if v, _ := r.obj.(*recoveryPayload); v == nil || v.X != 7 {
				t.Fatalf("access returned %#v, want payload 7", r.obj)
			}
		})
	}
}

// TestKeptWireIsNotTheSendersWire covers direct dispatch's one hazard: a
// transaction piece addressed to ourselves is handed to the handler as the
// very struct the transaction keeps for re-sending. Re-sending it to a peer
// packs a header stamped for that peer and leaves the struct as it was;
// what the handler keeps is an image (or a privImage), which has no sender
// or stamp fields anyway — and must stay as it was received.
func TestKeptWireIsNotTheSendersWire(t *testing.T) {
	p, tasks := testProc(t, 0, 4, false)
	name := nameHomedAt(t, 4, 2)
	// A planned transaction of three pieces: two to ourselves, and one to a
	// peer whose ack stays out, so the transaction stays open.
	tx := &ckptTx{seq: 5}
	p.tx = tx

	copyPiece := &wire{
		Kind: kCkptCopy, Name: uint64(name), Body: packPayload(t, 1), Seq: 5,
		Inactive: true, Owner: 3, Meta: ft.ObjectMeta{Version: 1}, HasMeta: true,
	}
	privPiece := &wire{Kind: kCkptPriv, Body: packPayload(t, 2), Seq: 5, Inactive: true}
	tx.add(0, copyPiece)
	tx.add(0, privPiece)
	tx.add(2, &wire{Kind: kCkptPriv, Body: packPayload(t, 2), Seq: 5, Inactive: true})
	p.sendTx(tx)
	recvWire(t, tasks[2])

	pending, staged := p.obj(name).pending, p.privStaging[0]
	if pending == nil || staged.body == nil {
		t.Fatalf("self-addressed pieces were not retained: pending=%v staged=%+v", pending, staged)
	}
	if p.tx != tx || tx.acksNeeded != 1 {
		t.Fatalf("self-addressed pieces left %d acks outstanding (open=%v), want only the foreign one", tx.acksNeeded, p.tx == tx)
	}
	beforeCopy, beforePriv := *pending, staged

	// A recipient failure re-sends the transaction's pieces (§4.5); here the
	// sender's structs go out again, to a peer, whose headers carry a stamp.
	for _, w := range []*wire{copyPiece, privPiece} {
		was := *w
		p.send(1, w)
		if got := recvWire(t, tasks[1]); !got.HasStamp {
			t.Fatal("setup: the re-sent header carries no stamp")
		}
		if !reflect.DeepEqual(*w, was) {
			t.Errorf("re-sending %s rewrote the sender's wire: %+v, was %+v", kindName(w.Kind), *w, was)
		}
	}
	if got := p.obj(name).pending; got != pending || !reflect.DeepEqual(*got, beforeCopy) {
		t.Errorf("pending copy changed when the sender re-sent its piece: %+v, was %+v", got, beforeCopy)
	}
	if got := p.privStaging[0]; !reflect.DeepEqual(got, beforePriv) {
		t.Errorf("staged private state changed when the sender re-sent its piece: %+v, was %+v", got, beforePriv)
	}
}

// TestPushAfterReclaimIsNoOp is the regression test for the no-FT GPS
// crash: a value's declared uses can all be reported — by consumers that
// fetched it themselves — while the creator is still working through its
// Push calls, and an exhausted value is reclaimed whenever cache pressure
// replaces it. Push is a delivery hint, so pushing the reclaimed value is a
// no-op; pushing something this process holds but did not create stays an
// error.
func TestPushAfterReclaimIsNoOp(t *testing.T) {
	p, tasks := testProcCfg(t, 3, Config{Rank: 0, Policy: ft.PolicyOff})
	name := nameHomedAt(t, 3, 0)

	if r, _ := done(appCmd(p, &cmd{op: opCreateValue, name: name, obj: &recoveryPayload{X: 5}, accesses: 2})); r.err != nil {
		t.Fatalf("create: %v", r.err)
	}
	// Both consumers fetch the value, use it, and report the use at their
	// step boundary — all before the creator's first Push.
	for _, consumer := range []int{1, 2} {
		p.dispatch(&wire{Kind: kReadReq, SrcRank: consumer, Name: uint64(name)})
		if w := recvWire(t, tasks[consumer]); w.Kind != kObjData {
			t.Fatalf("consumer %d got %s, want ObjData", consumer, kindName(w.Kind))
		}
		p.dispatch(&wire{Kind: kValUsed, SrcRank: consumer, Names: []uint64{uint64(name)}, Counts: []int64{1}})
	}
	// Cache pressure: a backlog's worth of younger exhausted values.
	for a, made := 0, 0; made < maxFreeBacklog; a++ {
		filler := MkName(8, a, 0)
		if ckptstore.HomeRank(uint64(filler), 3) != 0 {
			continue // registering it would put a message on the network
		}
		made++
		if r, _ := done(appCmd(p, &cmd{op: opCreateValue, name: filler, obj: &recoveryPayload{}, accesses: 1})); r.err != nil {
			t.Fatalf("create filler: %v", r.err)
		}
		p.dispatch(&wire{Kind: kValUsed, SrcRank: 1, Names: []uint64{uint64(filler)}, Counts: []int64{1}})
	}
	if p.objs[name] != nil {
		t.Fatal("setup: value not reclaimed after its declared uses and a full backlog")
	}

	for _, dst := range []int{1, 2} {
		r, ok := done(appCmd(p, &cmd{op: opPush, name: name, rank: dst}))
		if !ok || r.err != nil {
			t.Fatalf("Push of a reclaimed value to %d: done=%v err=%v, want a no-op", dst, ok, r.err)
		}
	}
	if tasks[1].Probe(pvm.AnySrc, TagSAM) || tasks[2].Probe(pvm.AnySrc, TagSAM) {
		t.Error("Push of a reclaimed value sent something")
	}

	// An entry that exists but is not an owned, created value: still an error.
	cached := nameHomedAt(t, 3, 1)
	p.dispatch(&wire{
		Kind: kObjData, SrcRank: 1, Name: uint64(cached), Body: packPayload(t, 9),
		Meta: ft.ObjectMeta{Kind: uint8(ft.KindValue)}, HasMeta: true,
	})
	if r, _ := done(appCmd(p, &cmd{op: opPush, name: cached, rank: 2})); r.err == nil {
		t.Error("Push of a value cached from another owner did not fail")
	}
}

// TestFreeCkptOnlyDropsTheSendersCopy is the regression test for a recovery
// hang (TestCounterSurvives* under -race): a holder keeps one checkpoint
// copy per object, and a previous owner's kFreeCkpt — sent when the
// transaction that migrated the object away commits — can arrive after the
// next owner's transaction has already put a newer copy, or a still-inactive
// one, in that slot. Dropping it destroys the object's only backup; if the
// new owner then dies, nobody can restore the object.
func TestFreeCkptOnlyDropsTheSendersCopy(t *testing.T) {
	const self, oldOwner, newOwner = 1, 0, 2
	p, _ := testProc(t, self, 4, false)
	name := nameHomedAt(t, 4, 3)
	o := p.obj(name)
	held{owner: newOwner, seq: 20, version: 8}.install(t, p, o)

	free := func(from int) { p.dispatch(&wire{Kind: kFreeCkpt, SrcRank: from, Name: uint64(name), Seq: 17}) }

	free(oldOwner)
	if o.copy == nil || o.copy.owner != newOwner || o.copy.body == nil {
		t.Fatal("a previous owner's free dropped the copy backing the new owner")
	}

	// Same race one step earlier: the new owner's copy is still inactive,
	// behind an older committed copy that does back the freeing rank.
	o.copy.owner = oldOwner
	o.pending = &image{name: name, sender: self, owner: newOwner, seq: 20, body: packPayload(t, 2)}
	free(oldOwner)
	if o.copy != nil {
		t.Error("the freeing owner's own committed copy was kept")
	}
	if p.objs[name] != o || o.pending == nil {
		t.Fatal("a previous owner's free dropped the new owner's pending copy")
	}

	// The owner a copy backs does free it, pending or committed.
	p.onActivate(activation{from: self, seq: 20})
	if o.copy == nil || o.copy.owner != newOwner {
		t.Fatalf("setup: pending copy not activated (copy=%+v)", o.copy)
	}
	o.pending = &image{name: name, sender: newOwner, owner: newOwner, seq: 21}
	free(newOwner)
	if _, ok := p.objs[name]; ok {
		t.Errorf("the owner's free left its copies behind: copy=%v pending=%v", o.copy, o.pending)
	}
}

// TestReceiveIsChargedWhenHandled pins when a message costs the process
// modeled time: when the runtime loop turns to it, not when the receiver
// goroutine dequeues it. The process has one clock; a frame from a peer
// whose clock is a second ahead, already moved into netq, must not raise it
// under a handler that is in the middle of a burst of sends (that is what
// serialised a checkpoint transaction's copies behind its own acks).
func TestReceiveIsChargedWhenHandled(t *testing.T) {
	const owner, late, parked = 1, 2, 3
	p, tasks := testProcCfg(t, 4, Config{Rank: 0, Policy: ft.PolicyOff})
	ep := tasks[0].Endpoint()
	cost := ep.Network().Cost()
	name := nameHomedAt(t, 4, 0)

	// Three fetches parked in our directory: the owner's registration
	// forwards all of them, one handler issuing three sends.
	for r := 1; r <= parked; r++ {
		p.dispatch(&wire{Kind: kReadReq, SrcRank: r, Name: uint64(name)})
	}
	before := ep.ClockUS()

	frame, err := codec.Pack(&wire{Kind: kReadReq, SrcRank: late, Name: uint64(name)})
	if err != nil {
		t.Fatal(err)
	}
	tasks[late].Endpoint().AdvanceTo(1e6)
	if err := tasks[late].Send(tasks[0].TID(), TagSAM, frame); err != nil {
		t.Fatal(err)
	}
	go p.receiver() // exits when the machine halts
	m := <-p.netq   // dequeued from the mailbox, not yet handled
	if m.ArrivalUS < 1e6 {
		t.Fatalf("setup: frame arrives at %.0f us, want a second ahead", m.ArrivalUS)
	}

	p.dispatch(&wire{Kind: kReg, SrcRank: owner, Name: uint64(name)})
	if got, want := ep.ClockUS()-before, parked*cost.SendOverheadUS; math.Abs(got-want) > 1e-6 {
		t.Fatalf("handler with %d sends advanced the clock by %.1f us, want %.1f: the undelivered frame was charged at dequeue",
			parked, got, want)
	}
	if got := ep.Stats().MsgsRecvd; got != 0 {
		t.Fatalf("%d message(s) counted as received before any was handled", got)
	}

	p.handleMessage(m)
	if got, floor := ep.ClockUS(), m.ArrivalUS+cost.RecvOverheadUS; got < floor {
		t.Fatalf("clock after handling the frame = %.1f us, want >= arrival + receive overhead = %.1f", got, floor)
	}
	if got := ep.Stats().MsgsRecvd; got != 1 {
		t.Fatalf("messages received after handling = %d, want 1", got)
	}
	if w := recvWire(t, tasks[owner]); w.Kind != kReadFwd {
		t.Fatalf("owner got %s, want the forwarded fetch", kindName(w.Kind))
	}
}

// onlyTo fails the test unless rank is the only peer with a protocol message
// waiting. Sends are synchronous into the peer's mailbox, so a handler's
// whole output is there to be probed the moment it returns.
func onlyTo(t *testing.T, tasks []*pvm.Task, rank int) {
	t.Helper()
	for r, task := range tasks {
		if got := task.Probe(pvm.AnySrc, TagSAM); got != (r == rank) {
			t.Fatalf("message waiting at rank %d = %v, want messages at rank %d only", r, got, rank)
		}
	}
}

// TestInactiveSnapshotIsRefetchedWhenItsSenderDies pins the arrival tail both
// kinds of object share: contents that arrive inactive leave the request
// they answer outstanding, so when their sender dies before activating them
// the entry is reverted and the read is re-issued — the reader is not left
// parked on data that will never become usable. (The accumulator row hung
// while snapshots had an arrival path of their own that cleared the request
// on arrival.)
func TestInactiveSnapshotIsRefetchedWhenItsSenderDies(t *testing.T) {
	const home, sender = 2, 1
	cases := []struct {
		name string
		op   cmdOp
		kind ft.ObjKind
	}{
		{"chaotic read", opChaoticRead, ft.KindAccum},
		{"value fetch", opUseValue, ft.KindValue},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, tasks := testProc(t, 0, 4, false)
			name := nameHomedAt(t, 4, home)
			c := appCmd(p, &cmd{op: tc.op, name: name})
			onlyTo(t, tasks, home)
			if w := recvWire(t, tasks[home]); w.Kind != kReadReq || Name(w.Name) != name {
				t.Fatalf("read request = %s %v, want ReadReq %v", kindName(w.Kind), Name(w.Name), name)
			}

			// The owner's reply rides its checkpoint transaction: acknowledged
			// at once, unusable until the activation.
			p.dispatch(&wire{
				Kind: kObjData, SrcRank: sender, Name: uint64(name), Body: packPayload(t, 7),
				Inactive: true, Seq: 5, Piece: 0, Meta: ft.ObjectMeta{Kind: uint8(tc.kind)}, HasMeta: true,
			})
			onlyTo(t, tasks, sender)
			if w := recvWire(t, tasks[sender]); w.Kind != kCkptAck {
				t.Fatalf("inactive contents answered with %s, want CkptAck", kindName(w.Kind))
			}
			if _, ok := done(c); ok {
				t.Fatal("access served from contents that are not committed yet")
			}

			// The owner dies before activating and is restarted.
			reborn := respawn(t, p, "t1b")
			p.noteIncarnation(sender, reborn.TID(), false)

			if o := p.objs[name]; o.state != stAbsent || o.data != nil || !o.fetchOutstanding {
				t.Fatalf("entry after its sender's death: state=%v data=%v outstanding=%v, want absent and re-requested",
					o.state, o.data, o.fetchOutstanding)
			}
			if !tasks[home].Probe(pvm.AnySrc, TagSAM) {
				t.Fatal("the read was not re-issued: the reader stays parked forever")
			}
			// dropProvisionalFrom re-issues it, and so does the contribution
			// to the restarted rank (every outstanding request); the home's
			// queues are idempotent. Nothing else goes to the home.
			for tasks[home].Probe(pvm.AnySrc, TagSAM) {
				if w := recvWire(t, tasks[home]); w.Kind != kReadReq || Name(w.Name) != name {
					t.Fatalf("home got %s %v, want the re-issued ReadReq %v", kindName(w.Kind), Name(w.Name), name)
				}
			}
			if _, ok := done(c); ok {
				t.Fatal("access completed without any contents")
			}
		})
	}
}

// TestStaleReadForwardFollowsTheAccumulator: the home forwards a read to the
// owner it knows, and the accumulator can leave before the forward arrives.
// The previous owner knows where it went; the read follows it there. (It
// used to be dropped with only a kAccOwner to the home, which re-drives
// stale grants but not reads: the reader hung.)
func TestStaleReadForwardFollowsTheAccumulator(t *testing.T) {
	const home, successor, reader = 2, 1, 3
	p, tasks := testProcCfg(t, 4, Config{Rank: 0, Policy: ft.PolicyOff})
	name := nameHomedAt(t, 4, home)
	if r, _ := done(appCmd(p, &cmd{op: opCreateAccum, name: name, obj: &recoveryPayload{X: 7}})); r.err != nil {
		t.Fatalf("create: %v", r.err)
	}
	if w := recvWire(t, tasks[home]); w.Kind != kReg {
		t.Fatalf("creation sent %s to the home, want Reg", kindName(w.Kind))
	}

	// The home grants the accumulator to rank 1; with fault tolerance off it
	// leaves at once.
	p.dispatch(&wire{Kind: kAccGrant, SrcRank: home, Name: uint64(name), Target: successor})
	if w := recvWire(t, tasks[successor]); w.Kind != kAccData {
		t.Fatalf("grant made the owner send %s, want AccData", kindName(w.Kind))
	}
	if w := recvWire(t, tasks[home]); w.Kind != kAccOwner || w.Target != successor {
		t.Fatalf("hand-off told the home %s target %d, want AccOwner target %d", kindName(w.Kind), w.Target, successor)
	}
	if o := p.objs[name]; o.isMain || o.ownerRank != successor {
		t.Fatalf("setup: after the hand-off isMain=%v ownerRank=%d", o.isMain, o.ownerRank)
	}

	// A read the home forwarded before it heard of the migration.
	p.dispatch(&wire{Kind: kReadFwd, SrcRank: home, Name: uint64(name), Target: reader})
	onlyTo(t, tasks, successor)
	if w := recvWire(t, tasks[successor]); w.Kind != kReadFwd || w.Target != reader || Name(w.Name) != name {
		t.Fatalf("previous owner sent %s target %d, want the ReadFwd passed on with target %d",
			kindName(w.Kind), w.Target, reader)
	}
	onlyTo(t, tasks, -1)
}

// TestSetOwnerIsTheOnlyDirectoryWriter: a read that reached the home before
// it knew an owner waits in the directory entry, and every way the home can
// learn the owner routes it — not only a registration. Each of these wrote
// the entry by hand once and left the reader stranded.
func TestSetOwnerIsTheOnlyDirectoryWriter(t *testing.T) {
	const reader = 3
	cases := []struct {
		name       string
		recovering bool
		learn      func(t *testing.T, p *Proc, tasks []*pvm.Task, name Name)
		// The read ends at rank dst as kind.
		dst, kind int
	}{
		{"our own main copy is restored", true, func(t *testing.T, p *Proc, tasks []*pvm.Task, name Name) {
			// A survivor re-issued its fetch to the new incarnation before
			// the restore completed.
			p.inc.restoring = false
			p.inc.ownerConfirmed[name] = true
			p.stashOrInstall(&image{
				name: name, sender: 1, seq: 1, body: packPayload(t, 7),
				meta: ft.ObjectMeta{Kind: uint8(ft.KindValue)}, hasMeta: true,
			})
		}, reader, kObjData},
		{"an orphan-ownership query is granted", false, func(t *testing.T, p *Proc, tasks []*pvm.Task, name Name) {
			p.dispatch(&wire{Kind: kOwnerQuery, SrcRank: 1, Name: uint64(name)})
			if w := recvWire(t, tasks[1]); w.Kind != kOwnerReport {
				t.Fatalf("query answered with %s, want OwnerReport", kindName(w.Kind))
			}
		}, 1, kReadFwd},
		{"a migration completes", false, func(t *testing.T, p *Proc, tasks []*pvm.Task, name Name) {
			p.dispatch(&wire{Kind: kAccOwner, SrcRank: 2, Name: uint64(name), Target: 1})
		}, 1, kReadFwd},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, tasks := testProc(t, 0, 4, tc.recovering)
			name := nameHomedAt(t, 4, 0)
			p.dispatch(&wire{Kind: kReadReq, SrcRank: reader, Name: uint64(name)})
			d := p.dirEnt(name)
			if d.known || len(d.pendingRead) != 1 {
				t.Fatalf("setup: read not parked in the directory: %+v", d)
			}
			onlyTo(t, tasks, -1)

			tc.learn(t, p, tasks, name)

			if !d.known || len(d.pendingRead) != 0 {
				t.Fatalf("directory after learning the owner: known=%v owner=%d pendingRead=%v, want the read routed",
					d.known, d.owner, d.pendingRead)
			}
			onlyTo(t, tasks, tc.dst)
			w := recvWire(t, tasks[tc.dst])
			if w.Kind != tc.kind || Name(w.Name) != name || w.Target != reader {
				t.Fatalf("rank %d got %s target %d, want %s target %d",
					tc.dst, kindName(w.Kind), w.Target, kindName(tc.kind), reader)
			}
		})
	}
}
