package sam

import (
	"testing"
	"unsafe"

	"samft/internal/ft"
	"samft/internal/netsim"
	"samft/internal/pvm"
)

// White-box tests of the replay-input re-send (resend.go): real processes
// over a network, the survivor's contribution taken off the replacement's
// queue and handed to a replacement process.

// survivorWithValues builds rank 0 of n as a survivor that owns one created,
// stable value per payload, each homed at rank 0, so that a read by any
// other rank goes to rank 0's task.
func survivorWithValues(t *testing.T, n int, payloads ...int64) (*Proc, []*pvm.Task, []Name) {
	t.Helper()
	p, tasks := testProcCfg(t, n, Config{Rank: 0, Policy: ft.PolicySAM, Degree: 1})
	var names []Name
	for a := 0; len(names) < len(payloads); a++ {
		name := MkName(41, a, 0)
		if p.home(name) != 0 {
			continue
		}
		x := payloads[len(names)]
		if r, ok := done(appCmd(p, &cmd{op: opCreateValue, name: name, obj: &recoveryPayload{X: x}, accesses: Unlimited})); !ok || r.err != nil {
			t.Fatalf("CreateValue(%v): done=%v err=%v", name, ok, r.err)
		}
		names = append(names, name)
	}
	return p, tasks, names
}

// push sends the survivor's value to rank as the application's Push does,
// and discards the frame at the old incarnation's task.
func push(t *testing.T, p *Proc, tasks []*pvm.Task, name Name, rank int) {
	t.Helper()
	if r, ok := done(appCmd(p, &cmd{op: opPush, name: name, rank: rank})); !ok || r.err != nil {
		t.Fatalf("Push(%v): done=%v err=%v", name, ok, r.err)
	}
	take(t, tasks[rank])
}

// report delivers rank's use report of names to the survivor, stamped with
// rank's virtual time at.
func report(p *Proc, rank int, at int64, names ...Name) {
	w := &wire{Kind: kValUsed, SrcRank: rank, HasStamp: true, StampT: make([]int64, len(p.ranks))}
	w.StampT[rank] = at
	for _, n := range names {
		w.Names = append(w.Names, uint64(n))
		w.Counts = append(w.Counts, 1)
	}
	p.dispatch(w)
}

// replace restarts rank as a recovery coordinator would: it spawns the
// replacement's task and tells p, which contributes to it. It returns the
// replacement process, fed nothing yet, and the frames queued for it, in
// order.
func replace(t *testing.T, p *Proc, rank int) (*Proc, []wireFrame) {
	t.Helper()
	task := respawn(t, p, "replacement")
	p.noteIncarnation(rank, task.TID(), false)
	ranks := append([]pvm.TID(nil), p.cfg.Ranks...)
	ranks[rank] = task.TID()
	r := NewProc(task, Config{Rank: rank, Ranks: ranks, Policy: ft.PolicySAM, Degree: 1, Recovering: true})
	return r, queued(t, task)
}

// wireFrame is one queued frame and the kind and name its header carries.
type wireFrame struct {
	kind int
	name Name
	msg  netsim.Message
}

// queued takes every frame queued at task.
func queued(t *testing.T, task *pvm.Task) []wireFrame {
	t.Helper()
	var fs []wireFrame
	for task.Probe(pvm.AnySrc, pvm.AnyTag) {
		m := take(t, task)
		var w wire
		if err := decodeFrame(&m, &w); err != nil {
			t.Fatal(err)
		}
		fs = append(fs, wireFrame{kind: w.Kind, name: Name(w.Name), msg: m})
	}
	return fs
}

// resentAfterFin returns the names of the kObjData frames that follow the
// kRecoverFin, in order; it fails the test if there is no fin.
func resentAfterFin(t *testing.T, fs []wireFrame) []Name {
	t.Helper()
	fin := -1
	for i, f := range fs {
		if f.kind == kRecoverFin {
			fin = i
			break
		}
	}
	if fin < 0 {
		t.Fatal("the survivor sent no kRecoverFin")
	}
	var names []Name
	for _, f := range fs[fin+1:] {
		if f.kind == kObjData {
			names = append(names, f.name)
		}
	}
	for _, f := range fs[:fin] {
		if f.kind == kObjData {
			t.Errorf("value %v was sent before the kRecoverFin", f.name)
		}
	}
	return names
}

// TestResendReachesTheReplacementAfterItsFin: a value pushed to a rank that
// dies before reporting its use goes to the replacement again, after the
// survivor's kRecoverFin, and the replay's UseValue reads it from the cache:
// no kReadReq reaches the value's home.
func TestResendReachesTheReplacementAfterItsFin(t *testing.T) {
	const failed = 1
	p, tasks, names := survivorWithValues(t, 2, 7)
	v := names[0]
	push(t, p, tasks, v, failed)

	r, fs := replace(t, p, failed)
	if got := resentAfterFin(t, fs); len(got) != 1 || got[0] != v {
		t.Fatalf("re-sent after the fin: %v, want [%v]", got, v)
	}
	if p.st.Resent.Load() != 1 || p.st.ResentBytes.Load() == 0 {
		t.Errorf("Resent = %d, ResentBytes = %d, want 1 and the value's bytes", p.st.Resent.Load(), p.st.ResentBytes.Load())
	}
	for _, f := range fs {
		r.handleMessage(f.msg)
	}
	if r.restoring() {
		t.Fatal("the replacement did not restore from the survivor's fresh vote")
	}
	c := appCmd(r, &cmd{op: opUseValue, name: v})
	res, ok := done(c)
	if !ok || res.err != nil {
		t.Fatalf("the replay's UseValue: done=%v err=%v", ok, res.err)
	}
	if x := res.obj.(*recoveryPayload).X; x != 7 {
		t.Errorf("the replay read %d, want 7", x)
	}
	if n := r.st.Misses.Load(); n != 0 {
		t.Errorf("the replay missed %d times", n)
	}
	for _, f := range queued(t, tasks[0]) {
		if f.kind == kReadReq {
			t.Errorf("the replay sent a kReadReq for %v", f.name)
		}
	}
}

// TestResendGoesOncePerIncarnation: the replacement's own kRecovery asks a
// survivor that already contributed to it for its contribution again; the
// second one leaves the re-sent values out, since the first one's are
// already on their way to the same task.
func TestResendGoesOncePerIncarnation(t *testing.T) {
	const failed = 1
	p, tasks, names := survivorWithValues(t, 2, 7)
	push(t, p, tasks, names[0], failed)
	r, fs := replace(t, p, failed)
	if got := resentAfterFin(t, fs); len(got) != 1 {
		t.Fatalf("the first contribution re-sent %v", got)
	}
	p.dispatch(&wire{Kind: kRecovery, SrcRank: failed, Target: failed, NewTID: int(r.task.TID())})
	again := queued(t, r.task)
	if got := resentAfterFin(t, again); len(got) != 0 {
		t.Errorf("the second contribution re-sent %v", got)
	}
	if n := p.st.Resent.Load(); n != 1 {
		t.Errorf("Resent = %d, want 1", n)
	}
}

// TestResendSkipsAUseALaterCheckpointCovers: a value whose use a rank
// reported before its clock moved on (it began a checkpoint) is not re-sent
// to its replacement, whether the move shows in a later report (rank 1) or
// in any later stamped message (rank 2); a value it reported using after the
// move, and one it never reported, are.
func TestResendSkipsAUseALaterCheckpointCovers(t *testing.T) {
	p, tasks, names := survivorWithValues(t, 3, 1, 2, 3, 4)
	covered, reread, unreported, ticked := names[0], names[1], names[2], names[3]
	for _, v := range names[:3] {
		push(t, p, tasks, v, 1)
	}
	push(t, p, tasks, ticked, 2)
	report(p, 1, 5, covered)
	report(p, 1, 6, reread) // rank 1's clock moved on after its first report
	report(p, 2, 5, ticked)
	report(p, 2, 6) // a stamped message that reports nothing
	for _, c := range []struct {
		v    Name
		rank int
		want bool
	}{{covered, 1, false}, {reread, 1, true}, {unreported, 1, true}, {ticked, 2, false}} {
		if got := p.mayReread(p.objs[c.v], c.rank); got != c.want {
			t.Errorf("mayReread(%v, rank %d) = %v, want %v", c.v, c.rank, got, c.want)
		}
	}
	_, fs := replace(t, p, 1)
	if got := resentAfterFin(t, fs); len(got) != 2 || got[0] != reread || got[1] != unreported {
		t.Errorf("re-sent to rank 1 after the fin: %v, want [%v %v]", got, reread, unreported)
	}
	_, fs = replace(t, p, 2)
	if got := resentAfterFin(t, fs); len(got) != 0 {
		t.Errorf("re-sent to rank 2 after the fin: %v, want none", got)
	}
}

// TestResendAfterTheFetchChangesNothing: when the replay has already
// fetched and read a value (its read was answered before the re-sent copy
// was handled), the re-sent copy is dropped: the replacement keeps the
// contents and the frame it read, owes the same use report, and sends
// nothing.
func TestResendAfterTheFetchChangesNothing(t *testing.T) {
	const failed = 1
	p, tasks, names := survivorWithValues(t, 2, 9)
	v := names[0]
	push(t, p, tasks, v, failed)

	r, fs := replace(t, p, failed)
	if got := resentAfterFin(t, fs); len(got) != 1 || got[0] != v {
		t.Fatalf("re-sent after the fin: %v, want [%v]", got, v)
	}
	last := len(fs) - 1
	if fs[last].kind != kObjData {
		t.Fatalf("the contribution ends with kind %s, not the re-sent copy", kindName(fs[last].kind))
	}
	for _, f := range fs[:last] {
		r.handleMessage(f.msg)
	}
	// The replay's read, answered by the owner, is handled first.
	p.serveRead(v, failed)
	reply := queued(t, r.task)
	if len(reply) != 1 || reply[0].kind != kObjData {
		t.Fatalf("the read was answered with %d frames", len(reply))
	}
	r.handleMessage(reply[0].msg)
	use(t, r, v)
	queued(t, tasks[0])
	o := r.objs[v]
	data, frame, uses := o.data, o.packCache, o.unreportedUses
	lent := r.st.LentDecodes.Load()

	r.handleMessage(fs[last].msg)
	if o.data != data || &o.packCache[0] != &frame[0] || o.unreportedUses != uses || o.lent || o.state != stPresent {
		t.Errorf("the re-sent copy changed the fetched one: same data %v, same frame %v, uses %d (was %d), lent %v",
			o.data == data, &o.packCache[0] == &frame[0], o.unreportedUses, uses, o.lent)
	}
	if r.st.LentDecodes.Load() != lent {
		t.Error("the re-sent copy was decoded")
	}
	if tasks[0].Probe(pvm.AnySrc, pvm.AnyTag) {
		t.Error("the replacement sent the survivor a message")
	}
}

// TestSendBookkeepingAllocatesNothing pins that recording a value's sends
// for a replacement's replay adds no allocation to a push or a read reply,
// with fault tolerance on: each round pushes a value never sent before to
// rank 1 and answers a read of another to rank 2, and the receivers' header
// buffers go back to the sender's free list, as replies would bring them.
func TestSendBookkeepingAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops the codec's pooled encoders at random under the race detector")
	}
	const runs = 50
	payloads := make([]int64, 2*(runs+2)) // the warm-up round, AllocsPerRun's own, then runs
	p, tasks, names := survivorWithValues(t, 3, payloads...)
	for _, name := range names {
		p.packObject(p.objs[name]) // the snapshot cache holds every frame before the rounds
	}
	i := 0
	round := func() {
		p.deliver(p.objs[names[2*i]], kObjData, 1)
		p.serveRead(names[2*i+1], 2)
		for _, task := range tasks[1:] {
			p.recycleHead(take(t, task).Payload)
		}
		i++
	}
	round() // warm-up: fill the header free list
	if n := testing.AllocsPerRun(runs, round); n != 0 {
		t.Errorf("a push and a read reply made %.1f allocs, want 0", n)
	}
	for j, name := range names {
		if got, want := p.objs[name].sentTo, uint64(1)<<(1+j%2); got != want {
			t.Errorf("%v: sent to %b, want %b", name, got, want)
		}
	}
}

// TestObjectStaysInItsSizeClass: the send records are two words on every
// object, cached copies included, so the struct's flags are grouped to keep
// it within 480 bytes, the malloc size class it had before them.
func TestObjectStaysInItsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(object{}); n > 480 {
		t.Errorf("object is %d bytes, over the 480-byte size class", n)
	}
}
