package sam

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"samft/internal/codec"
	"samft/internal/ft"
	"samft/internal/netsim"
	"samft/internal/pvm"
)

// lendPayload is a flat registered type with a slice, the shape whose
// storage a later copy can decode into without allocating.
type lendPayload struct {
	Seq  int64
	Vals []float64
}

func init() { codec.Register("sam.lendTestPayload", lendPayload{}) }

func packLend(t *testing.T, seq int64, n int) []byte {
	t.Helper()
	v := &lendPayload{Seq: seq, Vals: make([]float64, n)}
	for i := range v.Vals {
		v.Vals[i] = float64(seq) + float64(i)/8
	}
	b, err := codec.Pack(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// objData delivers body to p as a cached value copy from owner 1.
func objData(p *Proc, name Name, body []byte) {
	p.dispatch(&wire{
		Kind: kObjData, SrcRank: 1, Name: uint64(name), Body: body,
		Meta: ft.ObjectMeta{Kind: uint8(ft.KindValue)}, HasMeta: true,
	})
}

// ckptCopy delivers body to p as owner 1's committed checkpoint copy.
func ckptCopy(p *Proc, name Name, body []byte) {
	p.dispatch(&wire{
		Kind: kCkptCopy, SrcRank: 1, Owner: 1, Seq: 1, Name: uint64(name), Body: body,
		Meta: ft.ObjectMeta{Kind: uint8(ft.KindValue), Version: 1}, HasMeta: true, Piece: -1,
	})
}

// use reads name through UseValue and ends the access, as a step does.
func use(t *testing.T, p *Proc, name Name) interface{} {
	t.Helper()
	r, ok := done(appCmd(p, &cmd{op: opUseValue, name: name}))
	if !ok || r.err != nil {
		t.Fatalf("UseValue(%v): done=%v err=%v", name, ok, r.err)
	}
	if r, ok := done(appCmd(p, &cmd{op: opDoneValue, name: name})); !ok || r.err != nil {
		t.Fatalf("DoneValue(%v): done=%v err=%v", name, ok, r.err)
	}
	return r.obj
}

// endStep ends the application's step as cmdGate does for the step rule.
func endStep(p *Proc) { p.stepsDone++ }

// checkLentFrames pins the invariant that a lent copy holds no contents
// and can always decode them again.
func checkLentFrames(t *testing.T, p *Proc) {
	t.Helper()
	for _, o := range p.objs {
		if o.lent && (o.data != nil || o.frame() == nil) {
			t.Errorf("lent copy %v: data %v, frame of %d bytes", o.name, o.data != nil, len(o.frame()))
		}
	}
}

// TestWhichCopyLends is the lending rule as a table: an arriving copy
// decodes into a consumed cached copy of its type only when that copy was
// read in a step that has ended and nothing still needs its storage.
func TestWhichCopyLends(t *testing.T) {
	same := func(*Proc, *object) {}
	cases := []struct {
		name   string
		lends  bool
		unread bool // the copy arrives but the application never reads it
		// set makes the copy o, read in the step before, into the case.
		set func(p *Proc, o *object)
	}{
		{"a consumed copy whose step has ended", true, false, same},
		{"a main copy", false, false, func(_ *Proc, o *object) { o.isMain, o.created = true, true }},
		{"a pinned copy", false, false, func(_ *Proc, o *object) { o.pins = 1 }},
		{"a copy with a waiter", false, false, func(_ *Proc, o *object) { o.waiters = []*cmd{{op: opUseValue}} }},
		{"a copy used in the current step", false, false, func(p *Proc, o *object) { o.usedAt = p.stepsDone }},
		{"a copy never used", false, true, same},
		{"a copy with a pending image", false, false, func(_ *Proc, o *object) { o.pending = &image{name: o.name, sender: 2, owner: 2, seq: 3} }},
		{"a copy with no frame", false, false, func(_ *Proc, o *object) { o.invalidatePackCache() }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, _ := testProc(t, 0, 3, false)
			old, next := MkName(31, 1, 0), MkName(31, 2, 0)
			objData(p, old, packLend(t, 1, 8))
			if !c.unread {
				use(t, p, old)
			}
			endStep(p)
			o := p.objs[old]
			storage := o.data
			c.set(p, o)

			objData(p, next, packLend(t, 2, 8))
			n := p.objs[next]
			if got := n.data == storage; got != c.lends {
				t.Fatalf("the arrival decoded into the consumed copy's storage: %v, want %v", got, c.lends)
			}
			if got := p.st.LentDecodes.Load(); got != map[bool]int64{true: 1}[c.lends] {
				t.Errorf("LentDecodes = %d", got)
			}
			if o.lent != c.lends || (o.data == nil) != c.lends {
				t.Errorf("the consumed copy: lent %v, holds contents %v", o.lent, o.data != nil)
			}
			if got := n.data.(*lendPayload); got.Seq != 2 || len(got.Vals) != 8 || got.Vals[7] != 2+7.0/8 {
				t.Errorf("the arrival decoded to %+v", got)
			}
			checkLentFrames(t, p)
			if o.usedAt < p.stepsDone {
				if o.lendQ != nil {
					t.Error("a copy met by the arrival is still queued to lend")
				}
				return
			}
			// Read in this step, the copy stays queued and lends once the
			// step has ended.
			endStep(p)
			objData(p, MkName(31, 3, 0), packLend(t, 3, 8))
			if p.objs[MkName(31, 3, 0)].data != storage || !o.lent {
				t.Error("the copy did not lend once its step had ended")
			}
		})
	}
}

// TestLentCopyReadsAgain: a copy whose storage was lent stays usable. A read
// decodes it again, to contents equal to what it held, from the frame it
// arrived in; from the checkpoint image when a copy replaced that frame;
// and from the image's body when the owner has freed the image since.
func TestLentCopyReadsAgain(t *testing.T) {
	for _, c := range []struct {
		name string
		// before runs before the copy is consumed, after once it has lent.
		before func(p *Proc, name Name, body []byte)
		after  func(p *Proc, name Name)
		// from is the frame the copy is decoded from again.
		from func(o *object) []byte
	}{
		{"from its arrival frame", func(*Proc, Name, []byte) {}, func(*Proc, Name) {},
			func(o *object) []byte { return o.packCache }},
		{"from its checkpoint image", ckptCopy, func(*Proc, Name) {},
			func(o *object) []byte { return o.copy.body }},
		{"from the freed image's body", ckptCopy, func(p *Proc, name Name) {
			// A pending copy from the object's next owner keeps the entry.
			p.objs[name].pending = &image{name: name, sender: 2, owner: 2, seq: 1}
			p.dispatch(&wire{Kind: kFreeCkpt, SrcRank: 1, Name: uint64(name), Seq: 1})
		}, func(o *object) []byte { return o.packCache }},
	} {
		t.Run(c.name, func(t *testing.T) {
			p, _ := testProc(t, 0, 3, false)
			old, next := MkName(32, 1, 0), MkName(32, 2, 0)
			body := packLend(t, 1, 8)
			objData(p, old, body)
			c.before(p, old, slices.Clone(body))
			first := use(t, p, old)
			want, err := codec.DeepCopy(first)
			if err != nil {
				t.Fatal(err)
			}
			endStep(p)
			objData(p, next, packLend(t, 2, 6))
			o := p.objs[old]
			if !o.lent {
				t.Fatal("the consumed copy did not lend its storage")
			}
			c.after(p, old)
			checkLentFrames(t, p)
			if f := c.from(o); f == nil || &f[0] != &o.frame()[0] {
				t.Fatal("the lent copy would not decode from the expected frame")
			}

			again := use(t, p, old)
			if !reflect.DeepEqual(again, want) {
				t.Errorf("read again: %+v, want %+v", again, want)
			}
			if again == p.objs[next].data {
				t.Error("the copy read again shares storage with the copy it lent to")
			}
			if o.lent || p.st.LentRedecodes.Load() != 1 {
				t.Errorf("lent %v after the read, LentRedecodes = %d", o.lent, p.st.LentRedecodes.Load())
			}
		})
	}
}

// TestLentDecodeAllocatesNothing pins the point of lending: between two
// processes with the real frame path, a pushed value of a flat type whose
// slice fits a copy consumed in an earlier step costs no allocation to
// receive. Each round is one push, from contents the sender has already
// packed, and one control frame back, so header buffers circulate
// (TestFrameHeadersAllocNothing).
func TestLentDecodeAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops the codec's pooled decoders at random under the race detector")
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
	sender, receiver := procs[0], procs[1]
	const runs = 50
	var consumed, pushed []Name
	for i := range runs + 10 {
		consumed = append(consumed, MkName(33, i, 0))
	}
	for i := range runs + 1 {
		pushed = append(pushed, MkName(34, i, 0))
	}
	for i, name := range append(append([]Name(nil), consumed...), pushed...) {
		o := sender.obj(name)
		o.kind, o.state, o.isMain, o.created = ft.KindValue, stPresent, true, true
		o.data = &lendPayload{Seq: int64(i), Vals: make([]float64, 8)}
		sender.packObject(o)
	}
	i := 0
	push := func(names []Name) func() {
		return func() {
			sender.deliver(sender.objs[names[i]], kObjData, 1)
			receiver.handleMessage(take(t, tasks[1]))
			receiver.send(0, &wire{Kind: kForceAck})
			sender.handleMessage(take(t, tasks[0]))
			i++
		}
	}
	for range consumed {
		push(consumed)()
	}
	for _, name := range consumed {
		use(t, receiver, name)
	}
	endStep(receiver)
	for _, name := range pushed {
		receiver.obj(name) // the entries the pushes fill exist already
	}
	i = 0
	if n := testing.AllocsPerRun(runs, push(pushed)); n != 0 {
		t.Errorf("a push into lent storage made %.1f allocs, want 0", n)
	}
	if got := receiver.st.LentDecodes.Load(); got != runs+1 {
		t.Errorf("LentDecodes = %d, want %d", got, runs+1)
	}
	for j, name := range pushed {
		if got := receiver.objs[name].data.(*lendPayload); got.Seq != int64(len(consumed)+j) {
			t.Fatalf("%v decoded to Seq %d, want %d", name, got.Seq, len(consumed)+j)
		}
	}
}

func take(t *testing.T, task *pvm.Task) netsim.Message {
	t.Helper()
	msg, err := task.Take(pvm.AnySrc, pvm.AnyTag)
	if err != nil {
		t.Fatal(err)
	}
	return msg
}
