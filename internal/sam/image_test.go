package sam

// White-box tests for the frame/state boundary: a wire is only a frame,
// checkpointed state is an image, recovery-only state is an incarnation.

import (
	"reflect"
	"testing"

	"samft/internal/ft"
	"samft/internal/pvm"
)

// TestNoReceivedWireIsRetained walks every type reachable from a process's
// state and fails if a wire can be stored there. The one allowed home of a
// kept wire is the sender's own transaction (ckptTx.pieces / staleFrees,
// held by value), which holds frames it built and may have to send again;
// the only other wires a process holds are the frame path's two scratch
// wires (msg.go), which every header is packed from and decoded into.
func TestNoReceivedWireIsRetained(t *testing.T) {
	wireT, txT := reflect.TypeOf(wire{}), reflect.TypeOf(ckptTx{})
	scratch := map[string]bool{"Proc.headWire": true, "Proc.recvWire": true}
	pkg := wireT.PkgPath()
	seen := map[reflect.Type]bool{}
	var walk func(ty reflect.Type, path string)
	walk = func(ty reflect.Type, path string) {
		if ty == wireT {
			if !scratch[path] {
				t.Errorf("%s can hold a wire", path)
			}
			return
		}
		if ty == txT || seen[ty] || (ty.Name() != "" && ty.PkgPath() != pkg) {
			return
		}
		seen[ty] = true
		switch ty.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Chan:
			walk(ty.Elem(), path)
		case reflect.Map:
			walk(ty.Key(), path)
			walk(ty.Elem(), path)
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(ty.Field(i).Type, path+"."+ty.Field(i).Name)
			}
		}
	}
	for _, root := range []interface{}{Proc{}, object{}, incarnation{}, dirEntry{}} {
		ty := reflect.TypeOf(root)
		walk(ty, ty.Name())
	}
	if !seen[reflect.TypeOf(image{})] || !seen[reflect.TypeOf(incarnation{})] {
		t.Error("the walk did not reach image and incarnation: it is not looking at the process state")
	}
}

// TestImageRoundTrip pins the two conversions: everything a freshness rule,
// onActivate, onFreeCkpt, dropProvisionalFrom or installRecoveredMain reads
// from an image is what the frame carried, and framing the image again
// carries it on.
func TestImageRoundTrip(t *testing.T) {
	meta := ft.ObjectMeta{Name: 42, Kind: uint8(ft.KindAccum), Nonreproducible: true, AccessesDone: 3, Version: 9}
	for _, kind := range []int{kCkptCopy, kRecoverData} {
		w := &wire{
			Kind: kind, SrcRank: 3, Name: 42, Owner: 1, Seq: 17,
			Meta: meta, HasMeta: true, Body: []byte{1, 2, 3}, Inactive: true, Piece: 4,
		}
		img := imageOf(w)
		want := image{name: 42, sender: 3, owner: 1, seq: 17, meta: meta, hasMeta: true, body: w.Body}
		if !reflect.DeepEqual(*img, want) {
			t.Errorf("%s: imageOf = %+v, want %+v", kindName(kind), *img, want)
		}
		// The frame built from the image is a fresh one: sender, stamp,
		// piece number and Inactive belong to the send, not the state.
		out := img.wire(kind)
		wantW := wire{Kind: kind, Name: 42, Owner: 1, Seq: 17, Meta: meta, HasMeta: true, Body: w.Body, Piece: -1}
		if !reflect.DeepEqual(out, wantW) {
			t.Errorf("%s: wire = %+v, want %+v", kindName(kind), out, wantW)
		}
		back := imageOf(&out)
		back.sender = img.sender // send's to fill in
		if !reflect.DeepEqual(back, img) {
			t.Errorf("%s: image -> wire -> image = %+v, want %+v", kindName(kind), back, img)
		}
	}
}

// TestOriginalProcessHasNoIncarnation: a process that started with the
// computation carries no recovery-only state, and the message kinds only
// ever addressed to a replacement process fall through it untouched.
func TestOriginalProcessHasNoIncarnation(t *testing.T) {
	p, tasks := testProc(t, 0, 4, false)
	if p.inc != nil {
		t.Fatal("a non-recovering process has an incarnation")
	}
	maps := 0
	for v, i := reflect.ValueOf(p).Elem(), 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Map && !f.IsNil() {
			maps++
		}
	}
	if maps > 11 {
		t.Errorf("NewProc made %d maps for a non-recovering process, want at most 11", maps)
	}
	if r, _ := testProc(t, 0, 4, true); r.inc == nil || !r.inc.restoring || r.inc.orphansDecided {
		t.Fatalf("a recovering process starts with incarnation %+v, want restoring and undecided", r.inc)
	}

	name := nameHomedAt(t, 4, 0)
	before := p.invariants()
	tBefore, cBefore, dBefore := p.clocks.Snapshot()
	for _, kind := range []int{kRecoverPriv, kRecoverData, kOwnerHint, kRecoverFin, kOwnerDeny} {
		p.dispatch(&wire{
			Kind: kind, SrcRank: 1, Name: uint64(name), Seq: 3, Body: packPayload(t, 1),
			Meta: ft.ObjectMeta{Version: 2}, HasMeta: true,
			HasStamp: true, StampT: []int64{9, 9, 9, 9}, StampC: 9,
		})
	}
	tAfter, cAfter, dAfter := p.clocks.Snapshot()
	if !reflect.DeepEqual(p.invariants(), before) || len(p.objs) != 0 || len(p.dir) != 0 ||
		!reflect.DeepEqual([][]int64{tAfter, cAfter, dAfter}, [][]int64{tBefore, cBefore, dBefore}) {
		t.Errorf("recovery-only kinds touched an original process: objs=%d dir=%d T=%v", len(p.objs), len(p.dir), tAfter)
	}
	for r := 1; r < 4; r++ {
		if tasks[r].Probe(pvm.AnySrc, TagSAM) {
			t.Errorf("recovery-only kinds made an original process send to rank %d", r)
		}
	}
}

// TestRenameAfterLastUseReported is the regression test for the policy-off
// RenameValue panic (TestRenameChain): the consumers' batched use reports can
// all land before the creator reaches RenameValue. It blocks until every
// declared access has occurred, then returns the contents — having already
// occurred is not an error, so the exhausted value must still be there.
func TestRenameAfterLastUseReported(t *testing.T) {
	p, tasks := testProcCfg(t, 2, Config{Rank: 0, Policy: ft.PolicyOff})
	name := nameHomedAt(t, 2, 0)
	if r, _ := done(appCmd(p, &cmd{op: opCreateValue, name: name, obj: &recoveryPayload{X: 5}, accesses: 1})); r.err != nil {
		t.Fatalf("create: %v", r.err)
	}
	p.dispatch(&wire{Kind: kReadReq, SrcRank: 1, Name: uint64(name)})
	if w := recvWire(t, tasks[1]); w.Kind != kObjData {
		t.Fatalf("consumer got %s, want ObjData", kindName(w.Kind))
	}
	p.dispatch(&wire{Kind: kValUsed, SrcRank: 1, Names: []uint64{uint64(name)}, Counts: []int64{1}})

	r, ok := done(appCmd(p, &cmd{op: opRenameValue, name: name}))
	if !ok || r.err != nil {
		t.Fatalf("RenameValue after the last use was reported: done=%v err=%v", ok, r.err)
	}
	if v, _ := r.obj.(*recoveryPayload); v == nil || v.X != 5 {
		t.Fatalf("RenameValue returned %#v, want the value's contents", r.obj)
	}
}
