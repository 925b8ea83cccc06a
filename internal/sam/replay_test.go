package sam

// White-box tests for mid-step checkpoints (DESIGN §7 "Mid-step
// checkpoints"): a process parked anywhere in a step checkpoints the
// boundary snapshot plus the log of the step's non-reexecutable results,
// unless it holds an update lock, and a replacement restored from such a
// checkpoint hands the logged results back instead of performing the
// operations again.

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"samft/internal/ckptstore"
	"samft/internal/codec"
	"samft/internal/ft"
	"samft/internal/pvm"
)

// stepProc is txProc past its first step boundary: a boundary snapshot
// exists, so a park can checkpoint.
func stepProc(t *testing.T) (*Proc, []*pvm.Task) {
	t.Helper()
	p, tasks := txProc(t)
	p.boundarySnap = packPayload(t, 0)
	return p, tasks
}

// homedAt returns a name of the given family whose home is rank home of 5.
func homedAt(t *testing.T, family, home int) Name {
	t.Helper()
	for a := 0; a < 64; a++ {
		if name := MkName(family, a, 0); ckptstore.HomeRank(uint64(name), 5) == home {
			return name
		}
	}
	t.Fatalf("no name of family %d homed at rank %d", family, home)
	return 0
}

// arrive migrates accumulator acc to p from rank from, with contents x, and
// returns the frame it came in.
func arrive(t *testing.T, p *Proc, acc Name, from int, x int64) []byte {
	t.Helper()
	body := packPayload(t, x)
	p.dispatch(&wire{
		Kind: kAccData, SrcRank: from, Name: uint64(acc), Target: p.cfg.Rank, Body: body,
		Meta: ft.ObjectMeta{Name: uint64(acc), Kind: uint8(ft.KindAccum), Nonreproducible: true, Version: 3}, HasMeta: true,
	})
	return body
}

// mustDo runs an application command that completes at once and returns its
// result.
func mustDo(t *testing.T, p *Proc, c *cmd) interface{} {
	t.Helper()
	r, ok := done(appCmd(p, c))
	if !ok {
		t.Fatalf("op %d on %v parked", c.op, c.name)
	}
	if r.err != nil {
		t.Fatalf("op %d on %v: %v", c.op, c.name, r.err)
	}
	return r.obj
}

// parks runs an application command that must park.
func parks(t *testing.T, p *Proc, c *cmd) {
	t.Helper()
	if _, ok := done(appCmd(p, c)); ok {
		t.Fatalf("setup: op %d on %v did not park", c.op, c.name)
	}
}

// unpackAs decodes a frame body that must hold a T.
func unpackAs[T any](t *testing.T, body []byte) *T {
	t.Helper()
	v, err := codec.Unpack(body)
	if err != nil {
		t.Fatal(err)
	}
	x, ok := v.(*T)
	if !ok {
		t.Fatalf("frame holds %T", v)
	}
	return x
}

// midStepTx updates accumulator a — migrated in from rank 3 with contents
// 7 — to 8, receives the home's order to hand it to rank 2, then parks on
// UpdateAccum(b). It returns the frames sent from there on and a's frame
// as granted, which the log must take without packing a again.
func midStepTx(t *testing.T) (p *Proc, tasks []*pvm.Task, frames []sent, a Name, granted []byte) {
	t.Helper()
	const prev, target, home = 3, 2, 4
	p, tasks = stepProc(t)
	a, b := homedAt(t, 7, home), homedAt(t, 8, home)
	granted = arrive(t, p, a, prev, 7)
	mustDo(t, p, &cmd{op: opUpdateAccum, name: a}).(*recoveryPayload).X = 8
	if got := p.st.SnapCacheMisses.Load(); got != 0 {
		t.Errorf("logging the accumulator that had just arrived packed it %d time(s)", got)
	}
	mustDo(t, p, &cmd{op: opReleaseAccum, name: a})
	p.dispatch(&wire{Kind: kAccGrant, SrcRank: home, Name: uint64(a), Target: target})
	if p.tx != nil {
		t.Fatal("a transaction opened while the application was running")
	}
	drain(t, tasks)
	parks(t, p, &cmd{op: opUpdateAccum, name: b})
	return p, tasks, drain(t, tasks), a, granted
}

// TestReplayParkedTaintedProcessCheckpointsItsLog: a process that updated
// accumulator a this step and was ordered to hand it on opens the
// transaction the moment it parks on UpdateAccum(b) — the migration does not
// wait for the step to end — and its private state logs a's contents as
// granted, taken from the frame a arrived in. (Before the log, a step that
// had updated an accumulator could only checkpoint at its end.)
func TestReplayParkedTaintedProcessCheckpointsItsLog(t *testing.T) {
	const target = 2
	p, _, frames, a, granted := midStepTx(t)
	if p.tx == nil {
		t.Fatal("parked mid-step with a migration queued, and no transaction opened")
	}
	var priv *ft.PrivateState
	moved := false
	for _, f := range frames {
		switch {
		case f.Kind == kCkptPriv:
			priv = unpackAs[ft.PrivateState](t, f.Body)
		case f.Kind == kAccData && f.to == target:
			moved = unpackAs[recoveryPayload](t, f.Body).X == 8
		}
	}
	if !moved {
		t.Error("the transaction does not take the updated accumulator to its next owner")
	}
	if priv == nil {
		t.Fatal("the transaction carries no private state")
	}
	if l := priv.Log; len(l) != 1 || cmdOp(l[0].Op) != opUpdateAccum || Name(l[0].Name) != a || !bytes.Equal(l[0].Body, granted) {
		t.Fatalf("private state log = %+v, want UpdateAccum(%v) with the contents as granted", priv.Log, a)
	}
}

// TestReplayNoCheckpointWhileALockIsHeld: an accumulator under the update
// lock is mid-mutation in the application's hands, so a process parked
// while holding one opens no transaction; parked again after the release,
// it does.
func TestReplayNoCheckpointWhileALockIsHeld(t *testing.T) {
	const prev, owner = 3, 2
	p, _ := stepProc(t)
	a := homedAt(t, 7, 4)
	v1, v2 := homedAt(t, 9, owner), homedAt(t, 10, owner)
	arrive(t, p, a, prev, 7)
	mustDo(t, p, &cmd{op: opUpdateAccum, name: a})
	p.addTrigger(trigger{})
	parks(t, p, &cmd{op: opUseValue, name: v1})
	if p.tx != nil {
		t.Fatal("a transaction opened while the application held an update lock")
	}

	p.dispatch(&wire{
		Kind: kObjData, SrcRank: owner, Name: uint64(v1), Body: packPayload(t, 1),
		Meta: ft.ObjectMeta{Name: uint64(v1), Kind: uint8(ft.KindValue)}, HasMeta: true,
	})
	if p.appParked != nil {
		t.Fatal("setup: the value's arrival did not wake the application")
	}
	mustDo(t, p, &cmd{op: opDoneValue, name: v1})
	mustDo(t, p, &cmd{op: opReleaseAccum, name: a})
	parks(t, p, &cmd{op: opUseValue, name: v2})
	if p.tx == nil {
		t.Fatal("parked with no lock held and a trigger queued, and no transaction opened")
	}
}

// TestReplayValueCreatedAfterAMidStepCommitIsNonreproducible: a mid-step
// commit leaves the taint set, so a value the rest of the step creates rides
// the step-end transaction instead of being sent at once and again as its
// checkpoint copy.
func TestReplayValueCreatedAfterAMidStepCommitIsNonreproducible(t *testing.T) {
	p, tasks, frames, _, _ := midStepTx(t)
	ackAll(p, frames)
	if p.tx != nil || p.st.MidstepCkpts.Load() != 1 {
		t.Fatalf("setup: open = %v, mid-step checkpoints = %d, want one committed", p.tx != nil, p.st.MidstepCkpts.Load())
	}
	drain(t, tasks)
	v := homedAt(t, 11, 0)
	createValue(t, p, v, 5)
	if o := p.objs[v]; !o.nonrepro {
		t.Error("a value created after a mid-step commit is reproducible")
	}
}

// restoredProc is the replacement of rank 0 of 5, restored from a mid-step
// checkpoint: it owned accumulator a, whose home is rank 4, and updated it
// from 7 to 8 this step; the log holds the grant, and the checkpoint copy
// the updated contents.
func restoredProc(t *testing.T) (*Proc, []*pvm.Task, Name) {
	t.Helper()
	p, tasks := testProcCfg(t, 5, Config{Rank: 0, Policy: ft.PolicySAM, Degree: 1, Recovering: true})
	a := homedAt(t, 7, 4)
	meta := ft.ObjectMeta{Name: uint64(a), Kind: uint8(ft.KindAccum), Nonreproducible: true, Version: 4}
	vec := make([]int64, 5)
	priv, err := codec.Pack(&ft.PrivateState{
		Rank: 0, Seq: 9, StepsDone: 2, AppState: packPayload(t, 0),
		Owned: []ft.ObjectMeta{meta}, T: vec, C: vec, D: vec,
		Log: []ft.LogEntry{{Op: uint8(opUpdateAccum), Name: uint64(a), Body: packPayload(t, 7)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	holder := ckptstore.PrivateStateRanks(0, 5, 1)[0]
	p.dispatch(&wire{Kind: kRecoverPriv, SrcRank: holder, Seq: 9, Body: priv})
	p.dispatch(&wire{Kind: kRecoverData, SrcRank: holder, Name: uint64(a), Seq: 9, Body: packPayload(t, 8), Meta: meta, HasMeta: true})
	select {
	case <-p.inc.restorec:
	default:
		t.Fatal("setup: the replacement did not restore")
	}
	drain(t, tasks)
	return p, tasks, a
}

// TestReplayRestoredLogAnswersWithoutAcquiring: the replayed UpdateAccum
// returns the logged contents without a kAccAcq, its release leaves the
// restored main copy, version and dirty flag as they are, and the first
// update past the log's end acquires for real.
func TestReplayRestoredLogAnswersWithoutAcquiring(t *testing.T) {
	p, tasks, a := restoredProc(t)
	o := p.objs[a]
	got := mustDo(t, p, &cmd{op: opUpdateAccum, name: a}).(*recoveryPayload)
	if got.X != 7 || got == o.data {
		t.Fatalf("replayed UpdateAccum returned %+v (main copy: %v), want the logged contents 7", got, got == o.data)
	}
	got.X = 8
	mustDo(t, p, &cmd{op: opReleaseAccum, name: a})
	if o.version != 4 || o.dirty || o.data.(*recoveryPayload).X != 8 || !o.isMain {
		t.Fatalf("after the replayed release: version %d dirty %v contents %+v isMain %v, want the restored main copy untouched",
			o.version, o.dirty, o.data, o.isMain)
	}
	onlyTo(t, tasks, -1)
	if got := p.st.ReplayedOps.Load(); got != 1 {
		t.Errorf("replayed ops = %d, want 1", got)
	}

	b := homedAt(t, 8, 4)
	parks(t, p, &cmd{op: opUpdateAccum, name: b})
	if w := recvWire(t, tasks[4]); w.Kind != kAccAcq || Name(w.Name) != b {
		t.Fatalf("past the log's end the home got %s %v, want AccAcq %v", kindName(w.Kind), Name(w.Name), b)
	}
}

// TestReplayDivergedPanics: a replayed step whose operations do not match
// the log — another op, another name, or a step that ends before asking
// for every logged result — panics in the application with "replay
// diverged".
func TestReplayDivergedPanics(t *testing.T) {
	cases := []struct {
		name string
		call func(p *Proc, a Name)
	}{
		{"op", func(p *Proc, a Name) { p.ChaoticRead(a) }},
		{"name", func(p *Proc, a Name) { p.UpdateAccum(a + 1) }},
		{"step end", func(p *Proc, a Name) { p.gate(3, false) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, _, a := restoredProc(t)
			// The runtime's side of the one call, on a goroutine of its own.
			go func() { p.handleCmd(<-p.cmdq) }()
			msg := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				tc.call(p, a)
				return
			}()
			if !strings.Contains(msg, "replay diverged") {
				t.Fatalf("got %q, want a replay-diverged panic", msg)
			}
		})
	}
}
