package sam

// White-box tests for FreeValue, the explicit free of a value created with
// Unlimited accesses (§4.3).

import (
	"slices"
	"testing"

	"samft/internal/ft"
)

// TestFreeValueReclaimsOnceCovered: a value its owner frees stays until
// the owner and every other process have checkpointed past the free; then
// it is reclaimed and its copy holder is told to drop the copy placed by
// the checkpoint that covered it.
func TestFreeValueReclaimsOnceCovered(t *testing.T) {
	const holder = 2
	p, tasks := txProc(t)
	v := nameFor(t, p, 0, 0, holder)
	createValue(t, p, v, 7)
	checkpoint := func() {
		t.Helper()
		p.addTrigger(trigger{kind: 0})
		open(p)
		if ackAll(p, drain(t, tasks)) == 0 || p.tx != nil {
			t.Fatal("setup: the checkpoint did not commit")
		}
		drain(t, tasks) // the activations
	}
	checkpoint()
	placed := p.objs[v].committed.seq
	if got := p.store.HolderRanks(uint64(v)); placed == 0 || !slices.Equal(got, []int{holder}) {
		t.Fatalf("setup: copy of seq %d ledgered at %v, want a committed copy at [%d]", placed, got, holder)
	}

	if r, _ := done(appCmd(p, &cmd{op: opFreeValue, name: v})); r.err != nil {
		t.Fatalf("FreeValue by the owner: %v", r.err)
	}
	f := p.objs[v].freeableAt
	checkpoint()
	if p.objs[v] == nil {
		t.Fatal("reclaimed before the other processes checkpointed past the free")
	}
	// Each other process acknowledges a checkpoint taken knowing time f: its
	// stamp carries c_{j,0} = f.
	for j := 1; j < p.cfg.N; j++ {
		if p.objs[v] == nil {
			t.Fatalf("reclaimed with rank %d still behind the free", j)
		}
		p.dispatch(&wire{Kind: kForceAck, SrcRank: j, HasStamp: true, StampC: f})
	}
	if p.objs[v] != nil {
		t.Fatal("not reclaimed once every process checkpointed past the free")
	}
	if _, ok := p.store.Lookup(uint64(v)); ok {
		t.Error("the reclaimed value is still ledgered")
	}
	var frees []sent
	for _, s := range drain(t, tasks) {
		if s.Kind == kFreeCkpt {
			frees = append(frees, s)
		}
	}
	if len(frees) != 1 || frees[0].to != holder || Name(frees[0].Name) != v || frees[0].Seq != placed {
		t.Fatalf("copy frees %+v, want one kFreeCkpt of %v seq %d to rank %d", frees, v, placed, holder)
	}
}

// TestForceCheckpointsUnderCachePressure: with lazy freeing, values freed
// while the other processes lag cost no messages until the backlog
// outgrows the modeled cache (maxFreeBacklog). The free that passes it
// sends one kForceCkpt per (value, lagging rank) and none again for those
// values, and each value is reclaimed once the kForceAck stamps cover its
// freeable mark (§4.3).
func TestForceCheckpointsUnderCachePressure(t *testing.T) {
	p, tasks := txProc(t)
	type pair struct {
		name Name
		to   int
	}
	forced := func() map[pair]int {
		t.Helper()
		out := make(map[pair]int)
		for _, s := range drain(t, tasks) {
			if s.Kind != kForceCkpt {
				continue
			}
			if o := p.objs[Name(s.Name)]; o == nil || s.F != o.freeableAt {
				t.Fatalf("kForceCkpt of %v asks for time %d, not its freeable mark", Name(s.Name), s.F)
			}
			out[pair{Name(s.Name), s.to}]++
		}
		return out
	}

	var names []Name
	for i := 0; i <= maxFreeBacklog; i++ {
		v := MkName(7, 1+i/64, i%64)
		createValue(t, p, v, int64(i))
		if r, _ := done(appCmd(p, &cmd{op: opFreeValue, name: v})); r.err != nil {
			t.Fatalf("FreeValue(%v): %v", v, r.err)
		}
		names = append(names, v)
		if got := forced(); len(names) <= maxFreeBacklog && len(got) != 0 {
			t.Fatalf("%d force-checkpoints with %d values backlogged, want none until %d", len(got), len(names), maxFreeBacklog+1)
		} else if len(names) > maxFreeBacklog {
			if len(got) != len(names)*(p.cfg.N-1) {
				t.Fatalf("%d (value, rank) pairs forced past the backlog, want %d", len(got), len(names)*(p.cfg.N-1))
			}
			for _, v := range names {
				for j := 1; j < p.cfg.N; j++ {
					if n := got[pair{v, j}]; n != 1 {
						t.Fatalf("%d force-checkpoints of %v to rank %d, want 1", n, v, j)
					}
				}
			}
		}
	}
	p.retryFrees()
	if got := forced(); len(got) != 0 {
		t.Fatalf("retryFrees forced %d (value, rank) pairs again", len(got))
	}

	// The owner checkpoints past every free; that alone reclaims nothing
	// and forces nothing more.
	open(p)
	if ackAll(p, drain(t, tasks)) == 0 || p.tx != nil {
		t.Fatal("setup: the checkpoint did not commit")
	}
	if got := forced(); len(got) != 0 || len(p.freePending) != len(names) {
		t.Fatalf("the checkpoint forced %d pairs and left %d of %d values pending", len(got), len(p.freePending), len(names))
	}

	// Acks covering the middle value's mark reclaim it and every older
	// value, once the last lagging rank's ack is in.
	mid := p.objs[names[len(names)/2]].freeableAt
	for _, f := range []int64{mid, p.objs[names[len(names)-1]].freeableAt} {
		marks := make(map[Name]int64, len(p.freePending))
		for v := range p.freePending {
			marks[v] = p.objs[v].freeableAt
		}
		for j := 1; j < p.cfg.N; j++ {
			if len(p.freePending) != len(marks) {
				t.Fatalf("reclaimed before rank %d acknowledged time %d", j, f)
			}
			p.dispatch(&wire{Kind: kForceAck, SrcRank: j, HasStamp: true, StampC: f})
		}
		for v, mark := range marks {
			if gone := p.objs[v] == nil; gone != (mark <= f) {
				t.Fatalf("%v (freeable at %d) reclaimed=%v with every rank covering %d", v, mark, gone, f)
			}
		}
	}
	if len(p.freePending) != 0 || len(forced()) != 0 {
		t.Fatalf("%d values still pending after every mark was covered", len(p.freePending))
	}
}

// TestFreeValueByANonOwnerFails: only the owner of a value may free it; a
// process holding a cached version gets an error and keeps the version.
func TestFreeValueByANonOwnerFails(t *testing.T) {
	p, _ := testProc(t, 0, 3, false)
	cached := nameHomedAt(t, 3, 1)
	p.dispatch(&wire{
		Kind: kObjData, SrcRank: 1, Name: uint64(cached), Body: packPayload(t, 9),
		Meta: ft.ObjectMeta{Kind: uint8(ft.KindValue)}, HasMeta: true,
	})
	for _, name := range []Name{cached, nameHomedAt(t, 3, 2)} {
		r, ok := done(appCmd(p, &cmd{op: opFreeValue, name: name}))
		if !ok || r.err == nil {
			t.Errorf("FreeValue(%v) by a non-owner: done=%v err=%v, want an error", name, ok, r.err)
		}
	}
	if o := p.objs[cached]; o == nil || o.freeable || !o.usable() {
		t.Error("a failed FreeValue changed the cached version")
	}
}

// TestForceCkptAtTheLaggard: §4.3's force-checkpoint protocol at the
// process asked to checkpoint. A request for a time it has not checkpointed
// past, with no transaction open, queues one bare forced checkpoint and
// answers at that checkpoint's commit; a request its last checkpoint
// already covers is answered at once and starts nothing.
func TestForceCkptAtTheLaggard(t *testing.T) {
	const privHolder, origin, f = 1, 2, 3
	p, tasks := txProc(t)
	// The owner's kForceCkpt carries its stamp, so the request's time f is
	// known here before the request is judged.
	request := func() {
		stamp := make([]int64, p.cfg.N)
		stamp[origin] = f
		p.dispatch(&wire{Kind: kForceCkpt, SrcRank: origin, F: f, HasStamp: true, StampT: stamp})
	}

	request()
	if p.tx != nil || !p.pendingForced || len(p.pendingTriggers) != 1 || p.pendingTriggers[0] != (trigger{}) {
		t.Fatalf("uncovered request mid-step: open=%v pendingForced=%v triggers=%+v, want one bare trigger marked forced",
			p.tx != nil, p.pendingForced, p.pendingTriggers)
	}
	onlyTo(t, tasks, -1) // no ack before the checkpoint

	open(p)
	pieces := drain(t, tasks)
	if p.tx == nil || !p.tx.forced {
		t.Fatal("the forced trigger did not open a forced transaction")
	}
	if len(pieces) != 1 || pieces[0].to != privHolder || pieces[0].Kind != kCkptPriv {
		t.Fatalf("the forced checkpoint sent %+v, want one CkptPriv to rank %d", pieces, privHolder)
	}
	ackAll(p, pieces)
	after := drain(t, tasks)
	if got := kindsTo(after, origin); !slices.Equal(got, []string{"ForceAck"}) {
		t.Fatalf("requester got %v at the commit, want one ForceAck", got)
	}
	if got := kindsTo(after, privHolder); !slices.Equal(got, []string{"Activate"}) {
		t.Fatalf("private-state holder got %v at the commit, want one Activate", got)
	}
	if n, forced := p.st.Checkpoints.Load(), p.st.ForcedCheckpoints.Load(); n != 1 || forced != 1 || p.tx != nil || p.pendingForced {
		t.Fatalf("checkpoints=%d forced=%d open=%v pendingForced=%v, want 1, 1, false, false", n, forced, p.tx != nil, p.pendingForced)
	}

	request()
	if p.tx != nil || len(p.pendingTriggers) != 0 || p.pendingForced {
		t.Fatalf("covered request: open=%v triggers=%d pendingForced=%v, want no checkpoint", p.tx != nil, len(p.pendingTriggers), p.pendingForced)
	}
	if got := drain(t, tasks); len(got) != 1 || got[0].to != origin || got[0].Kind != kForceAck {
		t.Fatalf("covered request answered with %+v, want one ForceAck to rank %d", got, origin)
	}
	if n, forced := p.st.Checkpoints.Load(), p.st.ForcedCheckpoints.Load(); n != 1 || forced != 1 {
		t.Fatalf("checkpoints=%d forced=%d after a covered request, want 1, 1", n, forced)
	}
}
