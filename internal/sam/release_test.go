package sam

// White-box tests for the release checkpoint (DESIGN §7 "Mid-step
// checkpoints"): a ReleaseAccum that leaves a migration owed to a waiting
// acquirer starts the migration's transaction inside the call and returns at
// its commit, and a gate after a committed mid-step checkpoint that carried
// the whole step log clears the taint.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"slices"
	"strings"
	"testing"

	"samft/internal/ft"
	"samft/internal/pvm"
)

// gateApp is the application a test's gate snapshots.
type gateApp struct{}

func (gateApp) Init(*Proc)                { panic("not run") }
func (gateApp) Step(*Proc, int64) bool    { panic("not run") }
func (gateApp) Snapshot() interface{}     { return &recoveryPayload{} }
func (gateApp) Restore(state interface{}) { panic("not run") }

// grantWhileLocked migrates accumulator a (home 4) to p from rank 3 and takes
// its update lock; the home then orders it on to rank 2, so the migration is
// owed when the application releases.
func grantWhileLocked(t *testing.T, p *Proc, tasks []*pvm.Task, family int) Name {
	t.Helper()
	const prev, target, home = 3, 2, 4
	a := homedAt(t, family, home)
	arrive(t, p, a, prev, 7)
	mustDo(t, p, &cmd{op: opUpdateAccum, name: a})
	p.dispatch(&wire{Kind: kAccGrant, SrcRank: home, Name: uint64(a), Target: target})
	if o := p.objs[a]; o.pendingMove != target {
		t.Fatalf("setup: pending move %d, want a move to %d owed", o.pendingMove, target)
	}
	drain(t, tasks)
	return a
}

// releaseCheckpoint releases a while a grant waits, and returns the release
// still in the call and the frames of the transaction it opened.
func releaseCheckpoint(t *testing.T, p *Proc, tasks []*pvm.Task, a Name) (*cmd, []sent) {
	t.Helper()
	rel := appCmd(p, &cmd{op: opReleaseAccum, name: a})
	if _, ok := done(rel); ok {
		t.Fatal("the release returned before its migration's transaction committed")
	}
	if p.tx == nil || p.heldCmd != rel {
		t.Fatalf("open = %v, held = %v: the release owing a migration opened no transaction", p.tx != nil, p.heldCmd != nil)
	}
	return rel, drain(t, tasks)
}

// TestReleaseWithAGrantWaitingCheckpointsInsideTheCall: the release finds the
// next owner's grant waiting, so the migration's transaction opens inside the
// call, carries the accumulator, and the call returns at the commit. (It used
// to wait, queued, for the application to park or reach its gate: Water's
// task pool sat through each task's compute.)
func TestReleaseWithAGrantWaitingCheckpointsInsideTheCall(t *testing.T) {
	const target = 2
	p, tasks := stepProc(t)
	a := grantWhileLocked(t, p, tasks, 7)
	rel, frames := releaseCheckpoint(t, p, tasks, a)
	if got := kindsTo(frames, target); !slices.Equal(got, []string{"AccData"}) {
		t.Fatalf("next owner got %v, want the accumulator", got)
	}
	if p.tx.logLen != 1 {
		t.Errorf("the transaction carries a log of %d entries, want the update", p.tx.logLen)
	}
	var numbered []sent
	for _, f := range frames {
		if f.Piece >= 0 {
			numbered = append(numbered, f)
		}
	}
	ackAll(p, numbered[1:])
	if _, ok := done(rel); ok || p.tx == nil {
		t.Fatal("the release returned before the last ack")
	}
	ackAll(p, numbered[:1])
	r, ok := done(rel)
	if !ok || r.err != nil || p.tx != nil || p.heldCmd != nil {
		t.Fatalf("after the commit: returned = %v (%v), open = %v, held = %v", ok, r.err, p.tx != nil, p.heldCmd != nil)
	}
	if got := p.st.ReleaseCkpts.Load(); got != 1 || p.st.MidstepCkpts.Load() != 1 {
		t.Errorf("release checkpoints = %d, mid-step = %d, want 1 and 1", got, p.st.MidstepCkpts.Load())
	}
}

// TestReleaseReturnsAtOnceWithoutACheckpoint: a release owing a migration
// opens no transaction, and returns at once, while another update lock is
// held, while a transaction is already open, or when it is a replayed one.
func TestReleaseReturnsAtOnceWithoutACheckpoint(t *testing.T) {
	cases := []struct {
		name  string
		setup func(t *testing.T) (p *Proc, a Name)
	}{
		{"another lock held", func(t *testing.T) (*Proc, Name) {
			p, tasks := stepProc(t)
			arrive(t, p, homedAt(t, 8, 4), 3, 1)
			mustDo(t, p, &cmd{op: opUpdateAccum, name: homedAt(t, 8, 4)})
			return p, grantWhileLocked(t, p, tasks, 7)
		}},
		{"transaction open", func(t *testing.T) (*Proc, Name) {
			const owner = 3
			p, tasks := stepProc(t)
			v := homedAt(t, 9, owner)
			p.addTrigger(trigger{})
			parks(t, p, &cmd{op: opUseValue, name: v})
			if p.tx == nil {
				t.Fatal("setup: no transaction opened at the park")
			}
			p.dispatch(&wire{
				Kind: kObjData, SrcRank: owner, Name: uint64(v), Body: packPayload(t, 1),
				Meta: ft.ObjectMeta{Name: uint64(v), Kind: uint8(ft.KindValue)}, HasMeta: true,
			})
			mustDo(t, p, &cmd{op: opDoneValue, name: v})
			return p, grantWhileLocked(t, p, tasks, 7)
		}},
		{"replayed", func(t *testing.T) (*Proc, Name) {
			p, _, a := restoredProc(t)
			mustDo(t, p, &cmd{op: opUpdateAccum, name: a})
			p.dispatch(&wire{Kind: kAccGrant, SrcRank: 4, Name: uint64(a), Target: 2})
			if o := p.objs[a]; o.pendingMove != 2 || p.tx != nil {
				t.Fatalf("setup: pending move %d, open = %v", o.pendingMove, p.tx != nil)
			}
			return p, a
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, a := tc.setup(t)
			tx := p.tx
			mustDo(t, p, &cmd{op: opReleaseAccum, name: a})
			if p.heldCmd != nil || p.tx != tx {
				t.Fatalf("held = %v, open = %v (was %v): the release opened a transaction", p.heldCmd != nil, p.tx != nil, tx != nil)
			}
		})
	}
}

// coveredGate commits a release checkpoint, then runs extra (what the rest of
// the step does) and the step's gate.
func coveredGate(t *testing.T, extra func(p *Proc, a Name)) (*Proc, []*pvm.Task) {
	t.Helper()
	p, tasks := stepProc(t)
	p.app = gateApp{}
	a := grantWhileLocked(t, p, tasks, 7)
	rel, frames := releaseCheckpoint(t, p, tasks, a)
	ackAll(p, frames)
	if _, ok := done(rel); !ok {
		t.Fatal("setup: the release did not return at the commit")
	}
	extra(p, a)
	mustDo(t, p, &cmd{op: opGate, step: 1})
	drain(t, tasks)
	return p, tasks
}

// TestReleaseCoveredGateClearsTheTaint: the release checkpoint carried every
// non-reexecutable result of its step, so the gate clears the taint and a
// value the next step creates leaves at once, without a transaction. One
// non-reexecutable op after that commit keeps the taint. (The taint used to
// outlive such a gate, and every send of the next step's values paid a
// transaction: gps8 +4.5 % in the prototype.)
func TestReleaseCoveredGateClearsTheTaint(t *testing.T) {
	const reader = 3
	p, tasks := coveredGate(t, func(*Proc, Name) {})
	if p.taint.Tainted() {
		t.Fatal("the taint outlived a gate whose step log a committed checkpoint covered")
	}
	v := homedAt(t, 11, 0)
	createValue(t, p, v, 5)
	mustDo(t, p, &cmd{op: opPush, name: v, rank: reader})
	if p.tx != nil || len(p.pendingTriggers) != 0 {
		t.Fatalf("open = %v, queued = %d: the push waits for a transaction", p.tx != nil, len(p.pendingTriggers))
	}
	if f := drain(t, tasks); len(f) != 1 || f[0].Kind != kObjData || f[0].to != reader || f[0].Inactive {
		t.Fatalf("the push sent %v to rank %d, want one active ObjData", kindsTo(f, reader), reader)
	}
	// The cover was step 1's: step 2's one chaotic read keeps its taint.
	mustDo(t, p, &cmd{op: opChaoticRead, name: homedAt(t, 7, 4)})
	mustDo(t, p, &cmd{op: opGate, step: 2})
	if !p.taint.Tainted() {
		t.Fatal("step 1's cover cleared step 2's taint")
	}

	t.Run("one op after the commit", func(t *testing.T) {
		p, _ := coveredGate(t, func(p *Proc, a Name) { mustDo(t, p, &cmd{op: opChaoticRead, name: a}) })
		if !p.taint.Tainted() {
			t.Fatal("a chaotic read after the commit was not covered, and the gate cleared the taint")
		}
		v := homedAt(t, 11, 0)
		createValue(t, p, v, 5)
		if !p.objs[v].nonrepro {
			t.Error("a value created after an uncovered step is reproducible")
		}
	})

	// No mid-step commit this step: an empty log says nothing about the
	// taint an earlier step left.
	t.Run("taint from an earlier step", func(t *testing.T) {
		p, _ := stepProc(t)
		p.app = gateApp{}
		mustDo(t, p, &cmd{op: opGate, step: 1})
		if !p.taint.Tainted() {
			t.Fatal("a gate with no mid-step commit cleared the taint")
		}
	})

	// A mid-step transaction that commits after its step's gate covers that
	// step, not the one in progress.
	t.Run("commit after the step moved on", func(t *testing.T) {
		const owner = 3
		p, tasks := stepProc(t)
		p.app = gateApp{}
		a, v := homedAt(t, 7, 4), homedAt(t, 9, owner)
		arrive(t, p, a, owner, 7)
		mustDo(t, p, &cmd{op: opUpdateAccum, name: a})
		mustDo(t, p, &cmd{op: opReleaseAccum, name: a})
		p.addTrigger(trigger{})
		parks(t, p, &cmd{op: opUseValue, name: v})
		frames := drain(t, tasks)
		p.dispatch(&wire{
			Kind: kObjData, SrcRank: owner, Name: uint64(v), Body: packPayload(t, 1),
			Meta: ft.ObjectMeta{Name: uint64(v), Kind: uint8(ft.KindValue)}, HasMeta: true,
		})
		mustDo(t, p, &cmd{op: opDoneValue, name: v})
		mustDo(t, p, &cmd{op: opGate, step: 1})
		mustDo(t, p, &cmd{op: opChaoticRead, name: a})
		ackAll(p, frames)
		if p.tx != nil || p.st.MidstepCkpts.Load() != 1 {
			t.Fatalf("setup: open = %v, mid-step checkpoints = %d", p.tx != nil, p.st.MidstepCkpts.Load())
		}
		mustDo(t, p, &cmd{op: opGate, step: 2})
		if !p.taint.Tainted() {
			t.Fatal("a commit of step 1's log cleared step 2's taint")
		}
	})
}

// TestReleaseEveryNonReexecutableSiteLogs: the covered gate clears the taint
// when a commit carried every step-log entry, which is sound only if every
// operation that taints the process also logs its result. replay is the one
// exception: it hands back an entry already in the log.
func TestReleaseEveryNonReexecutableSiteLogs(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }, 0)
	if err != nil {
		t.Fatal(err)
	}
	sites := 0
	for _, f := range pkgs["sam"].Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			taints, logs := false, false
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					taints = taints || sel.Sel.Name == "OnNonReexecutable"
					logs = logs || sel.Sel.Name == "logResult"
				}
				return true
			})
			if !taints {
				continue
			}
			sites++
			if !logs && fn.Name.Name != "replay" {
				t.Errorf("%s taints the process without logging the result (%s)", fn.Name.Name, fset.Position(fn.Pos()))
			}
		}
	}
	if sites == 0 {
		t.Fatal("found no OnNonReexecutable site")
	}
}
