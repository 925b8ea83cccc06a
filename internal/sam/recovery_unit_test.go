package sam

// White-box unit tests for the recovery protocol's hardened paths:
// dropping provisional state from a failed checkpointer, orphan-ownership
// arbitration under conflicting hints, and the install-at-most-once guard
// that keeps re-solicited recovery contributions from forking an object
// that has since migrated away.

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"samft/internal/ckptstore"
	"samft/internal/codec"
	"samft/internal/ft"
	"samft/internal/netsim"
	"samft/internal/pvm"
)

// recoveryPayload is a codec-registered stand-in for object contents.
type recoveryPayload struct {
	X int64
}

func init() { codec.Register("sam.recoveryTestPayload", recoveryPayload{}) }

func packPayload(t *testing.T, x int64) []byte {
	t.Helper()
	b, err := codec.Pack(&recoveryPayload{X: x})
	if err != nil {
		t.Fatalf("pack payload: %v", err)
	}
	return b
}

// testProc builds a Proc whose handlers the test drives directly (no Run
// loop): N blocking tasks on a fresh machine, the Proc built over the
// task at the given rank. Peer tasks double as message sinks.
func testProc(t *testing.T, rank, n int, recovering bool) (*Proc, []*pvm.Task) {
	t.Helper()
	return testProcCfg(t, n, Config{Rank: rank, Policy: ft.PolicySAM, Degree: 2, Recovering: recovering})
}

// testProcCfg is testProc with the caller's policy knobs; N and the rank
// table are filled in here.
func testProcCfg(t *testing.T, n int, cfg Config) (*Proc, []*pvm.Task) {
	t.Helper()
	m := pvm.NewMachine(netsim.Config{})
	block := make(chan struct{})
	tasks := make([]*pvm.Task, n)
	tids := make([]pvm.TID, n)
	for i := 0; i < n; i++ {
		tasks[i] = m.Spawn(fmt.Sprintf("t%d", i), func(*pvm.Task) { <-block })
		tids[i] = tasks[i].TID()
	}
	cfg.Ranks = tids
	p := NewProc(tasks[cfg.Rank], cfg)
	testMachines.Store(p, m)
	t.Cleanup(func() {
		close(block)
		m.Halt()
		testMachines.Delete(p)
	})
	return p, tasks
}

// testMachines maps each Proc testProcCfg builds to the machine its tasks
// run on, so a test can kill ranks and spawn replacements there.
var testMachines sync.Map // *Proc -> *pvm.Machine

func machineOf(p *Proc) *pvm.Machine {
	m, _ := testMachines.Load(p)
	return m.(*pvm.Machine)
}

// respawn starts a replacement task on p's machine, as a recovery
// coordinator would after a rank dies; it blocks until the test ends.
func respawn(t *testing.T, p *Proc, name string) *pvm.Task {
	block := make(chan struct{})
	t.Cleanup(func() { close(block) })
	return machineOf(p).Spawn(name, func(*pvm.Task) { <-block })
}

// recvWire receives and decodes the next SAM protocol message at a task.
func recvWire(t *testing.T, task *pvm.Task) *wire {
	t.Helper()
	type res struct {
		w   *wire
		err error
	}
	ch := make(chan res, 1)
	go func() {
		msg, err := task.Recv(pvm.AnySrc, TagSAM)
		if err != nil {
			ch <- res{nil, err}
			return
		}
		w := new(wire)
		ch <- res{w, decodeFrame(&msg, w)}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatalf("recv wire: %v", r.err)
		}
		return r.w
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for a protocol message")
		return nil
	}
}

// nameHomedAt finds an object name whose home is the wanted rank.
func nameHomedAt(t *testing.T, n, want int) Name {
	t.Helper()
	for a := 0; a < 64*n; a++ {
		name := MkName(7, a, 0)
		if ckptstore.HomeRank(uint64(name), n) == want {
			return name
		}
	}
	t.Fatalf("no name homed at rank %d", want)
	return 0
}

// TestDropProvisionalFromReissuesFetch covers the failure window where a
// checkpointer dies after sending inactive data but before activating it:
// the provisional state must be discarded and fetches that were satisfied
// only by that data must be re-driven so the restored owner serves them
// again.
func TestDropProvisionalFromReissuesFetch(t *testing.T) {
	const failed = 1
	p, tasks := testProc(t, 0, 4, false)

	// An inactive object with a parked application waiter, fetched from
	// the failed rank; its home is a live third rank.
	homeRank := 2
	name := nameHomedAt(t, 4, homeRank)
	o := p.obj(name)
	o.state = stInactive
	o.awaits.from = failed
	o.data = &recoveryPayload{X: 9}
	o.isMain = false
	o.fetchOutstanding = true
	o.reqKind = kReadReq
	o.waiters = []*cmd{{op: opUseValue, name: name}}

	// A second inactive object with no waiters must be reverted without
	// re-issuing anything.
	quiet := nameHomedAt(t, 4, 3)
	q := p.obj(quiet)
	q.state = stInactive
	q.awaits.from = failed
	q.data = &recoveryPayload{X: 1}

	// Staged private state and a pending checkpoint copy from the failed
	// rank must both be discarded.
	p.privStaging[failed] = privImage{seq: 1}
	cp := p.obj(nameHomedAt(t, 4, 0))
	cp.pending = &image{sender: failed}

	p.dropProvisionalFrom(failed)

	if o.state != stAbsent || o.data != nil || o.isMain || o.created {
		t.Errorf("inactive object not reverted: state=%v data=%v isMain=%v", o.state, o.data, o.isMain)
	}
	if q.state != stAbsent || q.data != nil {
		t.Errorf("waiterless inactive object not reverted: state=%v", q.state)
	}
	if _, ok := p.privStaging[failed]; ok {
		t.Error("staged private state from failed rank survived")
	}
	if cp.pending != nil {
		t.Error("pending checkpoint copy from failed rank survived")
	}

	// The fetch for the waited-on object must be re-issued to its home.
	w := recvWire(t, tasks[homeRank])
	if w.Kind != kReadReq || Name(w.Name) != name {
		t.Fatalf("re-issued fetch = %s %s, want ReadReq %s", kindName(w.Kind), Name(w.Name), name)
	}
	if w.SrcRank != 0 {
		t.Fatalf("re-issued fetch SrcRank = %d, want 0", w.SrcRank)
	}
	// Exactly one message: the waiterless object must not fetch.
	if tasks[homeRank].Probe(pvm.AnySrc, TagSAM) || tasks[3].Probe(pvm.AnySrc, TagSAM) {
		t.Error("unexpected extra protocol message after dropProvisionalFrom")
	}
}

// TestDropProvisionalFromReissuesLocalFetch covers the degenerate
// placement where the dropped object's home is the dropping process
// itself: the request is re-driven inline and parks in the directory.
func TestDropProvisionalFromReissuesLocalFetch(t *testing.T) {
	const failed = 2
	p, _ := testProc(t, 0, 4, false)

	name := nameHomedAt(t, 4, 0)
	o := p.obj(name)
	o.state = stInactive
	o.awaits.from = failed
	o.data = &recoveryPayload{X: 3}
	o.fetchOutstanding = true
	o.reqKind = kReadReq
	o.waiters = []*cmd{{op: opUseValue, name: name}}

	p.dropProvisionalFrom(failed)

	if o.state != stAbsent {
		t.Fatalf("object state = %v, want stAbsent", o.state)
	}
	d := p.dirEnt(name)
	if d.known {
		t.Fatal("directory should not know an owner yet")
	}
	found := false
	for _, r := range d.pendingRead {
		if r == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("local re-issued fetch not parked in directory: pendingRead=%v", d.pendingRead)
	}
}

// TestDuplicateRecoveryDataDoesNotReinstall is the regression test for
// the migration-fork bug: once recovery data for a name has been applied
// this incarnation, a late duplicate contribution (a re-solicited
// replacement survivor re-sends everything) must not re-install the main
// copy — the object may have legitimately migrated away in between.
func TestDuplicateRecoveryDataDoesNotReinstall(t *testing.T) {
	p, _ := testProc(t, 0, 4, true)
	p.inc.restoring = false

	name := nameHomedAt(t, 4, 2)
	body := packPayload(t, 42)
	p.inc.ownerConfirmed[name] = true
	p.stashOrInstall(&image{name: name, sender: 1, body: body, seq: 1})

	o := p.obj(name)
	if !o.isMain || !o.created {
		t.Fatal("first recovery contribution did not install the main copy")
	}

	// The object migrates away: ownership leaves this process.
	o.isMain = false
	o.created = false
	o.data = nil
	o.state = stAbsent

	// A duplicate contribution arrives long after (restore is complete,
	// so onRecoverData routes it through stashOrInstall).
	p.onRecoverData(&wire{Kind: kRecoverData, SrcRank: 3, Name: uint64(name), Body: body, Seq: 2})

	if o.isMain || o.created || o.data != nil {
		t.Error("duplicate recovery data re-installed a migrated-away main copy (fork)")
	}
	if _, ok := p.inc.unconfirmedData[name]; ok {
		t.Error("duplicate recovery data was stashed despite prior install")
	}
}

// TestDecideOrphansConflictingHints drives the §4.5 orphan decision with
// conflicting version-stamped owner hints and a late directory report
// claiming a live owner: the recovering process must not install a main
// copy (the object would fork), and an unclaimed self-homed orphan must
// install exactly once.
func TestDecideOrphansConflictingHints(t *testing.T) {
	p, _ := testProc(t, 0, 4, true)
	// Restore already completed; late arrivals go through stashOrInstall.
	p.inc.restoring = false

	claimed := nameHomedAt(t, 4, 0)
	orphan := MkName(7, int(uint64(claimed)>>24&0xffffff)+1000, 0)
	for ckptstore.HomeRank(uint64(orphan), 4) != 0 {
		orphan = MkName(7, int(uint64(orphan)>>24&0xffffff)+1, 0)
	}

	// Conflicting hints for the claimed object: two previous holders saw
	// migrations at different versions. The newest wins in the hint table.
	p.onOwnerHint(&wire{Kind: kOwnerHint, SrcRank: 1, Name: uint64(claimed), Meta: ft.ObjectMeta{Version: 3}, HasMeta: true})
	p.onOwnerHint(&wire{Kind: kOwnerHint, SrcRank: 2, Name: uint64(claimed), Meta: ft.ObjectMeta{Version: 5}, HasMeta: true})
	if p.inc.orphanHints[claimed] != 5 {
		t.Fatalf("orphanHints = %d, want 5 (newest version wins)", p.inc.orphanHints[claimed])
	}
	p.onRecoverData(&wire{Kind: kRecoverData, SrcRank: 1, Name: uint64(claimed), Body: packPayload(t, 1), Seq: 1})

	// An unclaimed orphan, also stashed.
	p.onOwnerHint(&wire{Kind: kOwnerHint, SrcRank: 3, Name: uint64(orphan), Meta: ft.ObjectMeta{Version: 2}, HasMeta: true})
	p.onRecoverData(&wire{Kind: kRecoverData, SrcRank: 3, Name: uint64(orphan), Body: packPayload(t, 2), Seq: 1})

	// A late directory report: rank 2 owns the claimed object (it fetched
	// the main copy after our last checkpoint; the hints are stale).
	p.dispatch(&wire{Kind: kDirReport, SrcRank: 2, Name: uint64(claimed)})

	// All survivor contributions complete.
	for r := 1; r < 4; r++ {
		p.onRecoverFin(&wire{Kind: kRecoverFin, SrcRank: r})
	}
	if !p.inc.orphansDecided {
		t.Fatal("orphan decision did not run after N-1 fins")
	}

	// The claimed object must never have been installed.
	if o := p.objs[claimed]; o != nil && (o.isMain || o.created) {
		t.Error("installed a main copy for an object a live process owns (fork)")
	}
	// The unclaimed self-homed orphan installs exactly once.
	o := p.objs[orphan]
	if o == nil || !o.isMain || !o.created {
		t.Fatal("unclaimed self-homed orphan was not installed")
	}
	if !p.inc.ownerConfirmed[orphan] {
		t.Error("installed orphan not marked owner-confirmed")
	}
	if _, ok := p.inc.unconfirmedData[orphan]; ok {
		t.Error("installed orphan left in the unconfirmed stash")
	}
	d := p.dirEnt(orphan)
	if !d.known || d.owner != 0 {
		t.Errorf("directory for installed orphan = known=%v owner=%d, want self", d.known, d.owner)
	}
}

// TestDecideOrphansQueriesRemoteHome checks the arbitration protocol for
// orphans homed elsewhere: the recovering process queries the home with
// its best version, a denial drops the claim, and a grant installs the
// stashed data.
func TestDecideOrphansQueriesRemoteHome(t *testing.T) {
	p, tasks := testProc(t, 0, 4, true)
	p.inc.restoring = false

	homeRank := 2
	denied := nameHomedAt(t, 4, homeRank)
	granted := MkName(9, 0, 0)
	for ckptstore.HomeRank(uint64(granted), 4) != homeRank {
		granted = MkName(9, int(uint64(granted)>>24&0xffffff)+1, 0)
	}

	p.onOwnerHint(&wire{Kind: kOwnerHint, SrcRank: 1, Name: uint64(denied), Meta: ft.ObjectMeta{Version: 4}, HasMeta: true})
	p.onRecoverData(&wire{Kind: kRecoverData, SrcRank: 1, Name: uint64(denied), Body: packPayload(t, 1), Seq: 1})
	p.onRecoverData(&wire{Kind: kRecoverData, SrcRank: 3, Name: uint64(granted), Body: packPayload(t, 2), Seq: 1, Meta: ft.ObjectMeta{Name: uint64(granted), Version: 7}, HasMeta: true})

	for r := 1; r < 4; r++ {
		p.onRecoverFin(&wire{Kind: kRecoverFin, SrcRank: r})
	}

	// Both names must have been queried at the home, carrying the best
	// known version for each.
	got := map[Name]int64{}
	for i := 0; i < 2; i++ {
		w := recvWire(t, tasks[homeRank])
		if w.Kind != kOwnerQuery {
			t.Fatalf("message %d = %s, want OwnerQuery", i, kindName(w.Kind))
		}
		got[Name(w.Name)] = w.Meta.Version
	}
	if got[denied] != 4 || got[granted] != 7 {
		t.Fatalf("query versions = %v, want {%s:4 %s:7}", got, denied, granted)
	}

	// The home denies one claim and grants the other.
	p.onOwnerDeny(&wire{Kind: kOwnerDeny, SrcRank: homeRank, Name: uint64(denied)})
	if _, ok := p.inc.unconfirmedData[denied]; ok {
		t.Error("denied claim left stashed data behind")
	}
	if _, ok := p.inc.orphanHints[denied]; ok {
		t.Error("denied claim left its hint behind")
	}
	if o := p.objs[denied]; o != nil && o.isMain {
		t.Error("denied claim installed a main copy")
	}

	p.onOwnerReport(&wire{Kind: kOwnerReport, SrcRank: homeRank, Name: uint64(granted)})
	o := p.objs[granted]
	if o == nil || !o.isMain || !o.created {
		t.Fatal("granted claim did not install the stashed main copy")
	}
	if v, ok := o.data.(*recoveryPayload); !ok || v.X != 2 {
		t.Errorf("installed contents = %#v, want payload 2", o.data)
	}
}

// TestOwnerQueryDeferredAtRecoveringHome checks the other side of the
// arbitration: a home that is itself recovering must not answer
// orphan-ownership queries until its directory has been rebuilt from
// every survivor's reports — answering early could grant an object a
// live process owns.
func TestOwnerQueryDeferredAtRecoveringHome(t *testing.T) {
	p, tasks := testProc(t, 0, 4, true)
	p.inc.restoring = false

	free := nameHomedAt(t, 4, 0)
	taken := MkName(11, 0, 0)
	for ckptstore.HomeRank(uint64(taken), 4) != 0 {
		taken = MkName(11, int(uint64(taken)>>24&0xffffff)+1, 0)
	}

	// Queries arrive from another recovering rank before our directory is
	// rebuilt: they must be parked, not answered.
	p.dispatch(&wire{Kind: kOwnerQuery, SrcRank: 3, Name: uint64(free), Meta: ft.ObjectMeta{Version: 1}, HasMeta: true})
	p.dispatch(&wire{Kind: kOwnerQuery, SrcRank: 3, Name: uint64(taken), Meta: ft.ObjectMeta{Version: 1}, HasMeta: true})
	if tasks[3].Probe(pvm.AnySrc, TagSAM) {
		t.Fatal("recovering home answered an owner query before rebuilding its directory")
	}
	if len(p.inc.pendingOwnerQueries) != 2 {
		t.Fatalf("parked queries = %d, want 2", len(p.inc.pendingOwnerQueries))
	}

	// Directory rebuild: a survivor reports it owns one of the names.
	p.dispatch(&wire{Kind: kDirReport, SrcRank: 1, Name: uint64(taken)})
	for r := 1; r < 4; r++ {
		p.onRecoverFin(&wire{Kind: kRecoverFin, SrcRank: r})
	}

	// Both deferred answers flush: a grant for the free name, a denial
	// for the taken one.
	replies := map[Name]int{}
	for i := 0; i < 2; i++ {
		w := recvWire(t, tasks[3])
		replies[Name(w.Name)] = w.Kind
	}
	if replies[free] != kOwnerReport {
		t.Errorf("free name reply = %s, want OwnerReport", kindName(replies[free]))
	}
	if replies[taken] != kOwnerDeny {
		t.Errorf("taken name reply = %s, want OwnerDeny", kindName(replies[taken]))
	}
	d := p.dirEnt(free)
	if !d.known || d.owner != 3 {
		t.Errorf("granted name directory = known=%v owner=%d, want rank 3", d.known, d.owner)
	}
	if d := p.dirEnt(taken); d.owner != 1 {
		t.Errorf("taken name directory owner = %d, want rank 1", d.owner)
	}
}

// TestRelayToDeadCoordinatorIsNoticed covers simultaneous failures with
// lossy exit notifications (the chaos sweeps' schedule 0): ranks 0 and 1 die
// together and this process hears only about rank 1. It relays the report
// to the coordinator it believes in — rank 0 — which is dead too; unless
// the relay also (re-)arms a watch on the coordinator, nobody ever restarts
// either rank.
func TestRelayToDeadCoordinatorIsNoticed(t *testing.T) {
	p, tasks := testProc(t, 3, 4, false)
	// No watches are registered (the runtime loop is not running), which
	// models every notification to this process having been dropped.
	m := machineOf(p)
	m.Kill(tasks[0].TID())
	m.Kill(tasks[1].TID())

	p.handleTaskExit(tasks[1].TID())
	if tasks[2].Probe(pvm.AnySrc, TagSAM) {
		t.Fatal("setup: with rank 0 believed alive the report should go to rank 0, not rank 2")
	}

	// The coordinator's death must come back to us without further help.
	msg, ok, err := tasks[3].TryRecv(pvm.AnySrc, pvm.TagTaskExit)
	if err != nil || !ok {
		t.Fatalf("relaying to a dead coordinator raised no exit notification (ok=%v err=%v)", ok, err)
	}
	p.handleMessage(msg)

	// Both failures now go to the next coordinator in line.
	got := map[int]bool{}
	for i := 0; i < 2; i++ {
		w := recvWire(t, tasks[2])
		if w.Kind != kFailed {
			t.Fatalf("rank 2 got %s, want Failed", kindName(w.Kind))
		}
		got[w.Target] = true
	}
	if !got[0] || !got[1] {
		t.Fatalf("failures relayed to rank 2 = %v, want ranks 0 and 1", got)
	}
}

// TestDeferredActivationsCountAtRecovery is the regression test for a
// recovery hang and a wrong-answer flake in TestCounterSurvives*: a holder
// in the middle of its own checkpoint transaction defers other processes'
// activations, so a private state and a checkpoint copy that their
// checkpointer has long committed still look provisional when the process
// they restore dies. Dropping them as uncommitted (or contributing without
// them) restarts that process fresh, or leaves it waiting forever for an
// object nobody will send again.
func TestDeferredActivationsCountAtRecovery(t *testing.T) {
	const checkpointer, failed = 0, 3
	p, _ := testProc(t, 1, 4, false)
	name := nameHomedAt(t, 4, 0)
	priv, err := codec.Pack(&ft.PrivateState{Rank: failed, Seq: 5})
	if err != nil {
		t.Fatal(err)
	}

	// Our own transaction is open, waiting for an ack.
	p.tx = &ckptTx{seq: 1, acksNeeded: 1, dirtyAt: map[Name]int64{}}
	// Rank 3 checkpointed (we hold its private state), and rank 0 migrated
	// an object to rank 3 (we hold the copy for the new owner). Both have
	// committed: the activations are here, held back behind p.tx.
	p.dispatch(&wire{Kind: kCkptPriv, SrcRank: failed, Seq: 5, Piece: 0, Inactive: true, Body: priv})
	p.dispatch(&wire{Kind: kActivate, SrcRank: failed, Seq: 5})
	p.dispatch(&wire{
		Kind: kCkptCopy, SrcRank: checkpointer, Name: uint64(name), Owner: failed, Seq: 2, Piece: 1,
		Inactive: true, Body: packPayload(t, 7), Meta: ft.ObjectMeta{Version: 1}, HasMeta: true,
	})
	p.dispatch(&wire{Kind: kActivate, SrcRank: checkpointer, Seq: 2})
	if o := p.objs[name]; o == nil || o.pending == nil || o.copy != nil || p.privStaging[failed].body == nil {
		t.Fatal("setup: both pieces should still be pending behind the open transaction")
	}

	// Rank 3 dies and comes back under a new tid.
	reborn := respawn(t, p, "t3b")
	p.noteIncarnation(failed, reborn.TID(), false)

	var kinds []string
	gotPriv, gotData := false, false
	for {
		w := recvWire(t, reborn)
		kinds = append(kinds, kindName(w.Kind))
		switch {
		case w.Kind == kRecoverPriv && !w.Fresh && w.Seq == 5:
			gotPriv = true
		case w.Kind == kRecoverData && Name(w.Name) == name && w.Seq == 2:
			gotData = true
		}
		if w.Kind == kRecoverFin {
			break
		}
	}
	if !gotPriv || !gotData {
		t.Fatalf("contribution %v lacks the committed private state (%v) or object copy (%v)", kinds, gotPriv, gotData)
	}
}

// TestCopyCommittedAfterTheContributionIsResupplied: rank 0 migrates an
// object to rank 3, placing its checkpoint copy here, and rank 3 dies before
// the activation. We supply rank 3's replacement while the copy is still
// pending, so the contribution goes without it; when rank 0's commit
// arrives, the copy — the only one of the object's committed contents — is
// sent after it. (It was kept here, and the replacement waited for it
// forever.)
func TestCopyCommittedAfterTheContributionIsResupplied(t *testing.T) {
	const sender, target = 0, 3
	p, _ := testProc(t, 1, 4, false)
	name := nameHomedAt(t, 4, 2)
	p.dispatch(&wire{
		Kind: kCkptCopy, SrcRank: sender, Name: uint64(name), Owner: target, Seq: 4, Piece: -1,
		Inactive: true, Body: packPayload(t, 7), Meta: ft.ObjectMeta{Version: 2}, HasMeta: true,
	})

	reborn := respawn(t, p, "t3b")
	p.noteIncarnation(target, reborn.TID(), false)
	for w := recvWire(t, reborn); w.Kind != kRecoverFin; w = recvWire(t, reborn) {
		if w.Kind == kRecoverData && Name(w.Name) == name {
			t.Fatal("setup: the pending copy was contributed before its commit")
		}
	}

	p.dispatch(&wire{Kind: kActivate, SrcRank: sender, Seq: 4})
	if !reborn.Probe(pvm.AnySrc, TagSAM) {
		t.Fatal("the copy committed after the contribution was not sent to the replacement")
	}
	if w := recvWire(t, reborn); w.Kind != kRecoverData || Name(w.Name) != name || w.Seq != 4 || w.Owner != target {
		t.Fatalf("replacement got %s %v seq %d owner %d, want the committed copy", kindName(w.Kind), Name(w.Name), w.Seq, w.Owner)
	}
}

// TestCommittedPendingCopyIsNotOverwritten: a copy's commit arrives while
// our own transaction holds activations back, and a newer copy of the same
// object arrives before that transaction commits. The held-back commit
// installs the first copy before the second takes the pending slot. (The
// second overwrote it, and the first — committed — was lost: its owner's
// replacement waited forever for the contents.)
func TestCommittedPendingCopyIsNotOverwritten(t *testing.T) {
	const first, second = 0, 3
	p, _ := testProc(t, 1, 4, false)
	name := nameHomedAt(t, 4, 2)
	p.tx = &ckptTx{seq: 1, acksNeeded: 1, dirtyAt: map[Name]int64{}}
	p.dispatch(&wire{
		Kind: kCkptCopy, SrcRank: first, Name: uint64(name), Owner: second, Seq: 2, Piece: -1,
		Inactive: true, Body: packPayload(t, 7), Meta: ft.ObjectMeta{Version: 1}, HasMeta: true,
	})
	p.dispatch(&wire{Kind: kActivate, SrcRank: first, Seq: 2})
	p.dispatch(&wire{
		Kind: kCkptCopy, SrcRank: second, Name: uint64(name), Owner: 2, Seq: 5, Piece: -1,
		Inactive: true, Body: packPayload(t, 8), Meta: ft.ObjectMeta{Version: 2}, HasMeta: true,
	})
	o := p.objs[name]
	if o.copy == nil || o.copy.sender != first || o.copy.seq != 2 {
		t.Fatalf("committed copy = %+v, want rank %d's, seq 2", o.copy, first)
	}
	if o.pending == nil || o.pending.sender != second {
		t.Fatalf("pending copy = %+v, want rank %d's", o.pending, second)
	}
}

// TestInDoubtMigrationIsSettledByTheHome: rank 3 migrates an accumulator
// here and is replaced before its activation arrives — it may have
// committed, telling the home, first; then these contents exist nowhere
// else. They are kept, the acquisition goes to the home again, and the
// home's word that we own them — a confirmation, or a grant to pass them on
// — hands them to the application. (They were dropped, and the home ignored
// a request from the rank it names owner, or waited for its grant: a hang.)
func TestInDoubtMigrationIsSettledByTheHome(t *testing.T) {
	const target, home, sender, next = 2, 1, 3, 0
	for _, tc := range []struct {
		name   string
		settle *wire
		early  bool // the settling word arrives before the sender is replaced
	}{
		{"confirmed", &wire{Kind: kOwnerReport, SrcRank: home}, false},
		{"granted on", &wire{Kind: kAccGrant, SrcRank: home, Target: next}, false},
		{"granted on first", &wire{Kind: kAccGrant, SrcRank: home, Target: next}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, tasks := testProc(t, target, 4, false)
			name := nameHomedAt(t, 4, home)
			c := appCmd(p, &cmd{op: opUpdateAccum, name: name})
			if w := recvWire(t, tasks[home]); w.Kind != kAccAcq {
				t.Fatalf("setup: the home got %s, want AccAcq", kindName(w.Kind))
			}
			p.dispatch(&wire{
				Kind: kAccData, SrcRank: sender, Name: uint64(name), Target: target, Body: packPayload(t, 7),
				Inactive: true, Seq: 5, Piece: 0, HasMeta: true,
				Meta: ft.ObjectMeta{Name: uint64(name), Kind: uint8(ft.KindAccum), Nonreproducible: true, Version: 3},
			})

			tc.settle.Name = uint64(name)
			if tc.early {
				p.dispatch(tc.settle)
			}
			reborn := respawn(t, p, "t3b")
			p.noteIncarnation(sender, reborn.TID(), false)
			if !tc.early {
				if w := recvWire(t, tasks[home]); w.Kind != kAccAcq || Name(w.Name) != name {
					t.Fatalf("the home got %s %v, want the acquisition again", kindName(w.Kind), Name(w.Name))
				}
				if _, ok := done(c); ok {
					t.Fatal("the accumulator was granted before the home settled its migration")
				}
				p.dispatch(tc.settle)
			}
			r, ok := done(c)
			if !ok || r.err != nil {
				t.Fatalf("the home's word did not grant the accumulator (done=%v err=%v)", ok, r.err)
			}
			if got := r.obj.(*recoveryPayload); got.X != 7 {
				t.Fatalf("granted contents %+v, want the migrated 7", got)
			}
		})
	}
}

// TestHomeConfirmsAnOwnerAskingForWhatItHolds: a home's record names the
// owner from the committed migrations, so an acquisition by that very rank
// gets the record back instead of being dropped.
func TestHomeConfirmsAnOwnerAskingForWhatItHolds(t *testing.T) {
	const owner = 2
	p, tasks := testProc(t, 0, 4, false)
	name := nameHomedAt(t, 4, 0)
	p.dispatch(&wire{Kind: kReg, SrcRank: owner, Name: uint64(name)})
	p.dispatch(&wire{Kind: kAccAcq, SrcRank: owner, Name: uint64(name)})
	if w := recvWire(t, tasks[owner]); w.Kind != kOwnerReport || Name(w.Name) != name {
		t.Fatalf("the owner got %s %v, want OwnerReport %v", kindName(w.Kind), Name(w.Name), name)
	}
}

// TestLateOwnerHintIsNotQueriedAgain: a survivor's re-sent contribution
// repeats an ownership hint after this replacement has decided its orphans.
// The hint is dropped; kept, it looked unresolved and was put to the home's
// replacement when the home later died, which granted a stale claim — the
// object's real owner, restoring at the home, lost it and the next acquirer
// waited forever.
func TestLateOwnerHintIsNotQueriedAgain(t *testing.T) {
	const home = 2
	p, _ := testProc(t, 0, 4, true)
	p.inc.restoring = false
	name := nameHomedAt(t, 4, home)
	for r := 1; r < 4; r++ {
		p.onRecoverFin(&wire{Kind: kRecoverFin, SrcRank: r})
	}
	if !p.inc.orphansDecided {
		t.Fatal("setup: orphans not decided")
	}
	p.dispatch(&wire{Kind: kOwnerHint, SrcRank: 3, Name: uint64(name), Meta: ft.ObjectMeta{Version: 4}, HasMeta: true})

	reborn := respawn(t, p, "t2b")
	p.noteIncarnation(home, reborn.TID(), false)
	for w := recvWire(t, reborn); w.Kind != kRecoverFin; w = recvWire(t, reborn) {
		if w.Kind == kOwnerQuery {
			t.Fatalf("the home's replacement was asked about %v on a hint that came after the decision", Name(w.Name))
		}
	}
}

// TestProvisionalMainCopyIsNotRepaired: an accumulator that migrated here is
// inactive until its sender commits, and the holder of its checkpoint copy
// is replaced meanwhile. The copy is not re-placed from here: the contents
// are not committed, and a copy naming us would tell the holder we own them
// — with the sender dead, it answered the home's re-driven grant with our
// rank, and the accumulator forked.
func TestProvisionalMainCopyIsNotRepaired(t *testing.T) {
	const target, sender, holder = 2, 3, 1
	p, _ := testProc(t, target, 4, false)
	name := nameHomedAt(t, 4, 0)
	if !slices.Contains(p.store.Plan(uint64(name), target), holder) {
		t.Fatalf("rank %d holds no copy of %v placed for rank %d", holder, name, target)
	}
	p.dispatch(&wire{
		Kind: kAccData, SrcRank: sender, Name: uint64(name), Target: target, Body: packPayload(t, 7),
		Inactive: true, Seq: 5, Piece: 0, HasMeta: true,
		Meta: ft.ObjectMeta{Name: uint64(name), Kind: uint8(ft.KindAccum), Nonreproducible: true, Version: 3},
	})
	reborn := respawn(t, p, "t1b")
	p.noteIncarnation(holder, reborn.TID(), false)
	for w := recvWire(t, reborn); w.Kind != kRecoverFin; w = recvWire(t, reborn) {
		if w.Kind == kCkptCopy && Name(w.Name) == name {
			t.Fatalf("an uncommitted main copy was re-placed at the replaced holder (seq %d, owner %d)", w.Seq, w.Owner)
		}
	}
}

// TestReadForwardedToAReplacedClaimFollowsTheReregistration: a process
// registered a value and died before any checkpoint covered it, so the step
// that created it is re-executed from a state in which its non-reexecutable
// result (a Jade task pop) can differ, and another rank creates the value. A
// read the home forwarded to the replacement in between is kept at the home
// and follows the new registration; the replacement would hold it forever.
// (Water's pool, uncontended once a release checkpoints, let a rank pop and
// register twice unchecked: 3 of 2 500 traced water8 kill runs hung with the
// main process waiting for such a value.)
func TestReadForwardedToAReplacedClaimFollowsTheReregistration(t *testing.T) {
	const dead, reader, recreator = 3, 1, 2
	for _, tc := range []struct {
		name       string
		registrant int
		want       []string // what the new registration sends
	}{
		{"created elsewhere", recreator, []string{"ReadFwd"}},
		{"created by the replacement", dead, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, tasks := testProc(t, 0, 5, false)
			v := nameHomedAt(t, 5, 0)
			p.dispatch(&wire{Kind: kReg, SrcRank: dead, Name: uint64(v)})
			tasks[dead] = respawn(t, p, "t3b")
			p.noteIncarnation(dead, tasks[dead].TID(), false)
			drain(t, tasks)

			p.dispatch(&wire{Kind: kReadReq, SrcRank: reader, Name: uint64(v)})
			if got := kindsTo(drain(t, tasks), dead); !slices.Equal(got, []string{"ReadFwd"}) {
				t.Fatalf("setup: the replacement got %v, want the forwarded read", got)
			}
			p.dispatch(&wire{Kind: kReg, SrcRank: tc.registrant, Name: uint64(v)})
			frames := drain(t, tasks)
			if got := kindsTo(frames, tc.registrant); !slices.Equal(got, tc.want) {
				t.Fatalf("registrant %d got %v, want %v", tc.registrant, got, tc.want)
			}
			if len(tc.want) > 0 && frames[0].Target != reader {
				t.Errorf("the read was forwarded for rank %d, want %d", frames[0].Target, reader)
			}
		})
	}
}
