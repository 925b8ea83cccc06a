package sam

// White-box tests for what a checkpoint transaction sends, and in what order
// (DESIGN §7): nothing rides twice, each recipient is asked for one ack, the
// count of acks is fixed before the first piece leaves, and the commit tells
// the home before it wakes the new owner.

import (
	"cmp"
	"slices"
	"testing"

	"samft/internal/codec"
	"samft/internal/ft"
	"samft/internal/pvm"
)

// txBlob is object contents large enough to outweigh a private-state record,
// so the send pass (bulk first) puts the object's pieces ahead of it.
type txBlob struct{ Fill []byte }

func init() { codec.Register("sam.txTestBlob", txBlob{}) }

// txProc is rank 0 of 5 at degree 1 (its private state goes to rank 1), in a
// step that has performed a non-reexecutable operation: what it creates is
// nonreproducible, and no transaction starts until the test calls open.
func txProc(t *testing.T) (*Proc, []*pvm.Task) {
	t.Helper()
	p, tasks := testProcCfg(t, 5, Config{Rank: 0, Policy: ft.PolicySAM, Degree: 1})
	p.taint.OnNonReexecutable()
	return p, tasks
}

// open puts the application at a consistent point for good, which starts a
// transaction whenever a trigger is queued and none is open.
func open(p *Proc) {
	p.appFinished = true
	p.maybeStartTx()
}

// nameFor finds a name with the given home whose checkpoint copy, placed on
// behalf of owner, goes to holder.
func nameFor(t *testing.T, p *Proc, home, owner, holder int) Name {
	t.Helper()
	for a := 0; a < 64; a++ {
		for b := 0; b < 64; b++ {
			name := MkName(7, a, b)
			if p.home(name) == home && p.store.Plan(uint64(name), owner)[0] == holder {
				return name
			}
		}
	}
	t.Fatalf("no name homed at %d with owner %d's copy at %d", home, owner, holder)
	return 0
}

func createValue(t *testing.T, p *Proc, name Name, x int64) {
	t.Helper()
	if r, _ := done(appCmd(p, &cmd{op: opCreateValue, name: name, obj: &recoveryPayload{X: x}, accesses: Unlimited})); r.err != nil {
		t.Fatalf("create %v: %v", name, r.err)
	}
}

// sent is one frame as its receiver finds it, with the instant it left.
type sent struct {
	*wire
	to     int
	leftUS float64
}

// drain takes every protocol message waiting at the tasks, in the order the
// process under test sent them.
func drain(t *testing.T, tasks []*pvm.Task) []sent {
	t.Helper()
	cost := tasks[0].Endpoint().Network().Cost()
	var out []sent
	for r, task := range tasks {
		for task.Probe(pvm.AnySrc, TagSAM) {
			m, err := task.Recv(pvm.AnySrc, TagSAM)
			if err != nil {
				t.Fatal(err)
			}
			w := new(wire)
			if err := decodeFrame(&m, w); err != nil {
				t.Fatal(err)
			}
			out = append(out, sent{wire: w, to: r, leftUS: m.ArrivalUS - cost.TransferUS(m.Len())})
		}
	}
	slices.SortStableFunc(out, func(a, b sent) int { return cmp.Compare(a.leftUS, b.leftUS) })
	return out
}

// kindsTo lists the kinds of the frames addressed to rank, in order.
func kindsTo(frames []sent, rank int) []string {
	var out []string
	for _, f := range frames {
		if f.to == rank {
			out = append(out, kindName(f.Kind))
		}
	}
	return out
}

// ackAll answers every numbered piece among frames the way its recipient
// would, and reports how many acks that took.
func ackAll(p *Proc, frames []sent) int {
	n := 0
	for _, f := range frames {
		if f.Piece >= 0 && f.Inactive {
			n++
			p.dispatch(&wire{Kind: kCkptAck, SrcRank: f.to, Seq: f.Seq, Target: f.Piece})
		}
	}
	return n
}

// TestTxReadOfACarriedValueQueuesNothing: while a transaction is open, a read
// of a value it already takes to the reader — as a push, or as a checkpoint
// copy the activation makes usable — is answered by that piece. (It used to
// become a trigger, and the trigger a second transaction: private state plus
// one more copy of contents that had just been committed.)
func TestTxReadOfACarriedValueQueuesNothing(t *testing.T) {
	const privHolder, copyHolder, pushed = 1, 2, 3
	p, tasks := txProc(t)
	v := nameFor(t, p, 0, 0, copyHolder)
	createValue(t, p, v, 7)
	open(p)
	if r, _ := done(appCmd(p, &cmd{op: opPush, name: v, rank: pushed})); r.err != nil {
		t.Fatal(r.err)
	}
	pieces := drain(t, tasks)
	if p.tx == nil || len(pieces) != 3 {
		t.Fatalf("setup: open=%v with %d pieces, want an open transaction of 3", p.tx != nil, len(pieces))
	}

	for _, reader := range []int{copyHolder, pushed} {
		p.dispatch(&wire{Kind: kReadFwd, SrcRank: 0, Name: uint64(v), Target: reader})
	}
	if len(p.pendingTriggers) != 0 {
		t.Fatalf("reads of a value the open transaction carries queued %d trigger(s)", len(p.pendingTriggers))
	}
	if got := p.st.DupSendsAvoided.Load(); got != 2 {
		t.Fatalf("duplicate sends avoided = %d, want 2", got)
	}
	onlyTo(t, tasks, -1)

	if n := ackAll(p, pieces); n != 3 {
		t.Fatalf("setup: %d numbered pieces, want one per destination", n)
	}
	after := drain(t, tasks)
	for _, r := range []int{privHolder, copyHolder, pushed} {
		if got := kindsTo(after, r); !slices.Equal(got, []string{"Activate"}) {
			t.Errorf("rank %d got %v after the commit, want only the activation", r, got)
		}
	}
	if got := p.st.Checkpoints.Load(); got != 1 || p.tx != nil {
		t.Fatalf("checkpoints = %d, open = %v: the reads opened a transaction of their own", got, p.tx != nil)
	}
}

// TestTxCoveredTriggerLeavesWithoutATransaction: a read queued behind an open
// transaction that does not serve its rank finds the value covered when that
// transaction commits, and leaves as an ordinary active reply.
func TestTxCoveredTriggerLeavesWithoutATransaction(t *testing.T) {
	const privHolder, reader = 1, 3
	p, tasks := txProc(t)
	v := nameFor(t, p, 0, 0, 2)
	createValue(t, p, v, 7)
	p.addTrigger(trigger{})
	open(p)
	pieces := drain(t, tasks)
	if p.tx == nil {
		t.Fatal("setup: no open transaction")
	}

	p.dispatch(&wire{Kind: kReadFwd, SrcRank: 0, Name: uint64(v), Target: reader})
	if len(p.pendingTriggers) != 1 {
		t.Fatalf("read from a rank the transaction does not serve queued %d trigger(s), want 1", len(p.pendingTriggers))
	}
	onlyTo(t, tasks, -1)

	ackAll(p, pieces)
	after := drain(t, tasks)
	got := kindsTo(after, reader)
	if !slices.Equal(got, []string{"ObjData"}) {
		t.Fatalf("reader got %v after the commit, want one ObjData", got)
	}
	for _, f := range after {
		if f.to == reader && f.Inactive {
			t.Error("the reply is an inactive transaction piece, want an active send")
		}
	}
	if got := kindsTo(after, privHolder); !slices.Equal(got, []string{"Activate"}) {
		t.Errorf("private-state holder got %v, want only the activation: a second transaction was opened", got)
	}
	if got := p.st.Checkpoints.Load(); got != 1 || p.tx != nil || len(p.pendingTriggers) != 0 {
		t.Fatalf("checkpoints = %d, open = %v, queued = %d, want 1, false, 0", got, p.tx != nil, len(p.pendingTriggers))
	}
}

// TestTxTwoTriggersForOnePairMakeOnePiece: the home forwards a parked read
// when the value registers, and the creator pushes it to the same process; by
// the gate both are queued. One piece answers both, and a reader that holds
// the value's checkpoint copy gets no second frame either.
func TestTxTwoTriggersForOnePairMakeOnePiece(t *testing.T) {
	const copyHolder, reader = 2, 3
	p, tasks := txProc(t)
	v := nameFor(t, p, 0, 0, copyHolder)
	createValue(t, p, v, 7)
	p.dispatch(&wire{Kind: kReadFwd, SrcRank: 0, Name: uint64(v), Target: reader})
	for _, r := range []int{reader, copyHolder} {
		if res, _ := done(appCmd(p, &cmd{op: opPush, name: v, rank: r})); res.err != nil {
			t.Fatal(res.err)
		}
	}
	if len(p.pendingTriggers) != 3 || p.tx != nil {
		t.Fatalf("setup: %d triggers queued, open = %v", len(p.pendingTriggers), p.tx != nil)
	}
	open(p)
	pieces := drain(t, tasks)
	if got := kindsTo(pieces, reader); !slices.Equal(got, []string{"ObjData"}) {
		t.Errorf("reader got %v, want one ObjData for its read and the push", got)
	}
	if got := kindsTo(pieces, copyHolder); !slices.Equal(got, []string{"CkptCopy"}) {
		t.Errorf("copy holder got %v, want the checkpoint copy alone", got)
	}
	if got := p.st.DupSendsAvoided.Load(); got != 2 {
		t.Errorf("duplicate sends avoided = %d, want 2", got)
	}
}

// threeToOne opens a transaction with three inactive pieces for rank 1 — the
// private state, a checkpoint copy and a pushed value — and one for rank 2,
// and returns the frames as sent.
func threeToOne(t *testing.T) (*Proc, []*pvm.Task, []sent) {
	t.Helper()
	p, tasks := txProc(t)
	held, pushed := nameFor(t, p, 0, 0, 1), nameFor(t, p, 0, 0, 2)
	createValue(t, p, held, 1)
	createValue(t, p, pushed, 2)
	if r, _ := done(appCmd(p, &cmd{op: opPush, name: pushed, rank: 1})); r.err != nil {
		t.Fatal(r.err)
	}
	open(p)
	pieces := drain(t, tasks)
	if got := kindsTo(pieces, 1); len(got) != 3 {
		t.Fatalf("setup: rank 1 got %v, want three pieces", got)
	}
	if got := kindsTo(pieces, 2); !slices.Equal(got, []string{"CkptCopy"}) {
		t.Fatalf("setup: rank 2 got %v, want one checkpoint copy", got)
	}
	return p, tasks, pieces
}

// receive hands the frames addressed to q's rank to its handlers, in order,
// and returns what q sent back to the checkpointer.
func receive(t *testing.T, q *Proc, qtasks []*pvm.Task, frames []sent) []sent {
	t.Helper()
	for _, f := range frames {
		if f.to == q.cfg.Rank {
			q.dispatch(f.wire)
		}
	}
	var back []sent
	for _, f := range drain(t, qtasks) {
		if f.to == 0 {
			back = append(back, f)
		}
	}
	return back
}

// TestTxOneAckPerRecipient: a pair of processes sees messages in order, so
// only the last inactive piece to a destination is numbered, the destination
// acks once, and that ack — the last one out — commits the transaction.
func TestTxOneAckPerRecipient(t *testing.T) {
	p, tasks, pieces := threeToOne(t)
	if p.tx.acksNeeded != 2 {
		t.Fatalf("acks needed = %d, want one per destination (2)", p.tx.acksNeeded)
	}
	var last *wire
	for _, f := range pieces {
		if f.to != 1 {
			continue
		}
		if last != nil && last.Piece >= 0 {
			t.Errorf("%s to rank 1 is numbered but is not the last piece there", kindName(last.Kind))
		}
		last = f.wire
	}
	if last.Piece < 0 {
		t.Error("the last piece to rank 1 asks for no ack")
	}

	q, qtasks := testProcCfg(t, 5, Config{Rank: 1, Policy: ft.PolicySAM, Degree: 1})
	acks := receive(t, q, qtasks, pieces)
	if got := kindsTo(acks, 0); !slices.Equal(got, []string{"CkptAck"}) {
		t.Fatalf("three pieces drew %v from their recipient, want one CkptAck", got)
	}

	p.dispatch(&wire{Kind: kCkptAck, SrcRank: 2, Seq: p.tx.seq, Target: pieceTo(t, pieces, 2)})
	if p.tx == nil {
		t.Fatal("committed before rank 1 acknowledged")
	}
	p.dispatch(acks[0].wire)
	if p.tx != nil || p.st.Checkpoints.Load() != 1 {
		t.Fatalf("rank 1's one ack did not commit: open = %v, checkpoints = %d", p.tx != nil, p.st.Checkpoints.Load())
	}
	if got := p.st.CkptAcks.Load(); got != 2 {
		t.Errorf("acks counted = %d, want 2", got)
	}
	onlyActivations(t, drain(t, tasks), 1, 2)
}

// pieceTo returns the number of the one numbered piece addressed to rank.
func pieceTo(t *testing.T, pieces []sent, rank int) int {
	t.Helper()
	n := -1
	for _, f := range pieces {
		if f.to == rank && f.Piece >= 0 {
			if n >= 0 {
				t.Fatalf("two numbered pieces to rank %d", rank)
			}
			n = f.Piece
		}
	}
	if n < 0 {
		t.Fatalf("no numbered piece to rank %d", rank)
	}
	return n
}

// onlyActivations fails unless frames are exactly one activation for each of
// ranks.
func onlyActivations(t *testing.T, frames []sent, ranks ...int) {
	t.Helper()
	if len(frames) != len(ranks) {
		t.Errorf("%d frame(s) after the commit, want %d activation(s)", len(frames), len(ranks))
	}
	for _, r := range ranks {
		if got := kindsTo(frames, r); !slices.Equal(got, []string{"Activate"}) {
			t.Errorf("rank %d got %v after the commit, want one activation", r, got)
		}
	}
}

// TestTxReplacedRecipientGetsEveryPieceAgain: the recipient of three pieces
// dies before acking and is restarted (§4.5). Its replacement is sent all
// three again, in the order that makes the numbered one last, acks once, and
// a late ack from the dead incarnation changes nothing: one commit.
func TestTxReplacedRecipientGetsEveryPieceAgain(t *testing.T) {
	p, tasks, pieces := threeToOne(t)
	want := kindsTo(pieces, 1)

	reborn := respawn(t, p, "t1b")
	tasks[1] = reborn
	p.noteIncarnation(1, reborn.TID(), false)

	var again []sent
	for _, f := range drain(t, tasks) {
		if f.to == 1 && f.Inactive { // among the recovery contribution, which is all active
			again = append(again, f)
		}
	}
	if got := kindsTo(again, 1); !slices.Equal(got, want) {
		t.Fatalf("the replacement was re-sent %v, want every piece in the original order %v", got, want)
	}

	q, qtasks := testProcCfg(t, 5, Config{Rank: 1, Policy: ft.PolicySAM, Degree: 1, Recovering: true})
	acks := receive(t, q, qtasks, again)
	if got := kindsTo(acks, 0); !slices.Equal(got, []string{"CkptAck"}) {
		t.Fatalf("the replacement answered the re-sent pieces with %v, want one CkptAck", got)
	}

	p.dispatch(&wire{Kind: kCkptAck, SrcRank: 2, Seq: p.tx.seq, Target: pieceTo(t, pieces, 2)})
	p.dispatch(acks[0].wire)
	if p.tx != nil || p.st.Checkpoints.Load() != 1 {
		t.Fatalf("the replacement's ack did not commit: open = %v, checkpoints = %d", p.tx != nil, p.st.Checkpoints.Load())
	}
	p.dispatch(acks[0].wire) // the dead incarnation's ack, overtaken
	if p.tx != nil || p.st.Checkpoints.Load() != 1 {
		t.Fatalf("a duplicate ack committed again: checkpoints = %d", p.st.Checkpoints.Load())
	}
}

// TestTxReplacedHolderGetsTheLastCommittedPrivateState: the holder of our
// private state is replaced while a transaction is open. The replacement is
// re-sent our last committed private state as committed, and the open
// transaction's only as its staged piece. (lastPriv was set when a
// transaction started, so the uncommitted state arrived as committed.)
func TestTxReplacedHolderGetsTheLastCommittedPrivateState(t *testing.T) {
	const privHolder = 1
	p, tasks := txProc(t)
	p.addTrigger(trigger{})
	open(p)
	first := p.tx.seq
	ackAll(p, drain(t, tasks))
	p.addTrigger(trigger{})
	if p.tx == nil || p.tx.seq == first {
		t.Fatal("setup: no second transaction open")
	}
	second := p.tx.seq
	drain(t, tasks)

	reborn := respawn(t, p, "t1b")
	tasks[privHolder] = reborn
	p.noteIncarnation(privHolder, reborn.TID(), false)
	var committed, staged []int64
	for _, f := range drain(t, tasks) {
		if f.to != privHolder || f.Kind != kCkptPriv {
			continue
		}
		if f.Inactive {
			staged = append(staged, f.Seq)
		} else {
			committed = append(committed, f.Seq)
		}
	}
	if !slices.Equal(committed, []int64{first}) || !slices.Equal(staged, []int64{second}) {
		t.Fatalf("the replacement got private states %v as committed and %v staged, want [%d] and [%d]",
			committed, staged, first, second)
	}
}

// migrate creates an accumulator at rank 0 whose home is rank 3 and whose
// checkpoint copy, placed for new owner 2, goes to holder, and has the home
// order it to rank 2. The transaction that moves it opens at once.
func migrate(t *testing.T, p *Proc, tasks []*pvm.Task, holder int, contents interface{}) (Name, []sent) {
	t.Helper()
	const home, target = 3, 2
	acc := nameFor(t, p, home, target, holder)
	if r, _ := done(appCmd(p, &cmd{op: opCreateAccum, name: acc, obj: contents})); r.err != nil {
		t.Fatal(r.err)
	}
	if got := kindsTo(drain(t, tasks), home); !slices.Equal(got, []string{"Reg"}) {
		t.Fatalf("setup: creation sent %v to the home", got)
	}
	p.appFinished = true
	p.dispatch(&wire{Kind: kAccGrant, SrcRank: home, Name: uint64(acc), Target: target})
	if p.tx == nil {
		t.Fatal("setup: the grant opened no transaction")
	}
	return acc, drain(t, tasks)
}

// TestTxCommitTellsTheHomeBeforeItWakesTheTarget pins the one order a commit
// must keep: the kAccOwner leaves before the new owner's activation. A home
// that still names the old owner when it dies re-drives its grant at the
// replacement, which then sends the accumulator to an owner that already has
// it (with the activation first, TestCounterSurvivesWorkerKill and
// ...SequentialKills hung or lost an update under -race).
func TestTxCommitTellsTheHomeBeforeItWakesTheTarget(t *testing.T) {
	const privHolder, target, home = 1, 2, 3
	p, tasks := txProc(t)
	_, pieces := migrate(t, p, tasks, privHolder, &recoveryPayload{X: 7})
	if got := kindsTo(pieces, target); !slices.Equal(got, []string{"AccData"}) {
		t.Fatalf("setup: target got %v", got)
	}
	ackAll(p, pieces)
	after := drain(t, tasks)
	if p.tx != nil || len(after) != 3 {
		t.Fatalf("setup: open = %v, %d frames after the acks, want the AccOwner and two activations", p.tx != nil, len(after))
	}
	if first := after[0]; first.Kind != kAccOwner || first.to != home || first.Target != target {
		t.Errorf("first frame after the commit is %s to rank %d, want the home's AccOwner", kindName(first.Kind), first.to)
	}
	onlyActivations(t, after[1:], privHolder, target)
}

// TestTxLoopbackAckCannotCommitEarly: a migrating accumulator's copy, placed
// for the new owner, can land back on us, and a piece to our own rank is
// acked inside send. With bulk first that piece is the first one out; the
// number of acks is fixed before it leaves, so its ack commits nothing.
func TestTxLoopbackAckCannotCommitEarly(t *testing.T) {
	const self, privHolder, target = 0, 1, 2
	p, tasks := txProc(t)
	acc, pieces := migrate(t, p, tasks, self, &txBlob{Fill: make([]byte, 4096)})
	if len(pieces) != 2 || pieces[0].Kind != kAccData || pieces[1].Kind != kCkptPriv {
		t.Fatalf("setup: network pieces %v / %v, want the accumulator then the private state", kindsTo(pieces, target), kindsTo(pieces, privHolder))
	}
	if o := p.objs[acc]; o.pending == nil || o.pending.owner != target {
		t.Fatalf("the copy did not land back on us as a pending image: %+v", o.pending)
	}
	if p.tx == nil || p.tx.acksNeeded != 2 || p.st.Checkpoints.Load() != 0 {
		t.Fatalf("after the send pass: open = %v, checkpoints = %d, want an open transaction short of two acks",
			p.tx != nil, p.st.Checkpoints.Load())
	}
	if first := p.tx.pieces[0]; first.rank != self || !first.acked {
		t.Fatalf("setup: first piece goes to rank %d (acked=%v), want our own acked copy", first.rank, first.acked)
	}
	ackAll(p, pieces)
	if p.tx != nil || p.st.Checkpoints.Load() != 1 {
		t.Fatalf("open = %v, checkpoints = %d after every ack, want one commit", p.tx != nil, p.st.Checkpoints.Load())
	}
	if o := p.objs[acc]; o.isMain || o.copy == nil || o.copy.owner != target {
		t.Fatalf("after the commit: isMain=%v copy=%+v, want the new owner's copy held here", o.isMain, o.copy)
	}
}

// TestTxNewOwnerLedgersTheCopiesPlacedForIt: a migrating accumulator's
// checkpoint copies are placed for the new owner, and nothing but the
// placement rule says where they went. The new owner, given the contents,
// ledgers exactly the ranks the old owner's transaction sent copies to.
func TestTxNewOwnerLedgersTheCopiesPlacedForIt(t *testing.T) {
	const target, holder = 2, 4
	p, tasks := txProc(t)
	acc, pieces := migrate(t, p, tasks, holder, &recoveryPayload{X: 7})
	var copies []int
	var data *wire
	for _, f := range pieces {
		switch {
		case f.Kind == kCkptCopy && Name(f.Name) == acc:
			copies = append(copies, f.to)
		case f.Kind == kAccData && f.to == target:
			data = f.wire
		}
	}
	if data == nil || !slices.Equal(copies, []int{holder}) {
		t.Fatalf("setup: contents sent = %v, copies sent to %v, want the contents and one copy at %d", data != nil, copies, holder)
	}
	q, _ := testProcCfg(t, 5, Config{Rank: target, Policy: ft.PolicySAM, Degree: 1})
	q.dispatch(data)
	if e, ok := q.store.Lookup(uint64(acc)); !ok || e.Seq != data.Seq || !slices.Equal(e.Holders, copies) {
		t.Fatalf("the new owner ledgered %+v (found %v), want seq %d held at %v", e, ok, data.Seq, copies)
	}
}

// snapApp is an application whose boundary snapshot holds x.
type snapApp struct{ x int64 }

func (*snapApp) Init(*Proc)                { panic("not run") }
func (*snapApp) Step(*Proc, int64) bool    { panic("not run") }
func (a *snapApp) Snapshot() interface{}   { return &recoveryPayload{X: a.x} }
func (*snapApp) Restore(state interface{}) { panic("not run") }

// TestTxPrivateStateOwnsItsSnapshot: the boundary snapshot is the runtime's
// buffer, repacked in place at every gate, and the private state only aliases
// it until startTx packs the record. So a later gate leaves the packed private
// state, at the checkpointer and at its holder, byte for byte as it was.
func TestTxPrivateStateOwnsItsSnapshot(t *testing.T) {
	p, tasks := txProc(t)
	app := &snapApp{x: 1}
	p.app = app
	gate := appCmd(p, &cmd{op: opGate, initial: true}) // the initial checkpoint
	frames := drain(t, tasks)
	ackAll(p, frames)
	if _, ok := done(gate); !ok || p.tx != nil || len(p.lastPriv.body) == 0 {
		t.Fatalf("setup: the initial checkpoint did not commit (frames %v)", kindsTo(frames, 1))
	}
	holder, _ := testProcCfg(t, 5, Config{Rank: 1, Policy: ft.PolicySAM, Degree: 1})
	for _, f := range frames {
		if f.Kind == kCkptPriv {
			holder.dispatch(f.wire)
		}
	}
	held := holder.privStaging[0].body
	if len(held) == 0 {
		t.Fatal("setup: the holder keeps no private state")
	}
	own, kept := slices.Clone(p.lastPriv.body), slices.Clone(held)

	app.x = 2
	buf := &p.boundarySnap[0]
	mustDo(t, p, &cmd{op: opGate, step: 1})
	if &p.boundarySnap[0] != buf {
		t.Fatal("the gate did not repack the boundary snapshot in place")
	}
	if !slices.Equal(p.lastPriv.body, own) || !slices.Equal(held, kept) {
		t.Fatal("repacking the boundary snapshot changed a packed private state")
	}
	v, err := codec.Unpack(held)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := codec.Unpack(v.(*ft.PrivateState).AppState)
	if err != nil || snap.(*recoveryPayload).X != 1 {
		t.Fatalf("the held private state restores %v (%v), want the first boundary's X=1", snap, err)
	}
}
