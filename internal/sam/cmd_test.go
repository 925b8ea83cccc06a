package sam

// White-box tests for the command path (DESIGN §7 "One command in flight"):
// every command is answered exactly once and nothing of the runtime's
// points at it afterwards, contents that arrive but do not decode fail the
// reader instead of parking it for good, and the per-operation paths — a
// command, a frame, a checkpoint transaction — allocate only what they keep.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"samft/internal/codec"
	"samft/internal/ft"
	"samft/internal/netsim"
	"samft/internal/pvm"
)

// refsTo lists the runtime's references to command c: where a parked or
// held command is kept until its answer.
func refsTo(p *Proc, c *cmd) []string {
	var out []string
	if p.appParked == c {
		out = append(out, "appParked")
	}
	if p.heldCmd == c {
		out = append(out, "heldCmd")
	}
	for _, name := range sortedKeys(p.objs) {
		o := p.objs[name]
		if slices.Contains(o.waiters, c) {
			out = append(out, fmt.Sprintf("waiters of %v", name))
		}
		if o.renameWaiter == c {
			out = append(out, fmt.Sprintf("renameWaiter of %v", name))
		}
	}
	return out
}

// slotCall is a command submitted the way the application's slot is used:
// the answer is taken over an unbuffered channel by a goroutine that
// refills the command at once, as the application's next call refills its
// slot. Under the race detector a handler that reads the command after
// answering it is a reported race.
type slotCall struct {
	c   *cmd
	got chan cmdResult
}

func slotCmd(p *Proc, c *cmd) *slotCall {
	res := make(chan cmdResult)
	s := &slotCall{c: c, got: make(chan cmdResult, 1)}
	c.res = res
	go func() {
		r := <-res
		*c = cmd{op: opDoneValue, name: c.name + 1} // the next call
		s.got <- r
	}()
	p.handleCmd(c)
	return s
}

// answered waits for the call's answer.
func (s *slotCall) answered(t *testing.T) cmdResult {
	t.Helper()
	select {
	case r := <-s.got:
		return r
	case <-time.After(5 * time.Second):
		t.Fatal("the command was never answered")
		return cmdResult{}
	}
}

// TestCommandAnsweredOnce pins the two rules that let the application reuse
// one command slot. Each way a parked or held command is answered — the
// contents it waits for arrive, the migrated main copy arrives, the last use
// of a value being renamed is reported, the transaction a gate waits for
// commits — leaves no reference to the command behind, and no handler
// touches it once answered (the answer goes to a goroutine that refills it
// at once; run with -race). A second answer is a runtime bug, and panics
// naming the rank, the op and the object.
func TestCommandAnsweredOnce(t *testing.T) {
	const owner, home = 3, 4
	for _, tc := range []struct {
		what   string
		park   func(t *testing.T, p *Proc, n Name) *cmd
		answer func(t *testing.T, p *Proc, tasks []*pvm.Task, n Name)
	}{
		{
			"a read answered by the contents",
			func(t *testing.T, p *Proc, n Name) *cmd { return &cmd{op: opUseValue, name: n} },
			func(t *testing.T, p *Proc, _ []*pvm.Task, n Name) {
				p.dispatch(&wire{
					Kind: kObjData, SrcRank: owner, Name: uint64(n), Target: 0, Body: packPayload(t, 1),
					Meta: ft.ObjectMeta{Name: uint64(n), Kind: uint8(ft.KindValue)}, HasMeta: true,
				})
			},
		},
		{
			"an update answered by the migrated main copy",
			func(t *testing.T, p *Proc, n Name) *cmd { return &cmd{op: opUpdateAccum, name: n} },
			func(t *testing.T, p *Proc, _ []*pvm.Task, n Name) { arrive(t, p, n, owner, 7) },
		},
		{
			"a rename answered by the last use",
			func(t *testing.T, p *Proc, n Name) *cmd {
				mustDo(t, p, &cmd{op: opCreateValue, name: n, obj: &recoveryPayload{X: 5}, accesses: 1})
				return &cmd{op: opRenameValue, name: n}
			},
			func(t *testing.T, p *Proc, _ []*pvm.Task, n Name) {
				p.dispatch(&wire{Kind: kValUsed, SrcRank: owner, Names: []uint64{uint64(n)}, Counts: []int64{1}})
			},
		},
		{
			"a gate answered by its transaction's commit",
			func(t *testing.T, p *Proc, n Name) *cmd {
				p.app = gateApp{}
				return &cmd{op: opGate, step: 0, initial: true}
			},
			func(t *testing.T, p *Proc, tasks []*pvm.Task, _ Name) {
				if p.tx == nil {
					t.Fatal("setup: the initial gate opened no transaction")
				}
				ackAll(p, drain(t, tasks))
			},
		},
	} {
		t.Run(tc.what, func(t *testing.T) {
			p, tasks := stepProc(t)
			n := homedAt(t, 9, home)
			c := tc.park(t, p, n)
			s := slotCmd(p, c)
			if len(refsTo(p, c)) == 0 {
				t.Fatal("setup: nothing holds the command: it did not park")
			}
			tc.answer(t, p, tasks, n)
			if r := s.answered(t); r.err != nil {
				t.Fatalf("answered with %v", r.err)
			}
			if refs := refsTo(p, c); len(refs) != 0 {
				t.Errorf("the answered command is still referenced from %v", refs)
			}
		})
	}

	t.Run("a second answer", func(t *testing.T) {
		p, _ := stepProc(t)
		n := homedAt(t, 9, home)
		c := appCmd(p, &cmd{op: opCreateValue, name: n, obj: &recoveryPayload{X: 1}, accesses: Unlimited})
		if r, ok := done(c); !ok || r.err != nil {
			t.Fatalf("setup: create answered %v, %v", ok, r.err)
		}
		defer func() {
			msg := fmt.Sprint(recover())
			for _, want := range []string{"rank 0", fmt.Sprintf("op %d", opCreateValue), n.String(), "twice"} {
				if !strings.Contains(msg, want) {
					t.Errorf("second answer: panic %q does not name %q", msg, want)
				}
			}
		}()
		p.reply(c, nil, nil)
	})
}

// unregisteredFrame is a codec frame that passes its checksum but names a
// type nobody registered: the test payload's frame with its type name's last
// letter changed and the checksum recomputed.
func unregisteredFrame(t *testing.T) []byte {
	t.Helper()
	good := packPayload(t, 1)
	bad := bytes.Replace(good, []byte("sam.recoveryTestPayload"), []byte("sam.recoveryTestPayloaX"), 1)
	if bytes.Equal(bad, good) {
		t.Fatal("setup: the payload's type name is not in its frame")
	}
	binary.BigEndian.PutUint32(bad[len(bad)-4:], crc32.ChecksumIEEE(bad[:len(bad)-4]))
	if err := codec.Verify(bad); err != nil {
		t.Fatalf("setup: the rewritten frame fails its checksum: %v", err)
	}
	return bad
}

// TestUndecodableContentsFailTheReader: contents that pass the frame's
// checksum but do not decode answer the read or update parked on them with
// the codec's error. (They used to be dropped, with nothing to re-issue the
// fetch: the reader waited until the run timed out.) The frame goes through
// the whole receive path, decodeFrame's Verify included.
func TestUndecodableContentsFailTheReader(t *testing.T) {
	for _, tc := range []struct {
		op   cmdOp
		kind int
		meta ft.ObjKind
	}{
		{opUseValue, kObjData, ft.KindValue},
		{opUpdateAccum, kAccData, ft.KindAccum},
	} {
		t.Run(kindName(tc.kind), func(t *testing.T) {
			p, tasks := testProc(t, 0, 2, false)
			peer := NewProc(tasks[1], Config{Rank: 1, Ranks: p.cfg.Ranks, Policy: ft.PolicySAM, Degree: 1})
			n := MkName(9, 1, 1)
			c := appCmd(p, &cmd{op: tc.op, name: n})
			if _, ok := done(c); ok {
				t.Fatal("setup: the access did not park")
			}
			peer.send(0, &wire{
				Kind: tc.kind, Name: uint64(n), Target: 0, Body: unregisteredFrame(t),
				Meta: ft.ObjectMeta{Name: uint64(n), Kind: uint8(tc.meta)}, HasMeta: true,
			})
			m, err := tasks[0].Take(pvm.AnySrc, TagSAM)
			if err != nil {
				t.Fatal(err)
			}
			p.handleMessage(m)
			r, ok := done(c)
			if !ok {
				t.Fatal("the access is still parked on contents that cannot decode")
			}
			if !errors.Is(r.err, codec.ErrNotRegistered) {
				t.Fatalf("answered with %v, want an error wrapping codec.ErrNotRegistered", r.err)
			}
			if refs := refsTo(p, c); len(refs) != 0 {
				t.Errorf("the answered access is still referenced from %v", refs)
			}
			if p.objs[n].fetchOutstanding {
				t.Error("the fetch is still marked outstanding: a later access would not ask again")
			}
		})
	}
}

// livePair starts two processes' runtime loops with no application: the
// test goroutine calls the API as each application would.
func livePair(t *testing.T, policy ft.Policy) [2]*Proc {
	t.Helper()
	m := pvm.NewMachine(netsim.Config{})
	block := make(chan struct{})
	var tasks [2]*pvm.Task
	tids := make([]pvm.TID, 2)
	for i := range tasks {
		tasks[i] = m.Spawn(fmt.Sprintf("t%d", i), func(*pvm.Task) { <-block })
		tids[i] = tasks[i].TID()
	}
	var procs [2]*Proc
	for r := range procs {
		procs[r] = NewProc(tasks[r], Config{Rank: r, Ranks: tids, Policy: policy, Degree: 1})
		go procs[r].receiver()
		go procs[r].runtime()
	}
	t.Cleanup(func() {
		close(block)
		m.Halt()
		for _, p := range procs {
			<-p.deadc
		}
	})
	return procs
}

// TestCommandsAllocNothing pins the command path's allocation contract: an
// application call travels in the process's one slot and is answered on its
// one channel, so once warm these make no allocation, between two real
// processes with their runtime loops running: UseValue plus DoneValue of a
// cached value, Push of a covered value (each process pushes to the other
// and the round waits until both frames are handled, so header buffers
// circulate), and UpdateAccum plus ReleaseAccum of a local main accumulator.
// The accumulator runs with fault tolerance off: with it on, UpdateAccum logs
// the packed contents it hands out (the step log keeps them).
func TestCommandsAllocNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops the codec's pooled encoders at random under the race detector")
	}
	procs := livePair(t, ft.PolicySAM)
	vals := [2]Name{MkName(9, 1, 1), MkName(9, 2, 2)}
	for r, p := range procs {
		p.CreateValue(vals[r], &recoveryPayload{X: int64(r)}, Unlimited)
	}
	var handled [2]int64
	for r := range handled {
		handled[r] = procs[r].ProcessedCount()
	}
	push := func() {
		for r, p := range procs {
			p.Push(vals[r], 1-r)
			handled[1-r]++
		}
		for r, p := range procs {
			for p.ProcessedCount() < handled[r] {
				runtime.Gosched()
			}
		}
	}
	use := func() {
		procs[1].UseValue(vals[0])
		procs[1].DoneValue(vals[0])
	}
	off := livePair(t, ft.PolicyOff)
	acc := MkName(9, 3, 3)
	off[0].CreateAccum(acc, &recoveryPayload{})
	update := func() {
		off[0].UpdateAccum(acc).(*recoveryPayload).X++
		off[0].ReleaseAccum(acc)
	}
	for _, c := range []struct {
		what string
		f    func()
	}{
		{"Push of a covered value", push},
		{"UseValue and DoneValue of a cached value", use},
		{"UpdateAccum and ReleaseAccum of a local main accumulator", update},
	} {
		for range 10 {
			c.f() // warm-up: cache the value, pool the codec's scratch, fill the header free lists
		}
		if n := testing.AllocsPerRun(100, c.f); n != 0 {
			t.Errorf("%s: %.1f allocs per call, want 0", c.what, n)
		}
	}
}

// TestCheckpointPiecesAllocNothing pins the checkpoint transaction's
// allocation contract: in steady state a transaction allocates only its
// private-state frame. Its pieces are held by value in the array the last
// commit left, the private-state record and the lists it is built from are
// reused, and the holder's staging, acknowledgement and activation allocate
// nothing. Each round is a bare transaction of each process in turn, each
// driven to its commit and activation by handing every frame to its
// receiver, so header buffers circulate; so the round's budget is two
// frames. Each process owns one clean value and holds the other's
// checkpoint copy, so the private state lists an owned object and the
// activation walks the object table.
func TestCheckpointPiecesAllocNothing(t *testing.T) {
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
		procs[r].boundarySnap = packPayload(t, int64(r))
		procs[r].appFinished = true // at a consistent point for good
	}
	pump := func() {
		for moved := true; moved; {
			moved = false
			for r, task := range tasks {
				for task.Probe(pvm.AnySrc, pvm.AnyTag) {
					msg, err := task.Take(pvm.AnySrc, pvm.AnyTag)
					if err != nil {
						t.Fatal(err)
					}
					procs[r].handleMessage(msg)
					moved = true
				}
			}
		}
	}
	for r, p := range procs {
		if res, _ := done(appCmd(p, &cmd{op: opCreateValue, name: MkName(9, r, r), obj: &recoveryPayload{X: 1}, accesses: Unlimited})); res.err != nil {
			t.Fatal(res.err)
		}
	}
	pump()
	round := func() {
		for _, p := range procs {
			p.addTrigger(trigger{kind: 0})
			pump()
		}
	}
	for range 10 {
		round() // warm-up: replicate the values, grow the reused lists
	}
	before := procs[0].st.Checkpoints.Load()
	if n := testing.AllocsPerRun(100, round); n != 2 {
		t.Errorf("a round of two transactions made %.1f allocs, want 2 (their private-state frames)", n)
	}
	if got := procs[0].st.Checkpoints.Load() - before; got != 101 {
		t.Fatalf("rank 0 committed %d transactions in 101 rounds", got)
	}
	for r, p := range procs {
		if p.tx != nil || len(p.privStore) != 1 || len(p.privStaging) != 0 {
			t.Fatalf("rank %d: open = %v, %d private states held, %d staged", r, p.tx != nil, len(p.privStore), len(p.privStaging))
		}
		if o := p.objs[MkName(9, 1-r, 1-r)]; o == nil || o.copy == nil {
			t.Fatalf("rank %d holds no checkpoint copy of its peer's value", r)
		}
	}
}
