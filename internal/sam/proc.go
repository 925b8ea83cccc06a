package sam

import (
	"fmt"
	"reflect"
	"sync/atomic"

	"samft/internal/ckptstore"
	"samft/internal/codec"
	"samft/internal/ft"
	"samft/internal/netsim"
	"samft/internal/pvm"
	"samft/internal/stats"
	"samft/internal/trace"
)

// Proc is one SAM process. The exported methods form the application API
// and may only be called from the application goroutine (the caller of
// Run); everything else runs on the process's runtime goroutine.
type Proc struct {
	cfg  Config
	task *pvm.Task
	st   *stats.Proc
	// rec is this process's trace track (shared with its netsim endpoint);
	// nil when tracing is disabled, making every emit site one branch.
	rec *trace.Recorder

	clocks *ft.Clocks
	taint  *ft.Taint

	cmdq  chan *cmd
	netq  chan netsim.Message
	deadc chan struct{}

	// The application goroutine's one command in flight and the channel
	// it is answered on (call). The application fills the slot, the
	// runtime reads it until reply, and the application reuses it for its
	// next call: DESIGN §7 "One command in flight".
	slot    cmd
	replies chan cmdResult

	// ---- runtime-goroutine state below ----

	ranks []pvm.TID // rank -> current tid

	objs map[Name]*object
	dir  map[Name]*dirEntry
	// lenders queues the consumed cached copies by the registered type of
	// their contents (lend.go).
	lenders map[reflect.Type]*lendQueue

	// Application coordination.
	app          App
	appParked    *cmd   // the command the app is currently blocked on, if any; reply clears it
	heldCmd      *cmd   // held until the open transaction commits: a gate, or a release whose migration rides it; reply clears it
	stepsDone    int64  // completed steps (boundary index)
	boundarySnap []byte // packed app snapshot at the last boundary
	appFinished  bool
	// stepLog is the in-progress step's non-reexecutable results (accum.go):
	// entries before replayAt have happened in this incarnation, the rest
	// were restored from a mid-step checkpoint and are still to be handed
	// back by the replay. locksHeld counts the update locks the application
	// holds, real or replayed; replayHeld names the replayed ones. logCovered
	// is how many entries a committed mid-step checkpoint of this step
	// carried (0: none).
	stepLog    []ft.LogEntry
	replayAt   int
	locksHeld  int
	replayHeld map[Name]bool
	logCovered int

	// Fault tolerance.
	// store is the replicated checkpoint store: placement policy plus the
	// coverage ledger for this process's owned objects.
	store *ckptstore.Store
	// repairPending names owned objects whose ledgered coverage dropped
	// (a holder's incarnation was replaced) or was freshly rebuilt after
	// our own recovery; repairCoverage drains it.
	repairPending map[Name]bool
	// repairViolations records objects left under-replicated after repair
	// quiesced with no unreplaced dead ranks — an invariant breach the
	// chaos harness turns into a failure.
	repairViolations []string
	tx               *ckptTx
	pendingTriggers  []trigger
	pendingForced    bool
	deferredActs     []activation      // other processes' commits held back while tx is open
	privStore        map[int]privImage // rank -> newest committed private state held here
	privStaging      map[int]privImage // provisional private states awaiting activation
	lastPriv         privImage         // our own last committed private state
	useNotices       []map[Name]int64  // owner rank -> name -> unreported uses, cleared at each flush
	useEpochs        []useEpoch        // consumer rank -> its use reports since its clock last moved (resend.go)
	freePending      map[Name]bool     // freeable mains awaiting reclamation
	forceReplies     []int             // ranks owed a kForceAck at our next commit
	hasCheckpointed  bool

	// inc is what only a replacement process has: the state it is being
	// rebuilt from and the bookkeeping of its own recovery. nil in a process
	// that started with the computation (cfg.Recovering false), and dispatch
	// drops the message kinds that are only ever addressed to a restarted
	// rank's new tid when it is.
	inc *incarnation

	// Multi-failure bookkeeping: deadRanks tracks incarnations known dead
	// but not yet replaced (drives coordinator takeover when the recovery
	// coordinator itself dies); relayedFail dedupes kFailed relays;
	// contributedTo records the incarnation each recovery contribution was
	// sent to.
	deadRanks     map[int]netsim.TID
	relayedFail   map[failKey]bool
	contributedTo map[int]netsim.TID

	// The frame path's scratch (msg.go): the wire a header is packed from,
	// the wire every received header is decoded into — so no handler may
	// retain the wire it is given, nor its slices — and the free list of
	// header buffers, with the size of the largest header packed so far,
	// which a new buffer is made to hold.
	headWire wire
	recvWire wire
	headFree [][]byte
	headMax  int

	// What the per-operation paths reuse instead of allocating afresh:
	// the transaction the last commit finished with (newTx), the trigger
	// list startTx is not planning from, the private-state record, the
	// ranks that hold our private state (fixed for the process's life), the
	// sortedNames buffer, and the name and count lists of a use report.
	txFree      *ckptTx
	trigSpare   []trigger
	privRec     ft.PrivateState
	privHolders []int
	nameScratch []Name
	useNames    []uint64
	useCounts   []int64

	// nProcessed counts the network messages whose handler has returned.
	// The harness sets it against the endpoint's enqueue count to decide
	// quiescence before invariant checks (cluster.Quiesce).
	nProcessed atomic.Int64
}

// failKey identifies one relay of a failure report: a (failed incarnation,
// chosen coordinator) pair, so repeated notifications re-relay only when
// the coordinator choice changes (e.g. the previous coordinator also died).
type failKey struct {
	rank  int
	tid   netsim.TID
	coord int
}

// trigger is a send of nonreproducible data that must ride a checkpoint
// transaction (§4.4 step 4).
type trigger struct {
	kind   int // kObjData, kAccData; 0 = bare checkpoint
	name   Name
	target int // destination rank
}

// NewProc creates a SAM process bound to a PVM task. Run must be called
// on the application goroutine to start it.
func NewProc(task *pvm.Task, cfg Config) *Proc {
	cfg.fill()
	p := &Proc{
		cfg:           cfg,
		task:          task,
		st:            cfg.Stats,
		rec:           task.Endpoint().TraceRecorder(),
		clocks:        ft.NewClocks(cfg.Rank, len(cfg.Ranks)),
		taint:         ft.NewTaint(cfg.Policy),
		cmdq:          make(chan *cmd),
		replies:       make(chan cmdResult, 1),
		netq:          make(chan netsim.Message, netqDepth),
		deadc:         make(chan struct{}),
		ranks:         append([]pvm.TID(nil), cfg.Ranks...),
		objs:          make(map[Name]*object),
		dir:           make(map[Name]*dirEntry),
		lenders:       make(map[reflect.Type]*lendQueue),
		privStore:     make(map[int]privImage),
		privStaging:   make(map[int]privImage),
		useNotices:    make([]map[Name]int64, len(cfg.Ranks)),
		useEpochs:     make([]useEpoch, len(cfg.Ranks)),
		freePending:   make(map[Name]bool),
		deadRanks:     make(map[int]netsim.TID),
		relayedFail:   make(map[failKey]bool),
		contributedTo: make(map[int]netsim.TID),
		repairPending: make(map[Name]bool),
	}
	p.store = ckptstore.NewStore(ckptstore.Config{
		Rank:   cfg.Rank,
		N:      len(cfg.Ranks),
		Degree: cfg.Degree,
		Policy: cfg.Placement,
	})
	p.privHolders = ckptstore.PrivateStateRanks(cfg.Rank, len(cfg.Ranks), cfg.Degree)
	if cfg.Recovering {
		p.inc = newIncarnation()
	}
	return p
}

// ftEnabled reports whether fault tolerance is active: a policy is set
// and there is at least one other host to replicate to.
func (p *Proc) ftEnabled() bool {
	return p.cfg.Policy != ft.PolicyOff && len(p.ranks) > 1
}

// procKilled unwinds the application goroutine when the process dies.
type procKilled struct{ rank int }

// Run executes the application under this process until it finishes or
// the process is killed. It returns true if the application ran to
// completion on this incarnation.
func (p *Proc) Run(app App) (finished bool) {
	p.app = app
	go p.receiver()
	go p.runtime()

	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(procKilled); ok {
				finished = false
				return
			}
			panic(r)
		}
	}()

	// A replacement process resumes from its restored state — unless the
	// rank it replaces had never checkpointed, which starts like any other.
	restored := restoreResult{fresh: true}
	if p.inc != nil {
		restored = p.awaitRestore()
	}
	if restored.fresh {
		app.Init(p)
		p.gate(0, true) // initial checkpoint so recovery has a base state
	} else {
		state, err := codec.Unpack(restored.snap)
		if err != nil {
			panic(fmt.Errorf("sam: rank %d cannot unpack recovered state: %w", p.cfg.Rank, err))
		}
		app.Restore(state)
	}

	replaying := p.inc != nil
	for step := restored.steps + 1; ; step++ {
		more := app.Step(p, step)
		if replaying {
			// The step that was in progress at the crash has now been
			// re-executed: recovery proper is over.
			if p.rec != nil {
				p.emit(trace.Event{Kind: trace.SamRecDone, Aux: step})
			}
			replaying = false
		}
		if !more {
			break
		}
		p.st.StepsExecuted.Add(1)
		p.gate(step, false)
	}
	p.finish()
	return true
}

// netqDepth is the runtime queue's buffer. The deepest queue measured
// was 41, 46 and 60 frames over 15 s of the gps8, water8 and barnes8
// benchmark workloads, 68 over the scenario library and 107 over the
// chaos sweeps. A full buffer only parks the receiver, with the frames
// waiting in the endpoint's mailbox instead; the runtime loop, which
// drains the queue, never waits for room in it.
const netqDepth = 256

// receiver moves messages from the PVM mailbox to the runtime queue. It
// only dequeues (Take): the process has one modeled clock, and charging
// the receive here would raise it under a handler that is still sending.
// handleMessage charges it when the runtime loop turns to the message.
func (p *Proc) receiver() {
	for {
		m, err := p.task.Take(pvm.AnySrc, pvm.AnyTag)
		if err != nil {
			close(p.netq)
			return
		}
		p.netq <- m
	}
}

// runtime is the message/command loop owning all shared-object state.
func (p *Proc) runtime() {
	defer close(p.deadc)
	// Watch every peer for failure (pvm_notify), as the paper's recovery
	// procedure requires.
	for r, tid := range p.ranks {
		if r != p.cfg.Rank {
			p.task.Notify(tid)
		}
	}
	// A recovering process announces its own incarnation to every peer and
	// asks for their contributions. The coordinator's broadcast of the same
	// kRecovery usually beats this, but the announcement is what keeps
	// recovery going when the coordinator dies between respawning us and
	// telling the others, or when a survivor's earlier contribution went to
	// a previous (also failed) incarnation.
	if p.inc != nil {
		if p.rec != nil {
			p.emit(trace.Event{Kind: trace.SamRecSolicit, Aux: int64(p.task.TID())})
		}
		for r := range p.ranks {
			if r != p.cfg.Rank {
				p.send(r, &wire{Kind: kRecovery, Target: p.cfg.Rank, NewTID: int(p.task.TID())})
			}
		}
	}
	for {
		select {
		case m, ok := <-p.netq:
			if !ok {
				return
			}
			p.handleMessage(m)
			p.nProcessed.Add(1)
		case c := <-p.cmdq:
			p.handleCmd(c)
		}
	}
}

// ProcessedCount reports how many network messages this process has
// finished handling: every frame its endpoint ever enqueued, once the
// process is idle.
func (p *Proc) ProcessedCount() int64 { return p.nProcessed.Load() }

// reply completes a command, exactly once. The application may refill its
// slot as soon as the answer is sent, so the runtime's references to the
// command go first, and no handler reads c after calling reply.
func (p *Proc) reply(c *cmd, obj interface{}, err error) {
	if c.answered {
		panic(fmt.Sprintf("sam: rank %d answered op %d on %v twice", p.cfg.Rank, c.op, c.name))
	}
	c.answered = true
	if p.appParked == c {
		p.appParked = nil
	}
	if p.heldCmd == c {
		p.heldCmd = nil
	}
	c.res <- cmdResult{obj: obj, err: err}
}

// park records that the application is blocked on c; the runtime keeps
// serving while it waits. Parking is a checkpoint opportunity (§4.4): the
// state at the last boundary plus a replay of the step that hands back its
// logged non-reexecutable results reproduces the process exactly, so
// pending checkpoint triggers can run now.
func (p *Proc) park(c *cmd) {
	p.appParked = c
	p.maybeStartTx()
}

// handleMessage charges the process for one network message (the receive
// overhead, and the wait for its arrival if the clock is behind it) and
// dispatches it.
func (p *Proc) handleMessage(m netsim.Message) {
	p.task.Accept(&m)
	if m.Tag == pvm.TagTaskExit {
		dead, err := netsim.ParseExitPayload(m.Payload)
		if err == nil {
			p.handleTaskExit(dead)
		}
		return
	}
	if m.Tag != TagSAM {
		// The runtime receives with AnyTag; anything that is neither an
		// exit notification nor a SAM frame is not ours to decode.
		return
	}
	if err := decodeFrame(&m, &p.recvWire); err != nil {
		// A corrupt frame is dropped like a line error; the protocol's
		// re-issue paths cover loss.
		return
	}
	// The header is decoded: its buffer is ours to pack our own into.
	p.recycleHead(m.Payload)
	p.dispatch(&p.recvWire)
}

// emit records one event on this process's trace track, stamping the
// rank and (unless the caller pre-filled it) the modeled clock. Call
// sites guard with p.rec != nil so the disabled path is a single branch
// with no event construction or clock read.
func (p *Proc) emit(e trace.Event) {
	e.Rank = p.cfg.Rank
	if e.VirtUS == 0 {
		e.VirtUS = p.task.ClockUS()
	}
	p.rec.Emit(e)
}

func (p *Proc) dispatch(w *wire) {
	if p.inc == nil {
		switch w.Kind {
		case kRecoverPriv, kRecoverData, kOwnerHint, kRecoverFin, kOwnerDeny:
			// Only ever addressed to a restarted rank's new tid, and this
			// process is not a replacement.
			return
		}
	}
	if p.rec != nil {
		switch w.Kind {
		case kRecoverPriv, kRecoverData, kDirReport, kOwnerReport, kOwnerHint, kRecoverFin:
			p.emit(trace.Event{
				Kind: trace.SamRecContrib, Src: int64(w.SrcRank),
				Note: kindName(w.Kind), Name: w.Name, Bytes: len(w.Body),
			})
		}
	}
	if w.HasStamp {
		p.clocks.AbsorbDelta(ft.DeltaStamp{
			From: w.SrcRank, Full: w.StampT,
			Idx: w.StampIdx, Val: w.StampVal, CForDst: w.StampC,
		})
		if len(p.freePending) > 0 {
			p.retryFrees()
		}
	}

	// While a checkpoint transaction is open, activation of other
	// processes' inactive data is deferred to keep this checkpoint
	// consistent (§4.4).
	if p.tx != nil && w.Kind == kActivate {
		p.deferredActs = append(p.deferredActs, activation{from: w.SrcRank, seq: w.Seq})
		return
	}

	switch w.Kind {
	case kReg, kDirReport:
		p.setOwner(Name(w.Name), w.SrcRank)
	case kReadReq:
		p.onReadReq(Name(w.Name), w.SrcRank)
	case kReadFwd:
		p.serveRead(Name(w.Name), w.Target)
	case kObjData:
		p.onObjData(w)
	case kValUsed:
		p.onValUsed(w)
	case kAccAcq:
		p.onAccAcq(w)
	case kAccGrant:
		p.handleGrant(Name(w.Name), w.Target)
	case kAccData:
		p.onAccData(w)
	case kAccOwner:
		p.onAccOwner(w)
	case kCkptPriv:
		p.onCkptPriv(w)
	case kCkptCopy:
		p.onCkptCopy(w)
	case kCkptAck:
		p.onCkptAck(w)
	case kActivate:
		p.onActivate(activation{from: w.SrcRank, seq: w.Seq})
	case kForceCkpt:
		p.onForceCkpt(w)
	case kForceAck:
		// The stamp absorbed above carried the sender's fresh c value.
		p.retryFrees()
	case kFreeCkpt:
		p.onFreeCkpt(w)
	case kFailed:
		p.onFailed(w)
	case kRecovery:
		p.onRecovery(w)
	case kRecoverPriv:
		p.onRecoverPriv(w)
	case kRecoverData:
		p.onRecoverData(w)
	case kOwnerReport:
		p.onOwnerReport(w)
	case kOwnerHint:
		p.onOwnerHint(w)
	case kRecoverFin:
		p.onRecoverFin(w)
	case kOwnerQuery:
		p.onOwnerQuery(ownerQuery{from: w.SrcRank, name: Name(w.Name)})
	case kOwnerDeny:
		p.onOwnerDeny(w)
	}
}

// send transmits a wire message to a rank's current tid. Messages to dead
// incarnations vanish in the network; the recovery protocol re-issues what
// matters. A message to our own rank (1/N of all names are homed here, and
// placements and ownership reports land here too) is dispatched directly —
// no frame, no stamp, no network — and this is the only place that tells
// the two apart: callers address the home, owner or holder without asking
// whether it is this process. The handler runs on w itself, which is safe
// because no handler retains the wire it is given (image.go).
func (p *Proc) send(rank int, w *wire) {
	w.SrcRank = p.cfg.Rank
	if rank == p.cfg.Rank {
		p.dispatch(w)
		return
	}
	head := p.encodeHead(w, rank)
	// ErrKilled means we are dead and the receiver goroutine is about to shut
	// the runtime down; ErrUnknownDest is a dead incarnation. Either way the
	// message is dropped.
	_ = p.task.SendParts(p.ranks[rank], TagSAM, head, w.Body)
}

// obj returns the local entry for name, creating a placeholder if absent.
func (p *Proc) obj(name Name) *object {
	o, ok := p.objs[name]
	if !ok {
		o = &object{name: name, state: stAbsent, ownerRank: -1, pendingMove: -1}
		p.objs[name] = o
	}
	return o
}

// dirEnt returns the directory entry for a name homed at this process.
func (p *Proc) dirEnt(name Name) *dirEntry {
	d, ok := p.dir[name]
	if !ok {
		d = &dirEntry{name: name, owner: -1, grantTarget: -1}
		p.dir[name] = d
	}
	return d
}

// home returns the rank holding directory information for name.
func (p *Proc) home(name Name) int { return ckptstore.HomeRank(uint64(name), len(p.ranks)) }

// finish marks the application complete; the runtime keeps serving other
// processes until the harness halts the machine.
func (p *Proc) finish() {
	p.slot = cmd{op: opFinish, res: p.replies}
	select {
	case p.cmdq <- &p.slot:
		<-p.replies
	case <-p.deadc:
	}
}
