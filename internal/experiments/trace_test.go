package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"samft/internal/cluster"
	"samft/internal/ft"
	"samft/internal/netsim"
	"samft/internal/trace"
)

// TestTracedKilledRun drives a real cluster run with a mid-run kill and
// checks the acceptance criteria for the tracing subsystem end to end:
// the recovery window decomposes into named phases covering (well over)
// 95% of it, and the Chrome export is valid JSON with per-process tracks
// and matched flow events.
func TestTracedKilledRun(t *testing.T) {
	tr := trace.New(0)
	res, err := Run(Spec{App: GPS, Scale: Small, Config: cluster.Config{
		N: 4, Policy: ft.PolicySAM,
		Kills:  []cluster.KillEvent{{Rank: 2, Step: 2}},
		Tracer: tr,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.KillsApplied != 1 {
		t.Fatalf("kills applied = %d", res.KillsApplied)
	}

	rep := trace.AnalyzeRecovery(tr)
	if len(rep.Incarnations) != 1 {
		t.Fatalf("incarnations = %d", len(rep.Incarnations))
	}
	inc := rep.Incarnations[0]
	if !inc.Complete {
		t.Fatalf("recovery incomplete: %+v", inc)
	}
	if inc.Rank != 2 {
		t.Fatalf("recovered rank = %d", inc.Rank)
	}
	if inc.WindowUS() <= 0 {
		t.Fatalf("empty recovery window: %+v", inc)
	}
	if frac := inc.AttributedFraction(); frac < 0.95 {
		t.Fatalf("attributed fraction %.3f < 0.95", frac)
	}
	var msgs int
	for _, p := range inc.Phases {
		msgs += p.Msgs
	}
	if msgs == 0 {
		t.Fatal("no received messages attributed to any recovery phase")
	}

	var buf bytes.Buffer
	if err := trace.WriteChrome(tr, &buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string                 `json:"name"`
			Ph   string                 `json:"ph"`
			ID   int64                  `json:"id"`
			Args map[string]interface{} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	tracks := map[string]bool{}
	starts := map[int64]bool{}
	matched, flowEnds, phases := 0, 0, 0
	for _, e := range doc.TraceEvents {
		switch {
		case e.Ph == "M" && e.Name == "process_name":
			tracks[e.Args["name"].(string)] = true
		case e.Ph == "s":
			starts[e.ID] = true
		case e.Ph == "f":
			flowEnds++
			if starts[e.ID] {
				matched++
			}
		case e.Ph == "X" && strings.HasPrefix(e.Name, "recovery:"):
			phases++
		}
	}
	for _, want := range []string{"rank0", "rank1", "rank2", "rank3", "rank2-r"} {
		if !tracks[want] {
			t.Fatalf("missing process track %q (have %v)", want, tracks)
		}
	}
	if flowEnds == 0 || matched != flowEnds {
		t.Fatalf("flow events: %d ends, %d matched to a start", flowEnds, matched)
	}
	if phases == 0 {
		t.Fatal("no recovery phase slices in chrome export")
	}
}

// TestRunAppliesTheFaultPlan checks that a Spec's fault plan reaches the
// simulated network: jitter shows as extra delay on the traced sends,
// notification chaos as drop/duplicate events on the control track, and
// the zero plan perturbs nothing.
func TestRunAppliesTheFaultPlan(t *testing.T) {
	perturbed := func(plan netsim.FaultPlan) (jittered, notifyChaos int) {
		t.Helper()
		tr := trace.New(0)
		res, err := Run(Spec{App: GPS, Scale: Small, Config: cluster.Config{
			N: 4, Policy: ft.PolicySAM, Kills: []cluster.KillEvent{{Rank: 2, Step: 2}},
			FaultPlan: plan, Tracer: tr,
		}})
		if err != nil {
			t.Fatal(err)
		}
		if res.KillsApplied != 1 {
			t.Fatalf("plan %+v: %d kills applied, want 1", plan, res.KillsApplied)
		}
		for _, track := range tr.Snapshot() {
			for _, e := range track.Events {
				switch {
				case e.Kind == trace.NetSend && e.ExtraUS > 0:
					jittered++
				case e.Kind == trace.NetNotifyDrop || e.Kind == trace.NetNotifyDup:
					notifyChaos++
				}
			}
		}
		return jittered, notifyChaos
	}
	if j, n := perturbed(netsim.FaultPlan{}); j != 0 || n != 0 {
		t.Errorf("zero plan: %d jittered sends, %d notification drops/duplicates, want none", j, n)
	}
	if j, _ := perturbed(netsim.FaultPlan{ChaosSeed: 1, JitterUS: 40}); j == 0 {
		t.Error("JitterUS 40: no send carries extra delay")
	}
	// Without jitter only the kill's fan-out draws from the plan's seed;
	// seed 3 drops the first two notifications of any fan-out.
	if _, n := perturbed(netsim.FaultPlan{ChaosSeed: 3, NotifyDrop: true, NotifyDup: true}); n == 0 {
		t.Error("NotifyDrop+NotifyDup: the kill's exit notifications were neither dropped nor duplicated")
	}
}

// TestUntracedRunHasNoTracer makes sure a Spec without a Tracer runs with
// tracing fully disabled (the nil fast path) and still completes.
func TestUntracedRunHasNoTracer(t *testing.T) {
	res, err := Run(Spec{App: GPS, Scale: Small, Config: cluster.Config{N: 2, Policy: ft.PolicySAM}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Answer == 0 {
		t.Fatal("no answer")
	}
}

// TestBarnesTransactionsSendNothingTwice guards the three rules of a
// checkpoint transaction (DESIGN §7) on a whole fault-free Barnes run, with
// exact counts: no rank is handed one partition twice, every recipient of a
// transaction acknowledges it once, and contents ride a transaction only
// together with the checkpoint copy that covers them. Barnes reads its shared
// data through UseValue alone, so every sam.fetch-data is a value arriving.
func TestBarnesTransactionsSendNothingTwice(t *testing.T) {
	tr := trace.New(0)
	// CheckInvariants quiesces the cluster before it is halted, so the last
	// transactions have collected their acks by the time they are counted.
	res, err := Run(Spec{App: Barnes, Scale: Small, CheckInvariants: true, Config: cluster.Config{N: 4, Policy: ft.PolicySAM, Tracer: tr}})
	if err != nil || len(res.InvariantViolations) > 0 {
		t.Fatal(err, res.InvariantViolations)
	}

	type tx struct {
		rank int
		seq  int64
	}
	type piece struct {
		name uint64
		note string
		dst  int64
	}
	arrivals := map[[2]uint64]int{} // (rank, value) -> sam.fetch-data events
	pieces := map[tx][]piece{}
	for _, track := range tr.Snapshot() {
		if track.Dropped > 0 {
			t.Fatalf("track %s dropped %d events: the counts below would not be exact", track.Label, track.Dropped)
		}
		for _, e := range track.Events {
			switch e.Kind {
			case trace.SamFetchData:
				arrivals[[2]uint64{uint64(e.Rank), e.Name}]++
			case trace.SamCkptPiece:
				k := tx{e.Rank, e.Aux}
				pieces[k] = append(pieces[k], piece{name: e.Name, note: e.Note, dst: e.Dst})
			}
		}
	}
	if len(pieces) == 0 || len(arrivals) == 0 {
		t.Fatalf("trace holds %d transactions and %d value arrivals: nothing to check", len(pieces), len(arrivals))
	}

	for k, n := range arrivals {
		if n > 1 {
			t.Errorf("rank %d was handed value %#x %d times", k[0], k[1], n)
		}
	}

	var acksDue int64
	for k, ps := range pieces {
		inactiveTo, ackedTo := map[int64]bool{}, map[int64]int{}
		copied := map[uint64]bool{}
		for _, p := range ps {
			if strings.Contains(p.note, "inactive") {
				inactiveTo[p.dst] = true
			}
			if strings.HasSuffix(p.note, "+ack") {
				ackedTo[p.dst]++
			}
			if strings.HasPrefix(p.note, "CkptCopy") {
				copied[p.name] = true
			}
		}
		if len(ackedTo) != len(inactiveTo) {
			t.Errorf("rank %d seq %d: acks asked of %d destinations, inactive pieces went to %d", k.rank, k.seq, len(ackedTo), len(inactiveTo))
		}
		for dst, n := range ackedTo {
			if n != 1 {
				t.Errorf("rank %d seq %d asks rank %d for %d acks", k.rank, k.seq, dst, n)
			}
		}
		acksDue += int64(len(inactiveTo))
		for _, p := range ps {
			if strings.HasPrefix(p.note, "ObjData") && !copied[p.name] {
				t.Errorf("rank %d seq %d carries %#x to rank %d without checkpointing it: the contents were already covered",
					k.rank, k.seq, p.name, p.dst)
			}
		}
	}
	if got := res.Report.Total.CkptAcks; got != acksDue {
		t.Errorf("%d CkptAck frames were handled, want %d: one per transaction and destination", got, acksDue)
	}
}
