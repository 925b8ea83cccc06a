package trace

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// scriptedKillRecover builds the canonical two-process scenario by hand:
// rank 1 is killed mid-run and its replacement incarnation walks through
// every recovery phase. Virtual timestamps are explicit, so analysis and
// export are fully deterministic.
func scriptedKillRecover() *Tracer {
	tr := New(0)
	r0 := tr.Track(101)
	r0.Label("rank0", 0)
	r1 := tr.Track(102)
	r1.Label("rank1", 1)
	ctl := tr.Control()
	rr := tr.Track(103)
	rr.Label("rank1-r", 1)

	r0.Emit(Event{Kind: PvmSpawn, VirtUS: 0, Rank: 0, Src: 101, Note: "rank0"})
	r0.Emit(Event{Kind: NetSend, VirtUS: 10, Rank: 0, Src: 101, Dst: 102, Tag: 5, Bytes: 64, MsgID: 1})
	r1.Emit(Event{Kind: NetRecv, VirtUS: 100, Rank: 1, Src: 101, Dst: 102, Tag: 5, Bytes: 64, MsgID: 1})

	ctl.Emit(Event{Kind: ClusterKill, VirtUS: 150, Rank: 1, Aux: 102})
	r1.Emit(Event{Kind: NetKill, VirtUS: 150, Rank: -1, Src: 102})

	rr.Emit(Event{Kind: SamRecSolicit, VirtUS: 200, Rank: 1, Aux: 103})
	r0.Emit(Event{Kind: NetSend, VirtUS: 250, Rank: 0, Src: 101, Dst: 103, Tag: 9, Bytes: 128, MsgID: 2})
	rr.Emit(Event{Kind: NetRecv, VirtUS: 260, Rank: 1, Src: 101, Dst: 103, Tag: 9, Bytes: 128, MsgID: 2})
	rr.Emit(Event{Kind: SamRecContrib, VirtUS: 260, Rank: 1, Src: 0, Bytes: 128, Note: "recover-priv"})
	rr.Emit(Event{Kind: SamRecRestore, VirtUS: 300, Rank: 1, Aux: 2, T: []int64{3, 1}, C: []int64{3, 1}, D: []int64{0, 1}})
	rr.Emit(Event{Kind: SamRecDir, VirtUS: 320, Rank: 1, Aux: 4})
	rr.Emit(Event{Kind: SamOwnerQuery, VirtUS: 330, Rank: 1, Name: 7, Dst: 0})
	rr.Emit(Event{Kind: SamOwnerGrant, VirtUS: 340, Rank: 1, Name: 7, Src: 0})
	rr.Emit(Event{Kind: SamRecDone, VirtUS: 400, Rank: 1, Aux: 2})

	ctl.Emit(Event{Kind: ClusterFinished, VirtUS: 500, Rank: 0, Src: 101})
	return tr
}

func TestAnalyzeRecoveryScripted(t *testing.T) {
	rep := AnalyzeRecovery(scriptedKillRecover())
	if len(rep.Incarnations) != 1 {
		t.Fatalf("incarnations = %d", len(rep.Incarnations))
	}
	inc := rep.Incarnations[0]
	if inc.Track != "rank1-r" || inc.Rank != 1 || !inc.Complete || inc.Fresh {
		t.Fatalf("incarnation %+v", inc)
	}
	if inc.StartUS != 200 || inc.EndUS != 400 {
		t.Fatalf("window [%v, %v]", inc.StartUS, inc.EndUS)
	}

	wantBounds := [][2]float64{
		{200, 260}, // solicit: announce until first contribution
		{260, 300}, // resupply: contributions until restore
		{300, 320}, // rebuild: restore until directory rebuilt
		{320, 340}, // arbitrate: directory until last ownership verdict
		{340, 400}, // restart: arbitration until replay completes
	}
	for i, p := range inc.Phases {
		if p.Name != PhaseNames[i] || p.StartUS != wantBounds[i][0] || p.EndUS != wantBounds[i][1] {
			t.Fatalf("phase %d = %+v, want %s %v", i, p, PhaseNames[i], wantBounds[i])
		}
	}
	// The one contribution message lands on the solicit/resupply boundary
	// and is charged to the earlier phase.
	if inc.Phases[0].Msgs != 1 || inc.Phases[0].Bytes != 128 {
		t.Fatalf("solicit traffic %+v", inc.Phases[0])
	}
	if got := inc.AttributedFraction(); math.Abs(got-1) > 1e-12 {
		t.Fatalf("attributed fraction %v", got)
	}

	// The report renders through the shared table formatter.
	text := rep.String()
	for _, want := range []string{"recovery of rank1-r", "solicit", "restart", "100.0"} {
		if !strings.Contains(text, want) {
			t.Fatalf("report missing %q:\n%s", want, text)
		}
	}
}

func TestAnalyzeRecoveryIncompleteAndNil(t *testing.T) {
	// Re-killed incarnation: solicit but no rec-done. The window must end
	// at the last recorded event and the report must say so.
	tr := New(0)
	r := tr.Track(1)
	r.Label("rank2-r", 2)
	r.Emit(Event{Kind: SamRecSolicit, VirtUS: 100, Rank: 2})
	r.Emit(Event{Kind: NetRecv, VirtUS: 170, Rank: 2, Bytes: 10, MsgID: 3})
	r.Emit(Event{Kind: NetKill, VirtUS: 180, Rank: -1})
	rep := AnalyzeRecovery(tr)
	if len(rep.Incarnations) != 1 {
		t.Fatalf("incarnations = %d", len(rep.Incarnations))
	}
	inc := rep.Incarnations[0]
	if inc.Complete || inc.EndUS != 180 {
		t.Fatalf("incomplete incarnation %+v", inc)
	}
	if got := inc.AttributedFraction(); math.Abs(got-1) > 1e-12 {
		t.Fatalf("attributed fraction %v", got)
	}
	if !strings.Contains(rep.String(), "INCOMPLETE") {
		t.Fatalf("report:\n%s", rep.String())
	}

	// Nil tracer and a tracer with no recovering tracks.
	if got := AnalyzeRecovery(nil); len(got.Incarnations) != 0 {
		t.Fatal("nil tracer produced incarnations")
	}
	empty := New(0)
	empty.Track(5).Emit(Event{Kind: NetSend, VirtUS: 1, MsgID: 9})
	if got := AnalyzeRecovery(empty); len(got.Incarnations) != 0 {
		t.Fatal("non-recovering track reported as incarnation")
	}
	if !strings.Contains(AnalyzeRecovery(empty).String(), "no recovering incarnations") {
		t.Fatal("empty report text")
	}
}

// TestAnalyzeRecoveryVerdictAfterDone: an ownership verdict can reach a
// replacement after its replay is over. The window still ends at
// sam.rec-done, so arbitrate ends there too, restart is empty, and the
// phases still sum to the window.
func TestAnalyzeRecoveryVerdictAfterDone(t *testing.T) {
	tr := New(0)
	r := tr.Track(1)
	r.Label("rank1-r", 1)
	r.Emit(Event{Kind: SamRecSolicit, VirtUS: 100, Rank: 1})
	r.Emit(Event{Kind: SamRecContrib, VirtUS: 120, Rank: 1})
	r.Emit(Event{Kind: SamRecRestore, VirtUS: 150, Rank: 1})
	r.Emit(Event{Kind: SamRecDir, VirtUS: 160, Rank: 1})
	r.Emit(Event{Kind: SamRecDone, VirtUS: 200, Rank: 1})
	r.Emit(Event{Kind: SamOwnerGrant, VirtUS: 500, Rank: 1, Name: 7})
	rep := AnalyzeRecovery(tr)
	if len(rep.Incarnations) != 1 {
		t.Fatalf("incarnations = %d", len(rep.Incarnations))
	}
	inc := rep.Incarnations[0]
	if inc.StartUS != 100 || inc.EndUS != 200 {
		t.Fatalf("window [%v, %v], want [100, 200]", inc.StartUS, inc.EndUS)
	}
	arb, restart := inc.Phases[3], inc.Phases[4]
	if arb.StartUS != 160 || arb.EndUS != 200 {
		t.Errorf("arbitrate = [%v, %v], want [160, 200]: it ends with the window", arb.StartUS, arb.EndUS)
	}
	if restart.DurUS() < 0 {
		t.Errorf("restart lasts %v us", restart.DurUS())
	}
	if got := inc.AttributedFraction(); math.Abs(got-1) > 1e-12 {
		t.Errorf("the phases cover %v of the window, want all of it", got)
	}
}

func TestChromeGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(scriptedKillRecover(), &buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "two_proc_kill.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("chrome output drifted from golden (run with -update to regenerate)\ngot:\n%s", buf.String())
	}

	// Structural checks on top of the byte comparison, so the golden file
	// itself is known-good: valid JSON, one named process per track, flow
	// ends matching flow starts, recovery phase slices present.
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string                 `json:"name"`
			Ph   string                 `json:"ph"`
			TS   float64                `json:"ts"`
			PID  int64                  `json:"pid"`
			ID   int64                  `json:"id"`
			Args map[string]interface{} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit %q", doc.DisplayTimeUnit)
	}
	names := map[string]bool{}
	starts := map[int64]bool{}
	var ends []int64
	phases := 0
	for _, e := range doc.TraceEvents {
		switch {
		case e.Ph == "M" && e.Name == "process_name":
			names[e.Args["name"].(string)] = true
		case e.Ph == "s":
			starts[e.ID] = true
		case e.Ph == "f":
			ends = append(ends, e.ID)
		case e.Ph == "X" && strings.HasPrefix(e.Name, "recovery:"):
			phases++
		}
	}
	for _, want := range []string{"rank0", "rank1", "rank1-r", "cluster"} {
		if !names[want] {
			t.Fatalf("missing process track %q (have %v)", want, names)
		}
	}
	if len(starts) != 2 || len(ends) != 2 {
		t.Fatalf("flow events: %d starts, %d ends", len(starts), len(ends))
	}
	for _, id := range ends {
		if !starts[id] {
			t.Fatalf("flow end %d has no start", id)
		}
	}
	if phases != 5 {
		t.Fatalf("recovery phase slices = %d, want 5", phases)
	}
}

func TestDumpWritesFiles(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "out")
	paths, err := Dump(scriptedKillRecover(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("paths = %v", paths)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil || len(b) == 0 {
			t.Fatalf("dump file %s: err=%v len=%d", p, err, len(b))
		}
	}
	// Nil tracer: nothing written, no error, and no directory created.
	none := filepath.Join(t.TempDir(), "none")
	if paths, err := Dump(nil, none); err != nil || paths != nil {
		t.Fatalf("nil dump: %v %v", paths, err)
	}
	if _, err := os.Stat(none); !os.IsNotExist(err) {
		t.Fatal("nil dump created the directory")
	}
}
