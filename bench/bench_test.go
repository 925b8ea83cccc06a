package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"samft/internal/experiments"
	"samft/internal/ft"
	"samft/internal/trace"
)

// The benchmark runs from the repository root (its workload files are
// named relative to it); so do its tests.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func TestSummarizeMedianAndPHi(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // descending: summarize must sort
		}
		return s
	}
	for _, tc := range []struct {
		n              int
		median, pHiPct float64
		pHi            float64
	}{
		{n: 25, median: 13, pHiPct: 60, pHi: 15}, // 10 samples (16..25) beyond the 15th
		{n: 150, median: 75.5, pHiPct: 100 * 140.0 / 150, pHi: 140},
		{n: 20, median: 10.5}, // p_hi would sit below the median: none
		{n: 1, median: 1},
	} {
		st := summarize(seq(tc.n))
		if st.N != tc.n || st.Median != tc.median || st.PHi != tc.pHi || math.Abs(st.PHiPct-tc.pHiPct) > 1e-9 {
			t.Errorf("n=%d: got median %v p%v=%v, want median %v p%v=%v",
				tc.n, st.Median, st.PHiPct, st.PHi, tc.median, tc.pHiPct, tc.pHi)
		}
	}
	if st := summarize([]float64{1, 2, 3, 4, 5}); st.Q1 != 2 || st.Q3 != 4 {
		t.Errorf("quartiles of 1..5: got %v, %v, want 2, 4", st.Q1, st.Q3)
	}
}

func track(key int64, evs ...trace.Event) trace.TrackEvents {
	return trace.TrackEvents{Key: key, Events: evs}
}

func TestCkptTxPairing(t *testing.T) {
	tracks := []trace.TrackEvents{
		track(1,
			trace.Event{Kind: trace.SamCkptBegin, Aux: 1, VirtUS: 100},
			trace.Event{Kind: trace.NetSend, VirtUS: 150},
			trace.Event{Kind: trace.SamCkptCommit, Aux: 1, VirtUS: 500},
			trace.Event{Kind: trace.SamCkptBegin, Aux: 2, VirtUS: 900}, // died mid-transaction
		),
		track(2,
			trace.Event{Kind: trace.SamCkptCommit, Aux: 7, VirtUS: 50},  // commit without a begin
			trace.Event{Kind: trace.SamCkptBegin, Aux: 1, VirtUS: 1000}, // same seq, other process
			trace.Event{Kind: trace.SamCkptCommit, Aux: 1, VirtUS: 1700},
		),
	}
	got := ckptTxDurationsUS(tracks)
	if len(got) != 2 || got[0] != 400 || got[1] != 700 {
		t.Errorf("transaction durations = %v, want [400 700]", got)
	}
}

func TestFetchLatencyPairing(t *testing.T) {
	tracks := []trace.TrackEvents{track(1,
		trace.Event{Kind: trace.SamFetch, Name: 9, VirtUS: 10},
		trace.Event{Kind: trace.SamFetch, Name: 9, VirtUS: 20}, // re-issued: still the first ask
		trace.Event{Kind: trace.SamFetch, Name: 4, VirtUS: 30},
		trace.Event{Kind: trace.SamFetchData, Name: 9, VirtUS: 110},
		trace.Event{Kind: trace.SamFetchData, Name: 5, VirtUS: 120}, // pushed, never asked for
	)}
	got := fetchLatenciesUS(tracks)
	if len(got) != 1 || got[0] != 100 {
		t.Errorf("fetch latencies = %v, want [100]", got)
	}
	if n, b := kindTotals(tracks, trace.SamFetch); n != 3 || b != 0 {
		t.Errorf("kindTotals = %d, %d", n, b)
	}
}

func TestRecoveryAggregation(t *testing.T) {
	tr := trace.New(0)
	// Two complete replacements (windows 100 ms and 300 ms) and one that
	// was re-killed before sam.rec-done.
	emit := func(key int64, evs ...trace.Event) {
		for _, e := range evs {
			tr.Track(key).Emit(e)
		}
	}
	emit(10,
		trace.Event{Kind: trace.SamRecSolicit, VirtUS: 0},
		trace.Event{Kind: trace.SamRecContrib, VirtUS: 60_000},
		trace.Event{Kind: trace.NetRecv, VirtUS: 70_000, Bytes: 1000},
		trace.Event{Kind: trace.SamRecRestore, VirtUS: 80_000},
		trace.Event{Kind: trace.SamRecDone, VirtUS: 100_000},
	)
	emit(11,
		trace.Event{Kind: trace.SamRecSolicit, VirtUS: 1_000_000},
		trace.Event{Kind: trace.SamRecContrib, VirtUS: 1_020_000},
		trace.Event{Kind: trace.SamRecDone, VirtUS: 1_300_000},
	)
	emit(12,
		trace.Event{Kind: trace.SamRecSolicit, VirtUS: 500_000},
		trace.Event{Kind: trace.SamRecContrib, VirtUS: 510_000},
	)
	emit(13, trace.Event{Kind: trace.NetSend, VirtUS: 5}) // an original process: no recovery
	s := summarizeRecovery(trace.AnalyzeRecovery(tr))
	if s.Complete != 2 || s.Incomplete != 1 || !s.Attributed {
		t.Fatalf("complete %d incomplete %d attributed %v, want 2 1 true", s.Complete, s.Incomplete, s.Attributed)
	}
	if s.WindowMS != 200 {
		t.Errorf("mean window = %v ms, want 200", s.WindowMS)
	}
	if s.PhaseMS[0] != 40 { // solicit: (60 + 20) / 2
		t.Errorf("mean solicit phase = %v ms, want 40", s.PhaseMS[0])
	}
	if s.Msgs != 0.5 || s.Bytes != 500 {
		t.Errorf("mean recovery traffic = %v msgs %v bytes, want 0.5, 500", s.Msgs, s.Bytes)
	}
	var sum float64
	for _, p := range s.PhaseMS {
		sum += p
	}
	if math.Abs(sum-s.WindowMS) > 1e-9 {
		t.Errorf("phases add up to %v ms, window is %v ms", sum, s.WindowMS)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Parent: 0, Name: "workload", StartNS: 0, EndNS: 10e6},
		{ID: 2, Parent: 1, Name: "run", StartNS: 1e6, EndNS: 4e6},
		{ID: 3, Parent: 1, Name: "run", StartNS: 5e6, EndNS: 9e6},
		{ID: 4, Parent: 3, Name: "analyze", StartNS: 8e6, EndNS: 9e6},
	}
	got := map[string]SpanTotal{}
	for _, s := range selfTimes(spans) {
		got[s.Name] = s
	}
	if w := got["workload"]; w.TotalMS != 10 || w.SelfMS != 3 {
		t.Errorf("workload total %v self %v, want 10, 3", w.TotalMS, w.SelfMS)
	}
	if r := got["run"]; r.Count != 2 || r.TotalMS != 7 || r.SelfMS != 6 {
		t.Errorf("run count %d total %v self %v, want 2, 7, 6", r.Count, r.TotalMS, r.SelfMS)
	}
}

// TestWorkloadFiles checks that every app workload's file loads through
// the strict scenario loader and lowers to the three variants the
// benchmark claims to run.
func TestWorkloadFiles(t *testing.T) {
	kills := map[string]int{"barnes8": 1, "water8": 3, "gps8": 1}
	for _, w := range workloads {
		if w.Name == fabricName {
			continue
		}
		c, err := loadWorkload(w.Name)
		if err != nil {
			t.Fatal(err)
		}
		if c.Scenario.Name != w.Name {
			t.Errorf("%s: scenario is named %q", w.Name, c.Scenario.Name)
		}
		v := deriveVariants(c, 7, 9)

		wantFT := c.Baseline
		wantFT.Seed = 7
		if !reflect.DeepEqual(v.FT, wantFT) {
			t.Errorf("%s: ft variant is not Baseline:\n got %+v\nwant %+v", w.Name, v.FT, wantFT)
		}
		wantOff := wantFT
		wantOff.Policy = ft.PolicyOff
		if !reflect.DeepEqual(v.Off, wantOff) {
			t.Errorf("%s: off variant is not Baseline with policy off:\n got %+v\nwant %+v", w.Name, v.Off, wantOff)
		}
		wantKill := c.Spec
		wantKill.Seed, wantKill.ChaosSeed = 7, 9
		if !reflect.DeepEqual(v.Kill, wantKill) {
			t.Errorf("%s: kill variant is not Spec:\n got %+v\nwant %+v", w.Name, v.Kill, wantKill)
		}
		if len(v.Kill.Kills) != kills[w.Name] || c.MinKills != kills[w.Name] {
			t.Errorf("%s: %d kills scheduled, %d required, want %d", w.Name, len(v.Kill.Kills), c.MinKills, kills[w.Name])
		}
		if len(v.FT.Kills) != 0 || len(v.Off.Kills) != 0 || !v.Kill.CheckInvariants {
			t.Errorf("%s: fault-free variants carry kills, or the kill run skips invariants", w.Name)
		}
		if v.FT.Scale != experiments.Paper || v.FT.N != 8 {
			t.Errorf("%s: scale %v procs %d, want paper scale on 8", w.Name, v.FT.Scale, v.FT.N)
		}
		if seed := appSeed(w, 5, 0); (seed == 0) != w.PinSeed {
			t.Errorf("%s: appSeed = %d with PinSeed %v", w.Name, seed, w.PinSeed)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metric and
// workload tables.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bm); err != nil {
		t.Fatal(err)
	}
	for i, w := range bm.Workloads {
		// fabric64 is a workload of the program only: it cannot report
		// the paper's metrics, and BENCHMARK.json's workloads must report
		// every end-to-end metric.
		if got, ok := findWorkload(w.Name); !ok || got.Why != w.Why || got.Name == fabricName || workloads[i].Name != w.Name {
			t.Errorf("BENCHMARK.json workload %d %q does not match the workload table", i, w.Name)
		}
	}
	if len(bm.Workloads) != len(workloads)-1 {
		t.Errorf("BENCHMARK.json lists %d workloads, the table has %d app workloads", len(bm.Workloads), len(workloads)-1)
	}
	if len(bm.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the table %d", len(bm.EndToEnd), len(endToEnd))
	}
	for i, m := range bm.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the table %+v", i, m, d)
		}
		if d.Bound > endToEnd[0].Bound {
			t.Errorf("%s has a wider bound than setup_s", d.Name)
		}
	}
	if len(bm.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the table %d", len(bm.PerLayer), len(perLayer))
	}
	for i, m := range bm.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the table %+v", i, m, d)
		}
	}
}

// TestWrongAnswerFails makes a correctness check fail on purpose: a kill
// run whose answer differs in the last bit from its fault-free twin must
// fail the row and turn the exit status non-zero.
func TestWrongAnswerFails(t *testing.T) {
	good := &runOut{res: experiments.Result{Answer: 1.5}}
	wrong := &runOut{res: experiments.Result{Answer: math.Nextafter(1.5, 2)}}

	r := &runner{workload: "test", attempted: 3}
	if !r.sameAnswer(0, good, nil, good) || r.failed != 0 {
		t.Fatalf("equal answers (one run missing) rejected: failed = %d", r.failed)
	}
	if r.sameAnswer(1, good, good, wrong) || r.failed != 3 {
		t.Fatalf("wrong answer accepted, or not all three runs failed: failed = %d", r.failed)
	}
	row := Row{Workload: "test", Pass: "timed", Attempted: r.attempted, Failed: r.failed}
	if exitCode([]Row{row}) == 0 {
		t.Error("exit status 0 with failed runs")
	}
	if line := contractLine(row); line["correct"] != false || line["failed"] != 3 {
		t.Errorf("result line = %v", line)
	}
	if exitCode([]Row{{Attempted: 10}}) != 0 {
		t.Error("exit status non-zero with no failed runs")
	}
}

func TestVerdict(t *testing.T) {
	lower := MetricDef{Name: "t", Better: "lower", Bound: 0.06}
	higher := MetricDef{Name: "r", Better: "higher", Bound: 0.10}
	tight := func(m float64) Stat { return Stat{Median: m, N: 25, Q1: m * 0.99, Q3: m * 1.01} }
	loose := func(m float64) Stat { return Stat{Median: m, N: 5, Q1: m * 0.8, Q3: m * 1.2} }
	for _, tc := range []struct {
		def       MetricDef
		ref, cand Stat
		want      string
	}{
		{lower, tight(1), tight(1.05), "ok"},
		{lower, tight(1), tight(1.07), "worse"},
		{lower, tight(1), tight(0.5), "ok"},
		{lower, tight(1), loose(1.01), "unresolved"},
		{lower, loose(1), loose(1.2), "worse"},
		{higher, tight(100), tight(95), "ok"},
		{higher, tight(100), tight(85), "worse"},
		{higher, tight(100), tight(130), "ok"},
	} {
		if got, _ := verdict(tc.def, tc.ref, tc.cand); got != tc.want {
			t.Errorf("%s %v -> %v: verdict %q, want %q", tc.def.Better, tc.ref.Median, tc.cand.Median, got, tc.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, ftModeled float64, failed int) string {
		res := Result{Rows: []Row{{
			Workload: "barnes8", Pass: "timed", Attempted: 75, Failed: failed,
			Metrics: map[string]Metric{"ft_modeled_s": {Unit: "s", Stat: Stat{Median: ftModeled, N: 25, Q1: ftModeled, Q3: ftModeled}}},
		}}}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, res); err != nil {
			t.Fatal(err)
		}
		return path
	}
	ref := write("ref.json", 0.55, 0)
	var out, errOut bytes.Buffer
	if code := compareFiles(ref, write("same.json", 0.56, 0), &out, &errOut); code != 0 {
		t.Errorf("+1.8%% on a 6%% bound: exit %d\n%s%s", code, out.String(), errOut.String())
	}
	if code := compareFiles(ref, write("slow.json", 0.60, 0), &out, &errOut); code != 1 {
		t.Errorf("+9%% on a 6%% bound: exit %d", code)
	}
	if code := compareFiles(ref, write("broken.json", 0.55, 2), &out, &errOut); code != 1 {
		t.Errorf("new failed runs: exit %d", code)
	}
	if code := compareFiles(ref, filepath.Join(dir, "missing.json"), &out, &errOut); code != 2 {
		t.Errorf("missing file: exit %d", code)
	}
}

// TestSmoke runs one repetition of the cheapest app workload through
// both passes (the timed pass includes fabric64 samples) and
// checks that every metric of both tables is reported.
func TestSmoke(t *testing.T) {
	tiny := sizes{setupRounds: 1, tracedReps: 1, driverSamples: 1, canaryRuns: 1, sliceSamples: 1}
	w, _ := findWorkload("gps8")

	row := timedApp(w, 1996, 1, 0, tiny)
	if row.Failed != 0 || row.Attempted == 0 {
		t.Fatalf("timed pass: attempted %d, failed %d: %v", row.Attempted, row.Failed, row.Problems)
	}
	for _, d := range endToEnd {
		if row.Skipped[pushCrash] > 0 && (d.Name == "base_modeled_s" || d.Name == "ft_slowdown_x") {
			continue // the one off run hit the known no-FT crash (about 1 in 200)
		}
		if m, ok := row.Metrics[d.Name]; !ok || !(m.Median > 0) || m.Unit != d.Unit {
			t.Errorf("timed pass: %s = %+v", d.Name, m)
		}
	}

	log := newSpanLog()
	row = tracedApp(w, 1996, log, tiny)
	if row.Failed != 0 || row.Attempted == 0 {
		t.Fatalf("traced pass: attempted %d, failed %d: %v", row.Attempted, row.Failed, row.Problems)
	}
	for _, d := range perLayer {
		if m, ok := row.Metrics[d.Name]; !ok || math.IsNaN(m.Median) || m.Unit != d.Unit {
			t.Errorf("traced pass: %s = %+v (reported %v)", d.Name, m, ok)
		}
	}
	if row.Metrics["trace.dropped_events"].Median != 0 {
		t.Errorf("tracer dropped %v events", row.Metrics["trace.dropped_events"].Median)
	}
	names := map[string]bool{}
	for _, s := range log.spans {
		names[s.Name] = true
		if s.EndNS < s.StartNS || s.Workload != "gps8" {
			t.Errorf("span %+v", s)
		}
	}
	for _, want := range []string{"scenario.LoadFile", "scenario.Compile", "experiments.Run:ft+trace", "trace.AnalyzeRecovery", "driver:codec", "canary:noft-push"} {
		if !names[want] {
			t.Errorf("no %q span recorded", want)
		}
	}
	if _, err := json.Marshal(contractLine(row)); err != nil {
		t.Errorf("result line does not encode: %v", err)
	}
}

func TestUnknownWorkloadAndFlags(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := realMain([]string{"-workload", "nope"}, &out, &errOut); code != 2 {
		t.Errorf("unknown workload: exit %d", code)
	}
	if code := realMain([]string{"-trace", "2"}, &out, &errOut); code != 2 {
		t.Errorf("bad -trace: exit %d", code)
	}
}
