package scenario

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"samft/internal/experiments"
	"samft/internal/trace"
)

// TestRunOnePasses executes a small real scenario end-to-end: kills
// applied, answer bit-identical to the baseline, no problems.
func TestRunOnePasses(t *testing.T) {
	s := mustLoad(t, `{
		"name": "smoke",
		"fleet": { "procs": 4, "app": "gps" },
		"events": [ { "kill": { "rank": 1, "at_step": 2 } } ],
		"assert": { "max_recovery_modeled_sec": 5 }
	}`)
	outs, err := RunSet([]Compiled{Compile(s, "")}, "")
	if err != nil {
		t.Fatalf("RunSet: %v", err)
	}
	out := outs[0]
	if out.Failed() {
		t.Fatalf("scenario failed: %v", out.Problems)
	}
	if out.Result.KillsApplied != 1 {
		t.Errorf("KillsApplied = %d, want 1", out.Result.KillsApplied)
	}
	if out.TraceDir != "" {
		t.Errorf("passing run dumped a trace to %s without an explicit trace dir", out.TraceDir)
	}
}

// TestRunFailingScenarioDumpsTrace pins the failure path: a scenario with
// a deliberately impossible assertion (recovery in a nanosecond) must
// fail, and its trace must land under SAMFT_TRACE_DIR.
func TestRunFailingScenarioDumpsTrace(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("SAMFT_TRACE_DIR", dir)
	s := mustLoad(t, `{
		"name": "impossible-recovery",
		"fleet": { "procs": 4, "app": "gps" },
		"events": [ { "kill": { "rank": 1, "at_step": 2 } } ],
		"assert": { "max_recovery_modeled_sec": 1e-9 }
	}`)
	outs, err := RunSet([]Compiled{Compile(s, "impossible.json")}, "")
	if err != nil {
		t.Fatalf("RunSet: %v", err)
	}
	out := outs[0]
	if !out.Failed() {
		t.Fatal("impossible recovery bound did not fail the scenario")
	}
	found := false
	for _, p := range out.Problems {
		if strings.Contains(p, "recovery took") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no recovery-bound problem in %v", out.Problems)
	}
	wantDir := filepath.Join(dir, "scenario-impossible-recovery")
	if out.TraceDir != wantDir {
		t.Fatalf("TraceDir = %q, want %q", out.TraceDir, wantDir)
	}
	if _, err := os.Stat(filepath.Join(wantDir, "trace.json")); err != nil {
		t.Fatalf("failing scenario's trace.json missing: %v", err)
	}
}

// TestRunSetBatch checks the batch path used by `samrun campaign`: one
// passing and one failing scenario in a single RunAll batch keep their
// identities and verdicts.
func TestRunSetBatch(t *testing.T) {
	t.Setenv("SAMFT_TRACE_DIR", t.TempDir())
	pass := mustLoad(t, `{
		"name": "pass",
		"fleet": { "procs": 4, "app": "gps" },
		"events": [ { "kill": { "rank": 2, "at_step": 2 } } ]
	}`)
	fail := mustLoad(t, `{
		"name": "fail",
		"fleet": { "procs": 4, "app": "gps" },
		"events": [ { "kill": { "rank": 2, "at_step": 2 } } ],
		"assert": { "max_recovery_modeled_sec": 1e-9 }
	}`)
	outs, err := RunSet([]Compiled{Compile(pass, "pass.json"), Compile(fail, "fail.json")}, "")
	if err != nil {
		t.Fatalf("RunSet: %v", err)
	}
	if len(outs) != 2 {
		t.Fatalf("got %d outcomes", len(outs))
	}
	if outs[0].Failed() {
		t.Errorf("pass scenario failed: %v", outs[0].Problems)
	}
	if !outs[1].Failed() {
		t.Error("fail scenario passed")
	}
	if outs[0].Name != "pass" || outs[1].Name != "fail" {
		t.Errorf("outcome order scrambled: %q, %q", outs[0].Name, outs[1].Name)
	}
}

// TestRunDumpFailureIsWarning pins the dump-error path shared with the
// chaos runner: an explicit trace dir that is a regular file cannot
// receive the dump, and a passing scenario reports that as a warning.
func TestRunDumpFailureIsWarning(t *testing.T) {
	blocked := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(blocked, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustLoad(t, `{
		"name": "dump-blocked",
		"fleet": { "procs": 4, "app": "gps" },
		"events": [ { "kill": { "rank": 1, "at_step": 2 } } ]
	}`)
	outs, err := RunSet([]Compiled{Compile(s, "")}, blocked)
	if err != nil {
		t.Fatalf("RunSet: %v", err)
	}
	out := outs[0]
	if out.Failed() {
		t.Fatalf("scenario failed: %v", out.Problems)
	}
	if len(out.Warnings) == 0 || !strings.Contains(out.Warnings[0], "trace dump") {
		t.Fatalf("dump failure not warned: %v", out.Warnings)
	}
	if out.TraceDir != "" {
		t.Errorf("TraceDir = %q despite failed dump", out.TraceDir)
	}
}

// TestRecoveryFigureIsTraceWindow pins the one recovery clock: the figure
// a scenario reports is the longest complete window trace.AnalyzeRecovery
// finds in the faulted run's tracer (the benchmark's recovery_modeled_ms),
// the dumped recovery.txt is that same analysis, and
// max_recovery_modeled_sec bounds exactly that figure.
func TestRecoveryFigureIsTraceWindow(t *testing.T) {
	s := mustLoad(t, `{
		"name": "recovery-clock",
		"fleet": { "procs": 4, "app": "water" },
		"events": [
			{ "kill": { "rank": 1, "at_step": 2 } },
			{ "kill": { "rank": 3, "at_step": 3 } }
		],
		"assert": { "answer_matches_baseline": false }
	}`)
	c := Compile(s, "")
	tracer := trace.New(0)
	c.Spec.Tracer = tracer
	res, err := experiments.Run(c.Spec)
	if err != nil {
		t.Fatalf("run: %v", err)
	}

	rep := trace.AnalyzeRecovery(tracer)
	wantUS := 0.0
	for _, inc := range rep.Incarnations {
		if inc.Complete && inc.WindowUS() > wantUS {
			wantUS = inc.WindowUS()
		}
	}
	if wantUS <= 0 {
		t.Fatalf("no complete recovery in the trace:\n%s", rep)
	}

	dir := t.TempDir()
	out := assess(c, res, nil, tracer, dir)
	if out.Failed() {
		t.Fatalf("unbounded scenario failed: %v", out.Problems)
	}
	if out.RecoveryModeledSec != wantUS/1e6 {
		t.Errorf("reported recovery %v s, trace's longest complete window is %v s", out.RecoveryModeledSec, wantUS/1e6)
	}
	dumped, err := os.ReadFile(filepath.Join(out.TraceDir, "recovery.txt"))
	if err != nil {
		t.Fatalf("dumped recovery report: %v", err)
	}
	if string(dumped) != rep.String() {
		t.Errorf("dumped recovery.txt differs from AnalyzeRecovery on the run's tracer:\n%s\nvs\n%s", dumped, rep)
	}

	c.MaxRecoverySec = out.RecoveryModeledSec
	if at := assess(c, res, nil, tracer, dir); at.Failed() {
		t.Errorf("bound equal to the figure failed: %v", at.Problems)
	}
	c.MaxRecoverySec = math.Nextafter(out.RecoveryModeledSec, 0)
	below := assess(c, res, nil, tracer, dir)
	if !below.Failed() || !strings.Contains(below.Problems[0], "recovery took") {
		t.Errorf("bound just below the figure did not fail the scenario: %v", below.Problems)
	}
}

// TestBarnesMidstepKillReplaysALog runs scenarios/barnes-midstep-kill.json:
// the answer must match the fault-free twin's bit for bit, and some
// replacement must have restored a mid-step checkpoint and handed back its
// logged results (stats ReplayedOps). Where the kills land varies with
// goroutine scheduling, so a green run that replayed nothing runs again, up
// to three runs in all; the test cannot pass without a replay.
func TestBarnesMidstepKillReplaysALog(t *testing.T) {
	traceDir := t.TempDir()
	t.Setenv("SAMFT_TRACE_DIR", traceDir)
	s, err := LoadFile(filepath.Join("..", "..", "scenarios", "barnes-midstep-kill.json"))
	if err != nil {
		t.Fatal(err)
	}
	// A red or hung run is dumped under traceDir, which goes with the test:
	// keep its recovery report in the log.
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		if report, err := os.ReadFile(filepath.Join(traceDir, "scenario-"+s.Name, "recovery.txt")); err == nil {
			t.Logf("recovery.txt of the dumped run:\n%s", report)
		}
	})
	for run := 1; run <= 3; run++ {
		outs, err := RunSet([]Compiled{Compile(s, "")}, "")
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if out := outs[0]; out.Failed() {
			t.Fatalf("run %d: %v (trace: %s)", run, out.Problems, out.TraceDir)
		}
		if n := outs[0].Result.Report.Total.ReplayedOps; n > 0 {
			t.Logf("run %d: %d logged results replayed", run, n)
			return
		}
	}
	t.Fatal("no replacement replayed a logged result in three runs: no kill landed mid-step")
}
