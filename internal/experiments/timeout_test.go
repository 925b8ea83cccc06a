package experiments_test

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"samft/internal/experiments"
	"samft/internal/scenario"
)

// TestHungRunIsARedRunWithItsTrace: a run that is still going at the run
// timeout is halted and reported like any other red run — a generated
// chaos schedule and a scenario file alike — with the kill schedule and
// chaos seed that reproduce it and the directory it was dumped to: its
// timeline and the scenario.json that replays it, instead of taking the
// test binary down with a goroutine dump.
func TestHungRunIsARedRunWithItsTrace(t *testing.T) {
	defer experiments.ExpireRunTimeout()()
	root := t.TempDir()
	t.Setenv("SAMFT_TRACE_DIR", root)
	before := runtime.NumGoroutine()

	check := func(t *testing.T, err error, index int, dir string, wants ...string) {
		t.Helper()
		var re *experiments.RunError
		if !errors.As(err, &re) || re.Index != index {
			t.Fatalf("error %v carries run %+v, want a RunError for spec %d", err, re, index)
		}
		for _, want := range append(wants, "timeout", filepath.Join(root, dir)) {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not mention %q", err, want)
			}
		}
		if fi, err := os.Stat(filepath.Join(root, dir, "trace.json")); err != nil || fi.Size() == 0 {
			t.Errorf("no trace dumped for the hung run: %v", err)
		}
		replay, err := scenario.LoadFile(filepath.Join(root, dir, "scenario.json"))
		if err != nil {
			t.Fatalf("the hung run's dump does not replay: %v", err)
		}
		if got := "kills=[" + experiments.FormatKills(scenario.Compile(replay, "").Spec.Kills) + "]"; got != wants[0] {
			t.Errorf("dumped scenario.json schedules %s, the hung run had %s", got, wants[0])
		}
	}

	t.Run("chaos", func(t *testing.T) {
		// Every run hangs; the first schedule is the one reported.
		cs, err := scenario.Build(scenario.ChaosSpec{Fleet: scenario.Fleet{App: "gps"}, Seed: 7, Schedules: 2}.Scenarios()...)
		if err != nil {
			t.Fatal(err)
		}
		_, err = scenario.RunSet(cs, "")
		check(t, err, 0, "scenario-GPS-seed7-schedule00", "kills=[kill 0 at step 2, kill 1 at step 2]", "chaos-seed=7")
	})
	t.Run("scenario.RunSet", func(t *testing.T) {
		s, err := scenario.Load([]byte(`{
			"name": "hangs",
			"fleet": { "procs": 4, "app": "gps" },
			"events": [ { "kill": { "rank": 1, "at_step": 2 } } ],
			"assert": { "answer_matches_baseline": false }
		}`), "hangs.json")
		if err != nil {
			t.Fatal(err)
		}
		_, err = scenario.RunSet([]scenario.Compiled{scenario.Compile(s, "hangs.json")}, "")
		check(t, err, 0, "scenario-hangs", "kills=[kill 1 at step 2]")
	})

	// Every cluster was halted before its run returned: nothing is left
	// running (goroutines wind down asynchronously after the halt).
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running after the hung runs returned, %d before them",
				runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
