package scenario

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestChaosScenariosLoadStrict: generator and validator share one
// envelope. Every generated scenario — across fleet sizes and the small
// clusters the schedule-property tests sweep, where the clamp does the
// most rewriting — survives json.Marshal and the strict Load
// unchanged, so whatever a sweep runs can be dumped and replayed as a file.
func TestChaosScenariosLoadStrict(t *testing.T) {
	var specs []ChaosSpec
	for _, n := range []int{3, 4, 5} {
		specs = append(specs, ChaosSpec{
			Fleet:    Fleet{Procs: n, App: "gps"},
			MaxKills: 4, Schedules: 40, Jitter: true, NotifyChaos: true,
		})
	}
	for _, n := range []int{2, 3} {
		specs = append(specs, ChaosSpec{
			Fleet:    Fleet{Procs: n, App: "water", Scale: "paper", FT: FT{Policy: "naive", Degree: 2, Placement: "spread"}},
			MaxKills: 3,
		})
	}
	for _, spec := range specs {
		for _, seed := range []uint64{1, 20260806} {
			spec.Seed = seed
			for _, want := range spec.Scenarios() {
				data, err := json.Marshal(want)
				if err != nil {
					t.Fatal(err)
				}
				got, err := Load(data, want.Name)
				if err != nil {
					t.Fatalf("generated scenario rejected:\n%s\n%v", data, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("round trip diverged:\n%s\ngot:  %+v\nwant: %+v", data, got, want)
				}
			}
		}
	}
}

// TestChaosGoldenOpenSchedules pins the generator — what (seed, app, index)
// means — on the schedules ROADMAP's ownership-race item starts from:
// scenarios/open/ holds, as files `samrun run` replays, exactly what the
// Water sweep generates at each (seed, index) below (LoadDir does not
// recurse, so the campaign skips them; scenarios/README.md gives how often
// each goes red).
func TestChaosGoldenOpenSchedules(t *testing.T) {
	for _, tc := range []struct {
		seed     uint64
		i        int
		schedule string
	}{
		{1, 11, "kill 2 at step 2, kill 3 during recovery of 2"},
		{1, 13, "kill 2 at step 1, kill 2 during recovery of 2"},
		{46, 19, "kill 1 at step 1, kill 2 during recovery of 1"},
	} {
		set := ChaosSpec{
			Fleet: Fleet{Procs: 4, App: "water", FT: FT{Policy: "sam", Degree: 2, Placement: "ring"}},
			Seed:  tc.seed, Jitter: true, NotifyChaos: true,
		}.Scenarios()
		if set[tc.i].Description != tc.schedule {
			t.Errorf("schedule %d is %q, want %q", tc.i, set[tc.i].Description, tc.schedule)
		}
		path := filepath.Join("..", "..", "scenarios", "open", strings.ToLower(set[tc.i].Name)+".json")
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := encode(set[tc.i])
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s is not what the generator emits for seed %d schedule %d:\n%s", path, tc.seed, tc.i, got)
		}
		if _, err := Load(want, path); err != nil {
			t.Errorf("golden file does not load: %v", err)
		}
	}
}

// TestLibrarySharesBaselineTwins: scenarios that differ only in their
// faults are compared against one fault-free run, not one each — RunSet
// runs one twin per distinct twinKey, and the library's 12 files have 8.
func TestLibrarySharesBaselineTwins(t *testing.T) {
	lib, paths, errs := LoadDir(filepath.Join("..", "..", "scenarios"))
	if len(errs) > 0 {
		t.Fatal(errs)
	}
	twins := make(map[string]bool)
	for i, s := range lib {
		twins[twinKey(Compile(s, paths[i]))] = true
	}
	if len(lib) != 12 || len(twins) != 8 {
		t.Errorf("%d scenarios share %d distinct fault-free twins, want 12 sharing 8", len(lib), len(twins))
	}
}
