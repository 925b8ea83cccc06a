package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"samft/internal/xrand"
)

// TestGoldenErrors pins the positioned-diagnostic contract: each malformed
// fixture must be rejected with an error pointing at the exact line and
// column of the offending token. Expected positions are computed from a
// marker substring in the fixture itself, so the fixtures can be reflowed
// without rewriting the table.
func TestGoldenErrors(t *testing.T) {
	cases := []struct {
		file    string
		marker  string // first occurrence = expected error position ("" = only require some position)
		wantPos bool
		path    string
		msg     string
	}{
		{"bad-syntax.json", "", true, "", "unexpected end of file"},
		{"bad-unknown-field.json", `"frobnicate"`, true, "frobnicate", `unknown field "frobnicate"`},
		{"bad-type.json", `"four"`, true, "fleet.procs", "cannot unmarshal string"},
		{"bad-enum.json", `"fortran"`, true, "fleet.app", `unknown app "fortran"`},
		// Affinity placement is gone: only ring and spread place copies.
		{"bad-placement.json", `"affinity"`, true, "fleet.ft.placement", `unknown placement "affinity" (want "ring" or "spread")`},
		{"bad-rank.json", `9`, true, "events[0].kill.rank", "rank 9 out of range [0,4)"},
		// Erasure-coded copies are gone from the schema: a leftover ec
		// block is an unknown field, not a silently ignored setting.
		{"bad-ec-budget.json", `"ec"`, true, "fleet.ft.ec", `unknown field "ec"`},
		{"bad-recovery-ref.json", `3`, true, "events[1].kill.on_recovery_of", "rank 3 is not killed by an earlier event"},
		{"bad-recovery-chain.json", `{ "rank": 3`, true, "events[2].kill", "on_recovery_of chain has 3 distinct ranks down at once, exceeding the survivable budget of 2"},
		{"bad-assert.json", `3`, true, "assert.min_kills_applied", "requires 3 applied kills but the schedule has only 1"},
		// An absent path is reported at its nearest ancestor in the file:
		// the enclosing object, or the document's opening brace.
		{"bad-missing-procs.json", `{ "app"`, true, "fleet.procs", "procs must be >= 1 (got 0)"},
		{"bad-missing-name.json", `{`, true, "name", "scenario name is required"},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			path := filepath.Join("testdata", tc.file)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			_, err = Load(data, tc.file)
			if err == nil {
				t.Fatal("Load accepted a malformed fixture")
			}
			errs, ok := err.(ErrorList)
			if !ok {
				t.Fatalf("error is %T, want ErrorList", err)
			}
			e := errs[0]
			if e.File != tc.file {
				t.Errorf("File = %q, want %q", e.File, tc.file)
			}
			if tc.wantPos && e.Line == 0 {
				t.Errorf("no position on %v", e)
			}
			if tc.marker != "" {
				off := bytes.Index(data, []byte(tc.marker))
				if off < 0 {
					t.Fatalf("marker %q not in fixture", tc.marker)
				}
				line, col := lineCol(data, int64(off))
				if e.Line != line || e.Col != col {
					t.Errorf("position %d:%d, want %d:%d (marker %q)\n  error: %v",
						e.Line, e.Col, line, col, tc.marker, e)
				}
			}
			if e.Path != tc.path {
				t.Errorf("Path = %q, want %q", e.Path, tc.path)
			}
			if !strings.Contains(e.Msg, tc.msg) {
				t.Errorf("Msg = %q, want substring %q", e.Msg, tc.msg)
			}
		})
	}
}

// TestLoadLibrary requires every shipped scenario in scenarios/ to load
// cleanly — the library is part of the CI campaign, so a malformed file
// should fail here first.
func TestLoadLibrary(t *testing.T) {
	scenarios, paths, errs := LoadDir(filepath.Join("..", "..", "scenarios"))
	for _, err := range errs {
		t.Errorf("%v", err)
	}
	if len(scenarios) < 8 {
		t.Fatalf("scenario library has %d files, want >= 8 (%v)", len(scenarios), paths)
	}
}

// randScenario generates a random valid scenario: kill chains that respect
// the trigger and budget rules, at most one jitter/notify event, distinct
// slow-host ranks.
func randScenario(r *xrand.Rand, i int) *Scenario {
	apps := []string{"gps", "water", "barnes"}
	scales := []string{"", "small", "paper"}
	placements := []string{"", "ring", "spread"}
	n := 2 + r.Intn(7)
	s := &Scenario{
		Name: fmt.Sprintf("random-%d", i),
		Fleet: Fleet{
			Procs: n,
			App:   apps[r.Intn(len(apps))],
			Scale: scales[r.Intn(len(scales))],
			FT: FT{
				Policy:    []string{"", "sam", "naive"}[r.Intn(3)],
				Degree:    r.Intn(3), // 0 = default
				Placement: placements[r.Intn(len(placements))],
			},
		},
		Seed: r.Uint64() % 1000,
	}
	degree := s.Fleet.FT.Degree
	if degree == 0 {
		degree = defaultDegree
	}
	budget := degree
	if n-1 < budget {
		budget = n - 1
	}
	if budget < 1 {
		budget = 1
	}

	victims := make(map[int]bool)
	var order []int
	kills := r.Intn(3)
	for k := 0; k < kills; k++ {
		var rank int
		if len(victims) >= budget || (len(order) > 0 && r.Intn(2) == 0) {
			rank = order[r.Intn(len(order))] // re-kill an existing victim
		} else {
			rank = r.Intn(n)
		}
		spec := &KillSpec{Rank: rank}
		if len(order) > 0 && r.Intn(2) == 0 {
			of := order[r.Intn(len(order))]
			spec.OnRecoveryOf = &of
			if r.Intn(2) == 0 {
				spec.OnRecoveryCount = 1 + r.Intn(2)
			}
		} else if r.Intn(4) == 0 {
			spec.AtModeledSec = 0.001 * float64(1+r.Intn(20))
		} else {
			spec.AtStep = int64(1 + r.Intn(3))
		}
		if !victims[rank] {
			victims[rank] = true
			order = append(order, rank)
		}
		s.Events = append(s.Events, Event{Kill: spec})
	}
	// Same-step budget: the generator above may put two step-kills of
	// distinct ranks on the same step; that is within budget by
	// construction (distinct victims never exceed budget).
	if r.Intn(2) == 0 {
		s.Events = append(s.Events, Event{Jitter: &JitterSpec{US: float64(10 + r.Intn(200))}})
	}
	if r.Intn(2) == 0 {
		s.Events = append(s.Events, Event{Notify: &NotifySpec{Drop: true, Dup: r.Intn(2) == 0}})
	}
	if r.Intn(2) == 0 {
		rank := r.Intn(n)
		s.Events = append(s.Events, Event{SlowHost: &SlowSpec{Rank: rank, Factor: 1.5 + r.Float64()}})
	}
	if len(order) > 0 && r.Intn(2) == 0 {
		s.Assert.MaxRecoveryModeledSec = 1 + r.Float64()*9
	}
	if r.Intn(3) == 0 {
		f := false
		s.Assert.AnswerMatchesBaseline = &f
	}
	if r.Intn(3) == 0 {
		min := r.Intn(kills + 1)
		s.Assert.MinKillsApplied = &min
	}
	return s
}

// TestRoundTripProperty marshals randomly generated valid scenarios and
// requires Load to accept each one and reproduce the exact structure.
func TestRoundTripProperty(t *testing.T) {
	r := xrand.New(20260808)
	for i := 0; i < 200; i++ {
		want := randScenario(r, i)
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		got, err := Load(data, fmt.Sprintf("random-%d.json", i))
		if err != nil {
			t.Fatalf("generated scenario rejected:\n%s\n%v", data, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip diverged:\n%s\ngot:  %+v\nwant: %+v", data, got, want)
		}
	}
}

// TestLoadDirMissing pins the empty-directory diagnostic.
func TestLoadDirMissing(t *testing.T) {
	_, _, errs := LoadDir(t.TempDir())
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "no *.json scenario files") {
		t.Fatalf("errs = %v", errs)
	}
}
