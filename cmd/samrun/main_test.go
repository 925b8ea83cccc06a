package main

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"samft/internal/experiments"
	"samft/internal/ft"
)

// TestLegacyFlagsRejected pins the removal of the implicit "single"
// subcommand: bare flags are bad usage, and the usage text says where
// ad-hoc runs went.
func TestLegacyFlagsRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-app", "water", "-n", "8", "-ft", "sam", "-kill", "3"},
		{"single", "-app", "water"},
		{},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("samrun %v: exit %d, want 2", args, code)
		}
		if !strings.Contains(stderr.String(), "samrun run <scenario.json>") {
			t.Errorf("samrun %v: usage does not name `samrun run`:\n%s", args, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("samrun %v: wrote to stdout: %s", args, stdout.String())
		}
	}
}

// TestPaperGridsRunTheFtbenchSpecs pins every `samrun paper` grid, in
// order, to the runs the deleted cmd/ftbench made for the same -exp at
// the default -procs 1,2,4,8: the same work. It runs nothing.
func TestPaperGridsRunTheFtbenchSpecs(t *testing.T) {
	const (
		gps, water, barnes = experiments.GPS, experiments.Water, experiments.Barnes
		off, sam, naive    = ft.PolicyOff, ft.PolicySAM, ft.PolicyNaive
		small              = experiments.Small
	)
	s := func(app experiments.AppKind, n int, p ft.Policy) experiments.Spec {
		return experiments.Spec{App: app, N: n, Policy: p, Scale: small}
	}
	figure := func(app experiments.AppKind) []experiments.Spec {
		return []experiments.Spec{s(app, 1, off), s(app, 2, off), s(app, 4, off), s(app, 8, off),
			s(app, 1, sam), s(app, 2, sam), s(app, 4, sam), s(app, 8, sam)}
	}
	cons := func(app experiments.AppKind, n int) experiments.Spec {
		return experiments.Spec{App: app, N: n, Policy: off, Consistent: true, Scale: small}
	}
	want := []struct {
		name  string
		specs []experiments.Spec
	}{
		{"gps", figure(gps)},
		{"water", figure(water)},
		{"barnes", figure(barnes)},
		{"ablation-naive", []experiments.Spec{
			s(gps, 2, sam), s(gps, 2, naive), s(gps, 4, sam), s(gps, 4, naive), s(gps, 8, sam), s(gps, 8, naive),
			s(water, 2, sam), s(water, 2, naive), s(water, 4, sam), s(water, 4, naive), s(water, 8, sam), s(water, 8, naive),
			s(barnes, 2, sam), s(barnes, 2, naive), s(barnes, 4, sam), s(barnes, 4, naive), s(barnes, 8, sam), s(barnes, 8, naive),
		}},
		{"ablation-degree", []experiments.Spec{
			{App: gps, N: 4, Policy: sam, Degree: 1, Scale: small},
			{App: gps, N: 4, Policy: sam, Degree: 2, Scale: small},
			{App: gps, N: 4, Policy: sam, Degree: 3, Scale: small},
		}},
		{"ablation-force", []experiments.Spec{
			s(water, 4, sam),
			{App: water, N: 4, Policy: sam, EagerFree: true, Scale: small},
		}},
		{"ablation-snapcache", []experiments.Spec{
			s(water, 4, sam),
			{App: water, N: 4, Policy: sam, NoSnapCache: true, Scale: small},
		}},
		{"baseline-consistent", []experiments.Spec{
			s(gps, 2, sam), cons(gps, 2), s(gps, 4, sam), cons(gps, 4), s(gps, 8, sam), cons(gps, 8),
			s(barnes, 2, sam), cons(barnes, 2), s(barnes, 4, sam), cons(barnes, 4), s(barnes, 8, sam), cons(barnes, 8),
		}},
	}
	got := grids("small", []int{1, 2, 4, 8})
	if len(got) != len(want) {
		t.Fatalf("%d grids, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].name != w.name {
			t.Errorf("grid %d is %q, want %q", i, got[i].name, w.name)
		}
		if !reflect.DeepEqual(got[i].specs, w.specs) {
			t.Errorf("%s runs\n%+v\nwant\n%+v", w.name, got[i].specs, w.specs)
		}
	}
}

// TestPaperBadFlagsExitTwo: a malformed -procs, an unknown -exp or -scale
// is reported on stderr and fails the command before anything runs.
func TestPaperBadFlagsExitTwo(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"paper", "-exp", "gps", "-procs", "1,zero"}, `bad proc count "zero"`},
		{[]string{"paper", "-exp", "recovery"}, `unknown experiment "recovery"`},
		{[]string{"paper", "-exp", "gps", "-scale", "huge"}, `unknown scale "huge"`},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: stderr %q does not mention %s", tc.args, stderr.String(), tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: ran something before rejecting the flags:\n%s", tc.args, stdout.String())
		}
	}
}

// TestRecoveryScenarios runs EXPERIMENTS E4 — one mid-run kill per
// application, scenarios/recovery-*.json — and requires every run green:
// the answer matched the fault-free twin bit for bit and the end-state
// invariants held.
func TestRecoveryScenarios(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "recovery-*.json"))
	if err != nil || len(files) != 3 {
		t.Fatalf("want three recovery scenarios, got %v (%v)", files, err)
	}
	var stdout, stderr bytes.Buffer
	if code := run(append([]string{"run"}, files...), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s\n%s", code, stderr.String(), stdout.String())
	}
	if !strings.Contains(stdout.String(), "3 scenarios, 0 failed") {
		t.Errorf("want three green runs:\n%s", stdout.String())
	}
}
