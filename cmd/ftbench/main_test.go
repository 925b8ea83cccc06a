package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// TestRecoveryTable drives `ftbench -exp recovery` at small scale: one row
// per application, each judged green — the answer matched the fault-free
// twin bit for bit and the end-state invariants held.
func TestRecoveryTable(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "recovery"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s\n%s", code, stderr.String(), stdout.String())
	}
	row := regexp.MustCompile(`(?m)^(GPS|Water|Barnes-Hut) +4 +rank 2 +[0-9.]+ +true$`)
	if rows := row.FindAllString(stdout.String(), -1); len(rows) != 3 {
		t.Errorf("want three `answer-ok true` rows, got %d:\n%s", len(rows), stdout.String())
	}
	if !strings.Contains(stdout.String(), "answer-ok") {
		t.Errorf("no answer-ok column:\n%s", stdout.String())
	}
}

// TestBadFlagsExitNonZero: a malformed -procs or -placement is reported on stderr
// and fails the command before anything runs.
func TestBadFlagsExitNonZero(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "recovery", "-procs", "1,zero"}, `bad proc count "zero"`},
		{[]string{"-exp", "recovery", "-placement", "nearest"}, `unknown placement policy "nearest"`},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code == 0 {
			t.Errorf("%v: exit 0", tc.args)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: stderr %q does not mention %s", tc.args, stderr.String(), tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: ran something before rejecting the flags:\n%s", tc.args, stdout.String())
		}
	}
}
