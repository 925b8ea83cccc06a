package main

import (
	"bytes"
	"strings"
	"testing"
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
