package scenario

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"samft/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite scenarios/answers.txt from this run")

// repoRoot is the repository root as seen from this package's directory.
var repoRoot = filepath.Join("..", "..")

// ledgerFile is the answers ledger: the answer of every scenario file and
// bench workload file, as the bits of the float64.
var ledgerFile = filepath.Join(repoRoot, "scenarios", "answers.txt")

// ledgerDirs are the directories whose scenario files the ledger covers:
// the library `samrun campaign scenarios` runs, and the bench workloads.
var ledgerDirs = []string{"scenarios", filepath.Join("bench", "workloads")}

// loadLedgerFiles compiles every scenario file in dirs (relative to the
// repository root), each with its path relative to the root as Path.
func loadLedgerFiles(t *testing.T, dirs ...string) []Compiled {
	t.Helper()
	var cs []Compiled
	for _, dir := range dirs {
		ss, paths, errs := LoadDir(filepath.Join(repoRoot, dir))
		if len(errs) > 0 {
			t.Fatalf("loading %s: %v", dir, errs)
		}
		for i, s := range ss {
			rel, err := filepath.Rel(repoRoot, paths[i])
			if err != nil {
				t.Fatal(err)
			}
			cs = append(cs, Compile(s, filepath.ToSlash(rel)))
		}
	}
	return cs
}

// TestAnswersLedger runs every scenario file and bench workload file and
// requires each answer to equal, bit for bit, the one scenarios/answers.txt
// records for that file, and the ledger to name exactly these files. A
// change that moves an answer on purpose regenerates the ledger with
// `go test ./internal/scenario -run TestAnswersLedger -update` and says why.
// Answers depend on neither schedule nor core count (a faulted run must
// reproduce its fault-free twin's answer), so the ledger is exact.
func TestAnswersLedger(t *testing.T) {
	cs := loadLedgerFiles(t, ledgerDirs...)
	outs, err := RunSet(cs, "")
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]float64, len(outs))
	for _, o := range outs {
		got[o.Path] = o.Result.Answer
	}
	if *update {
		var b bytes.Buffer
		b.WriteString("# The answer of every scenario file and bench workload file: path, float64 bits, value.\n")
		b.WriteString("# Written by `go test ./internal/scenario -run TestAnswersLedger -update`; never edited by hand.\n")
		for _, c := range cs {
			fmt.Fprintf(&b, "%s %#016x %v\n", c.Path, math.Float64bits(got[c.Path]), got[c.Path])
		}
		if err := os.WriteFile(ledgerFile, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readLedger(t)
	for _, c := range cs {
		bits, ok := want[c.Path]
		if !ok {
			t.Errorf("%s: answer %v (%#016x) is not in the ledger", c.Path, got[c.Path], math.Float64bits(got[c.Path]))
			continue
		}
		if g := math.Float64bits(got[c.Path]); g != bits {
			t.Errorf("%s: answer %v (%#016x), the ledger says %v (%#016x)", c.Path, got[c.Path], g, math.Float64frombits(bits), bits)
		}
		delete(want, c.Path)
	}
	for path := range want {
		t.Errorf("the ledger names %s, which is no scenario or workload file", path)
	}
}

// readLedger parses the ledger into path → answer bits.
func readLedger(t *testing.T) map[string]uint64 {
	t.Helper()
	f, err := os.Open(ledgerFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[string]uint64)
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			t.Fatalf("%s:%d: want path, bits and value, got %q", ledgerFile, n, line)
		}
		bits, err := strconv.ParseUint(fields[1], 0, 64)
		if err != nil {
			t.Fatalf("%s:%d: %v", ledgerFile, n, err)
		}
		want[fields[0]] = bits
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestWorkloadsLendConsumedCopies runs the fault-tolerant, fault-free
// variant of each bench workload and requires that some arriving copies
// decoded into the storage of consumed ones (DESIGN §7 "A consumed copy
// lends its storage") and that no lent copy was read again: on these
// workloads a copy's last read comes before the arrival that takes its
// storage (0 re-decodes in 150 seeded runs of each).
func TestWorkloadsLendConsumedCopies(t *testing.T) {
	cs := loadLedgerFiles(t, filepath.Join("bench", "workloads"))
	var specs []experiments.Spec
	for _, c := range cs {
		specs = append(specs, c.Baseline)
	}
	results, err := experiments.RunAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		total := r.Report.Total
		if total.LentDecodes == 0 || total.LentRedecodes != 0 {
			t.Errorf("%s: %d values decoded into lent storage, %d lent copies decoded again; want some and none",
				cs[i].Path, total.LentDecodes, total.LentRedecodes)
		}
	}
	if len(results) != 3 {
		t.Errorf("ran %d workloads, want barnes8, gps8 and water8", len(results))
	}
}
