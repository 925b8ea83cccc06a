// Command samrun runs declarative scenarios on the simulated cluster.
//
// Subcommands:
//
//	samrun run scenario.json        execute one declarative scenario
//	samrun validate a.json b.json   check scenario files, print positioned errors
//	samrun campaign scenarios/      run every scenario in a directory
//
// An ad-hoc run is a scenario file: scenarios/single-kill-water.json is
// the one-kill Water run to copy and edit.
//
// Exit status: 0 success; 1 a scenario failed its assertions or the run
// errored; 2 bad usage (unknown subcommand, malformed scenario file).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"samft/internal/scenario"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run dispatches on the subcommand; stdout/stderr receive only the
// dispatcher's own output (usage, unknown-subcommand errors).
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	switch cmd, rest := args[0], args[1:]; cmd {
	case "run":
		return runScenarios(rest, false)
	case "campaign":
		return runScenarios(rest, true)
	case "validate":
		return runValidate(rest)
	case "help", "-h", "-help", "--help":
		usage(stdout)
		return 0
	default:
		fmt.Fprintf(stderr, "samrun: unknown subcommand %q\n\n", cmd)
		usage(stderr)
		return 2
	}
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage:
  samrun run <scenario.json> [...]     execute scenario files
  samrun validate <scenario.json> [...]  check files without running
  samrun campaign <dir>                run every *.json scenario in dir

An ad-hoc run is a scenario file; copy scenarios/single-kill-water.json.

run/campaign flags:
  -trace-dir DIR   dump every run's trace under DIR (default: only failing
                   runs dump, under $SAMFT_TRACE_DIR or chaos-traces)
  -v               print each run's stats line, and trace locations for
                   passing runs too
`)
}

// runValidate loads each file and prints every positioned diagnostic.
func runValidate(args []string) int {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "samrun validate: no scenario files given")
		return 2
	}
	bad := 0
	for _, path := range args {
		if _, err := scenario.LoadFile(path); err != nil {
			bad++
			fmt.Fprintln(os.Stderr, err)
			continue
		}
		fmt.Printf("ok   %s\n", path)
	}
	if bad > 0 {
		return 2
	}
	return 0
}

// runScenarios executes scenario files ("run") or a directory of them
// ("campaign") and reports each outcome.
func runScenarios(args []string, campaign bool) int {
	name := "run"
	if campaign {
		name = "campaign"
	}
	fs := flag.NewFlagSet("samrun "+name, flag.ContinueOnError)
	traceDir := fs.String("trace-dir", "", "dump every run's trace under this directory (not just failing runs)")
	verbose := fs.Bool("v", false, "print each run's stats line, and trace locations for passing runs too")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	args = fs.Args()
	if len(args) == 0 {
		fmt.Fprintf(os.Stderr, "samrun %s: no scenario %s given\n", name, map[bool]string{true: "directory", false: "files"}[campaign])
		return 2
	}

	var compiled []scenario.Compiled
	bad := 0
	if campaign {
		if len(args) != 1 {
			fmt.Fprintln(os.Stderr, "samrun campaign: want exactly one scenario directory")
			return 2
		}
		scenarios, paths, errs := scenario.LoadDir(args[0])
		for _, err := range errs {
			bad++
			fmt.Fprintln(os.Stderr, err)
		}
		for i, s := range scenarios {
			compiled = append(compiled, scenario.Compile(s, paths[i]))
		}
	} else {
		for _, path := range args {
			s, err := scenario.LoadFile(path)
			if err != nil {
				bad++
				fmt.Fprintln(os.Stderr, err)
				continue
			}
			compiled = append(compiled, scenario.Compile(s, path))
		}
	}
	if bad > 0 {
		return 2
	}

	outs, err := scenario.RunSet(compiled, *traceDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "samrun:", err)
		return 1
	}
	failed := 0
	for _, o := range outs {
		o.Print(os.Stdout, *verbose)
		if o.Failed() {
			failed++
		}
	}
	fmt.Printf("%d scenarios, %d failed\n", len(outs), failed)
	if failed > 0 {
		return 1
	}
	return 0
}
