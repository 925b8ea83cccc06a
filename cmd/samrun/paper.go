package main

import (
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"

	"samft/internal/cluster"
	"samft/internal/experiments"
	"samft/internal/ft"
	"samft/internal/stats"
)

// A grid is one of the paper's fault-free tables: Figures 3–5 with their
// statistics rows (§5) or one of DESIGN.md's ablations. It is data: the
// runs it is made of and the tables printed from their results.
type grid struct {
	name   string // the -exp name
	specs  []experiments.Spec
	tables []table
}

// A table is a title, its column headers, and its rows as a function of
// the grid's results (in spec order).
type table struct {
	title string
	head  []string
	rows  func(rs []experiments.Result) [][]any
}

var scales = map[string]experiments.Scale{"small": experiments.Small, "paper": experiments.Paper}

// grids is every table `samrun paper -exp all` prints, in order, at the
// given scale and processor counts.
func grids(scale string, procs []int) []grid {
	sc := scales[scale]
	degree1 := experiments.Spec{App: experiments.GPS, Scale: sc, Config: cluster.Config{N: 4, Policy: ft.PolicySAM, Degree: 1}}
	lazy := experiments.Spec{App: experiments.Water, Scale: sc, Config: cluster.Config{N: 4, Policy: ft.PolicySAM}}
	degree2, degree3, eager, repack := degree1, degree1, lazy, lazy
	degree2.Degree, degree3.Degree = 2, 3
	eager.EagerFree, repack.NoSnapCache = true, true
	samFT := experiments.Spec{Config: cluster.Config{Policy: ft.PolicySAM}}
	return []grid{
		figure("gps", experiments.GPS, scale, procs),
		figure("water", experiments.Water, scale, procs),
		figure("barnes", experiments.Barnes, scale, procs),
		{
			// A1: the SAM-informed policy against a conventional DSM's
			// checkpoint on every send.
			name: "ablation-naive",
			specs: versus(sc, procs, []experiments.AppKind{experiments.GPS, experiments.Water, experiments.Barnes},
				samFT, experiments.Spec{Config: cluster.Config{Policy: ft.PolicyNaive}}),
			tables: []table{{
				"== Ablation A1: SAM-informed policy vs naive every-send checkpointing ==",
				[]string{"app", "procs", "T(sam) s", "T(naive) s", "ckpts/ps (sam)", "ckpts/ps (naive)"},
				chunked(2, func(r []experiments.Result) []any {
					return []any{r[0].Spec.App.String(), r[0].Spec.N, r[0].ModeledSec, r[1].ModeledSec, ckptRate(r[0]), ckptRate(r[1])}
				}),
			}},
		},
		{
			name:  "ablation-degree",
			specs: []experiments.Spec{degree1, degree2, degree3},
			tables: []table{{
				"== Ablation A2: replication degree (GPS, 4 procs) ==",
				[]string{"degree", "T(FT) s", "replica bytes", "ckpts/proc/s"},
				chunked(1, func(r []experiments.Result) []any {
					return []any{r[0].Spec.Degree, r[0].ModeledSec, r[0].Report.Total.ReplicaBytes, ckptRate(r[0])}
				}),
			}},
		},
		{
			// A4: lazy freeing via the §4.3 vectors against eager round trips.
			name:  "ablation-force",
			specs: []experiments.Spec{lazy, eager},
			tables: []table{{
				"== Ablation A4: lazy free (T/C/D vectors) vs eager round-trips (Water, 4 procs) ==",
				[]string{"mode", "T(FT) s", "force-msgs/ps", "forced/proc/s"},
				chunked(1, func(r []experiments.Result) []any {
					return []any{either(r[0].Spec.EagerFree, "eager", "lazy"), r[0].ModeledSec,
						r[0].Report.ForceCkptMsgsPerProcPerSec(), r[0].Report.ForcedCkptsPerProcPerSec()}
				}),
			}},
		},
		{
			// A5: same answer, fewer packed bytes, lower checkpoint cost.
			name:  "ablation-snapcache",
			specs: []experiments.Spec{lazy, repack},
			tables: []table{{
				"== Ablation A5: snapshot cache vs re-pack on every checkpoint/send (Water, 4 procs) ==",
				[]string{"mode", "T(FT) s", "hits", "hit%", "saved bytes", "answer"},
				chunked(1, func(r []experiments.Result) []any {
					return []any{either(r[0].Spec.NoSnapCache, "repack", "cached"), r[0].ModeledSec, r[0].Report.Total.SnapCacheHits,
						f2(r[0].Report.SnapCacheHitPct()), r[0].Report.Total.SnapCacheBytesSaved, r[0].Answer}
				}),
			}},
		},
		{
			// A3, the Orca-style baseline of §6. Water is left out: its
			// processes run uneven step counts (dynamic task stealing), which
			// the lock-step barrier baseline cannot handle — itself an
			// illustration of why the paper avoids global coordination.
			name: "baseline-consistent",
			specs: versus(sc, procs, []experiments.AppKind{experiments.GPS, experiments.Barnes},
				samFT, experiments.Spec{Consistent: true, Config: cluster.Config{Policy: ft.PolicyOff}}),
			tables: []table{{
				"== Baseline A3: paper's method vs consistent global checkpointing to disk ==",
				[]string{"app", "procs", "T(sam-ft) s", "T(consistent) s"},
				chunked(2, func(r []experiments.Result) []any {
					return []any{r[0].Spec.App.String(), r[0].Spec.N, r[0].ModeledSec, r[1].ModeledSec}
				}),
			}},
		},
	}
}

// figure is one of Figures 3–5: app without and then with fault tolerance
// at every processor count, printed as the speedup curves side by side and
// the paper's statistics rows underneath. Speedup is against the no-FT run
// at the first processor count.
func figure(name string, app experiments.AppKind, scale string, procs []int) grid {
	var specs []experiments.Spec
	for _, policy := range []ft.Policy{ft.PolicyOff, ft.PolicySAM} {
		for _, n := range procs {
			specs = append(specs, experiments.Spec{App: app, Scale: scales[scale], Config: cluster.Config{N: n, Policy: policy}})
		}
	}
	// sideBySide pairs the no-FT run at each processor count with the FT one.
	sideBySide := func(row func(off, on, first experiments.Result) []any) func([]experiments.Result) [][]any {
		return func(rs []experiments.Result) (rows [][]any) {
			for i := range procs {
				rows = append(rows, row(rs[i], rs[len(procs)+i], rs[0]))
			}
			return rows
		}
	}
	return grid{name: name, specs: specs, tables: []table{{
		fmt.Sprintf("== %s (scale=%s): speedup, no-FT vs FT ==", app, scale),
		[]string{"procs", "T(noFT) s", "speedup", "T(FT) s", "speedup", "ovhd %"},
		sideBySide(func(off, on, first experiments.Result) []any {
			t1 := first.ModeledSec * float64(first.Spec.N)
			return []any{off.Spec.N, off.ModeledSec, f2(t1 / off.ModeledSec), on.ModeledSec, f2(t1 / on.ModeledSec),
				f2(100 * (on.ModeledSec - off.ModeledSec) / off.ModeledSec)}
		}),
	}, {
		"-- FT statistics (paper table rows) --",
		[]string{"procs", "ckpts/proc/s", "sends-ckpt%", "force-msgs/ps", "forced/proc/s", "miss%noFT", "miss%FT"},
		sideBySide(func(off, on, _ experiments.Result) []any {
			return []any{on.Spec.N, ckptRate(on), f2(on.Report.PctSendsCausingCheckpoint()), on.Report.ForceCkptMsgsPerProcPerSec(),
				on.Report.ForcedCkptsPerProcPerSec(), f2(off.Report.MissRatePct()), f2(on.Report.MissRatePct())}
		}),
	}}}
}

// versus is a then b for each app at each of procs above one.
func versus(scale experiments.Scale, procs []int, apps []experiments.AppKind, a, b experiments.Spec) []experiments.Spec {
	var specs []experiments.Spec
	for _, app := range apps {
		for _, n := range procs {
			if n < 2 {
				continue
			}
			for _, s := range []experiments.Spec{a, b} {
				s.App, s.N, s.Scale = app, n, scale
				specs = append(specs, s)
			}
		}
	}
	return specs
}

// chunked prints a row per n consecutive results.
func chunked(n int, row func(r []experiments.Result) []any) func([]experiments.Result) [][]any {
	return func(rs []experiments.Result) (rows [][]any) {
		for i := 0; i+n <= len(rs); i += n {
			rows = append(rows, row(rs[i:i+n]))
		}
		return rows
	}
}

func ckptRate(r experiments.Result) string {
	return fmt.Sprintf("%.3f", r.Report.CheckpointsPerProcPerSec())
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// either labels an on/off variant's row.
func either(on bool, yes, no string) string {
	if on {
		return yes
	}
	return no
}

// printGrid runs a grid's specs as one batch and prints its tables.
func printGrid(w io.Writer, g grid) error {
	results, err := experiments.RunAll(g.specs)
	if err != nil {
		return err
	}
	for _, t := range g.tables {
		fmt.Fprintln(w, t.title)
		tbl := stats.NewTable(t.head...)
		for _, row := range t.rows(results) {
			tbl.Row(row...)
		}
		tbl.Fprint(w)
	}
	fmt.Fprintln(w)
	return nil
}

// runPaper is `samrun paper`: the paper's figures and ablation tables.
func runPaper(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("samrun paper", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "table: gps|water|barnes|ablation-naive|ablation-degree|ablation-force|ablation-snapcache|baseline-consistent|all")
	scale := fs.String("scale", "small", "workload scale: small|paper")
	procsFlag := fs.String("procs", "1,2,4,8", "comma-separated processor counts")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	procs, err := parseProcs(*procsFlag)
	if _, ok := scales[*scale]; err == nil && !ok {
		err = fmt.Errorf("unknown scale %q (want small or paper)", *scale)
	}
	var todo []grid
	for _, g := range grids(*scale, procs) {
		if *exp == "all" || *exp == g.name {
			todo = append(todo, g)
		}
	}
	if err == nil && len(todo) == 0 {
		err = fmt.Errorf("unknown experiment %q", *exp)
	}
	if err == nil && fs.NArg() > 0 {
		err = fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if err != nil {
		fmt.Fprintln(stderr, "samrun paper:", err)
		return 2
	}
	for _, g := range todo {
		if err := printGrid(stdout, g); err != nil {
			fmt.Fprintf(stderr, "samrun paper: %s: %v\n", g.name, err)
			return 1
		}
	}
	return 0
}

func parseProcs(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad proc count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}
