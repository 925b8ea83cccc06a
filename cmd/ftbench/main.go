// Command ftbench regenerates the paper's evaluation: the speedup figures
// for GPS, Water, and Barnes-Hut with and without fault tolerance
// (Figures 3–5 and their statistics tables), the recovery-time result,
// and the ablations from DESIGN.md (naive checkpointing policy,
// replication degree, eager freeing, the consistent-global-checkpoint
// baseline, the snapshot-cache ablation, and the checkpoint-placement
// ablation).
//
// Independent cells of each sweep run concurrently (bounded by -par);
// output ordering is identical to a sequential sweep.
//
// Usage:
//
//	ftbench -exp all            # everything, small scale
//	ftbench -exp gps -scale paper -procs 1,2,4,8
//	ftbench -exp recovery
//	ftbench -exp water -par 1   # sequential baseline for timing
//	ftbench -chaos              # seeded multi-failure chaos sweep
//	ftbench -chaos -seed 42 -schedules 50
//	ftbench -chaos -placement spread
//	ftbench -exp ablation-placement
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"samft/internal/ckptstore"
	"samft/internal/experiments"
	"samft/internal/ft"
	"samft/internal/scenario"
	"samft/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// bench carries what every experiment needs: where the tables go and the
// flags that shape the runs.
type bench struct {
	w     io.Writer
	scale experiments.Scale
	procs []int
	// What the experiments that are scenario sets (recovery, chaos,
	// ablation-placement) also take: -scale as the schema spells it, the
	// placement policy of -placement, and -trace.
	scaleName string
	placement ckptstore.Kind
	traceDir  string
}

// run is the whole command: tables on stdout, errors on stderr, and the
// exit status (0 ok, 1 an experiment failed, 2 bad usage).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ftbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment: gps|water|barnes|recovery|chaos|ablation-naive|ablation-degree|ablation-force|ablation-snapcache|ablation-placement|baseline-consistent|all")
	scaleFlag := fs.String("scale", "small", "workload scale: small|paper")
	procsFlag := fs.String("procs", "1,2,4,8", "comma-separated processor counts")
	par := fs.Int("par", 0, "max concurrent cluster simulations (0 = GOMAXPROCS)")
	chaosFlag := fs.Bool("chaos", false, "shorthand for -exp chaos")
	seed := fs.Uint64("seed", 1, "chaos master seed (reproduces a sweep exactly)")
	schedules := fs.Int("schedules", 20, "chaos kill schedules per application")
	placementFlag := fs.String("placement", "", "checkpoint-copy placement policy for recovery/chaos runs: ring|spread (default ring)")
	traceDir := fs.String("trace", "", "dump every recovery/chaos run (scenario.json, Chrome trace JSON, recovery report) under this directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *chaosFlag {
		*exp = "chaos"
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "ftbench:", err)
		return 1
	}

	b := &bench{w: stdout, scaleName: *scaleFlag, traceDir: *traceDir}
	if *scaleFlag == "paper" {
		b.scale = experiments.Paper
	}
	var err error
	if b.procs, err = parseProcs(*procsFlag); err != nil {
		return fail(err)
	}
	if b.placement, err = ckptstore.ParseKind(*placementFlag); err != nil {
		return fail(err)
	}
	if *par > 0 {
		defer experiments.SetParallelism(experiments.SetParallelism(*par))
	}

	var failure error
	do := func(name string, f func() error) {
		if failure != nil || (*exp != "all" && *exp != name) {
			return
		}
		if err := f(); err != nil {
			failure = fmt.Errorf("%s: %w", name, err)
		}
	}
	do("gps", func() error { return b.figure(experiments.GPS) })
	do("water", func() error { return b.figure(experiments.Water) })
	do("barnes", func() error { return b.figure(experiments.Barnes) })
	do("recovery", b.recovery)
	// Chaos is not part of -exp all: it runs 3 x -schedules full cluster
	// simulations and is a correctness sweep, not a figure regeneration.
	if *exp == "chaos" {
		do("chaos", func() error { return b.chaos(*seed, *schedules) })
	}
	do("ablation-naive", b.ablationNaive)
	do("ablation-degree", b.ablationDegree)
	do("ablation-force", b.ablationForce)
	do("ablation-snapcache", b.ablationSnapCache)
	do("ablation-placement", b.ablationPlacement)
	do("baseline-consistent", b.baselineConsistent)
	if failure != nil {
		return fail(failure)
	}
	return 0
}

// storeFT renders a replication degree and placement policy as a
// scenario's ft block.
func storeFT(degree int, placement ckptstore.Kind) scenario.FT {
	return scenario.FT{Policy: "sam", Degree: degree, Placement: placement.String()}
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

// figure reproduces one of Figures 3–5.
func (b *bench) figure(app experiments.AppKind) error {
	start := time.Now()
	fig, err := experiments.RunFigure(app, b.scale, b.procs)
	if err != nil {
		return err
	}
	wall := time.Since(start).Seconds()
	fig.Print(b.w)
	fmt.Fprintf(b.w, "(%d cells in %.2fs wall, parallelism=%d)\n\n",
		2*len(b.procs), wall, experiments.Parallelism())
	return nil
}

// killOne is the faulted run E4 and A6 are made of: app on n workstations
// under the given fault-tolerance configuration, rank 2 killed at step 2.
// Its default assertions are the whole verdict: the answer equals the
// fault-free twin's bit for bit and the end-state invariants hold.
func (b *bench) killOne(name, app string, n int, store scenario.FT) *scenario.Scenario {
	return &scenario.Scenario{
		Name:   name,
		Fleet:  scenario.Fleet{Procs: n, App: app, Scale: b.scaleName, FT: store},
		Events: []scenario.Event{{Kill: &scenario.KillSpec{Rank: 2, AtStep: 2}}},
	}
}

// runScenarios builds a scenario set and runs it as one judged batch.
func (b *bench) runScenarios(set []*scenario.Scenario) ([]scenario.Outcome, error) {
	cs, err := scenario.Build(set...)
	if err != nil {
		return nil, err
	}
	return scenario.RunSet(cs, b.traceDir)
}

// failed prints the red outcomes — problems and dump directory — and
// returns the error the experiment ends with (nil when all were green).
func (b *bench) failed(outs []scenario.Outcome) error {
	red := 0
	for _, o := range outs {
		if o.Failed() {
			red++
			o.Print(b.w, false)
		}
	}
	if red > 0 {
		return fmt.Errorf("%d of %d runs failed", red, len(outs))
	}
	return nil
}

// recovery reproduces the "recovery takes on the order of a few seconds"
// result (E4): kill one of the processes mid-run for each application and
// report the replacement's recovery window on the modeled clock. With
// -trace, every run is dumped (scenario.json replays it) and the
// phase-decomposed recovery report is printed.
func (b *bench) recovery() error {
	store := storeFT(1, b.placement)
	fmt.Fprintf(b.w, "== Recovery (kill one process mid-run, E4; placement=%s) ==\n", store.Placement)
	fmt.Fprintf(b.w, "%-12s %8s %10s %14s %12s\n", "app", "procs", "killed", "recovery(s)", "answer-ok")
	var set []*scenario.Scenario
	for _, app := range []string{"gps", "water", "barnes"} {
		set = append(set, b.killOne("recovery-"+app, app, 4, store))
	}
	outs, err := b.runScenarios(set)
	if err != nil {
		return err
	}
	for _, o := range outs {
		fmt.Fprintf(b.w, "%-12s %8d %10s %14.3f %12v\n", o.Result.Spec.App, 4, "rank 2", o.RecoveryModeledSec, !o.Failed())
	}
	fmt.Fprintln(b.w)
	if b.traceDir != "" {
		for _, o := range outs {
			fmt.Fprintf(b.w, "-- %s recovery timeline (dump: %s) --\n", o.Result.Spec.App, o.TraceDir)
			trace.AnalyzeRecovery(o.Result.Spec.Tracer).Fprint(b.w)
			fmt.Fprintln(b.w)
		}
	}
	return b.failed(outs)
}

// chaos runs the fault-injection sweep: for each application, N seeded
// randomized multi-failure schedules (simultaneous kills, coordinator
// takeover, re-kills during recovery) with message jitter and exit-
// notification drop/duplication, each verified bit-for-bit against the
// fault-free answer and checked for post-run state invariants. The
// schedules are generated scenarios (scenario.ChaosSpec) run like any
// campaign; a red one — or, with -trace, every one — leaves a
// scenario.json that `samrun run` replays.
func (b *bench) chaos(seed uint64, schedules int) error {
	var all []scenario.Outcome
	for _, app := range []string{"gps", "water", "barnes"} {
		fleet := scenario.Fleet{App: app, Scale: b.scaleName, FT: storeFT(2, b.placement)}
		set := scenario.ChaosSpec{Fleet: fleet, Seed: seed, Schedules: schedules, Jitter: true, NotifyChaos: true}.Scenarios()
		outs, err := b.runScenarios(set)
		if err != nil {
			return err
		}
		fmt.Fprintf(b.w, "== %s chaos: %d schedules, seed=%d ==\n", outs[0].Result.Spec.App, len(outs), seed)
		for i, o := range outs {
			o.Print(b.w, false)
			fmt.Fprintf(b.w, "       schedule: %s\n", set[i].Description)
		}
		fmt.Fprintln(b.w)
		all = append(all, outs...)
	}
	return b.failed(all)
}

// ablationNaive compares the paper's SAM-informed checkpoint policy with
// a conventional DSM's checkpoint-on-every-send (A1).
func (b *bench) ablationNaive() error {
	fmt.Fprintln(b.w, "== Ablation A1: SAM-informed policy vs naive every-send checkpointing ==")
	fmt.Fprintf(b.w, "%-12s %6s %14s %14s %16s %16s\n", "app", "procs", "T(sam) s", "T(naive) s", "ckpts/ps (sam)", "ckpts/ps (naive)")
	var specs []experiments.Spec
	for _, app := range []experiments.AppKind{experiments.GPS, experiments.Water, experiments.Barnes} {
		for _, n := range b.procs {
			if n < 2 {
				continue
			}
			specs = append(specs,
				experiments.Spec{App: app, N: n, Policy: ft.PolicySAM, Scale: b.scale},
				experiments.Spec{App: app, N: n, Policy: ft.PolicyNaive, Scale: b.scale})
		}
	}
	results, err := experiments.RunAll(specs)
	if err != nil {
		return err
	}
	for i := 0; i < len(results); i += 2 {
		samRes, naive := results[i], results[i+1]
		fmt.Fprintf(b.w, "%-12s %6d %14.4f %14.4f %16.3f %16.3f\n", samRes.Spec.App, samRes.Spec.N,
			samRes.ModeledSec, naive.ModeledSec,
			samRes.Report.CheckpointsPerProcPerSec(), naive.Report.CheckpointsPerProcPerSec())
	}
	fmt.Fprintln(b.w)
	return nil
}

// ablationDegree varies the replication degree n of §4.2 (A2).
func (b *bench) ablationDegree() error {
	fmt.Fprintln(b.w, "== Ablation A2: replication degree (GPS, 4 procs) ==")
	fmt.Fprintf(b.w, "%8s %14s %16s %14s\n", "degree", "T(FT) s", "replica bytes", "ckpts/proc/s")
	var specs []experiments.Spec
	for _, d := range []int{1, 2, 3} {
		specs = append(specs, experiments.Spec{App: experiments.GPS, N: 4, Policy: ft.PolicySAM, Degree: d, Scale: b.scale})
	}
	results, err := experiments.RunAll(specs)
	if err != nil {
		return err
	}
	for _, res := range results {
		fmt.Fprintf(b.w, "%8d %14.4f %16d %14.3f\n", res.Spec.Degree, res.ModeledSec,
			res.Report.Total.ReplicaBytes, res.Report.CheckpointsPerProcPerSec())
	}
	fmt.Fprintln(b.w)
	return nil
}

// ablationForce compares lazy freeing via the §4.3 vectors with the eager
// round-trip variant (A4).
func (b *bench) ablationForce() error {
	fmt.Fprintln(b.w, "== Ablation A4: lazy free (T/C/D vectors) vs eager round-trips (Water, 4 procs) ==")
	fmt.Fprintf(b.w, "%8s %14s %18s %16s\n", "mode", "T(FT) s", "force-msgs/ps", "forced/proc/s")
	specs := []experiments.Spec{
		{App: experiments.Water, N: 4, Policy: ft.PolicySAM, Scale: b.scale},
		{App: experiments.Water, N: 4, Policy: ft.PolicySAM, EagerFree: true, Scale: b.scale},
	}
	results, err := experiments.RunAll(specs)
	if err != nil {
		return err
	}
	for _, res := range results {
		mode := "lazy"
		if res.Spec.EagerFree {
			mode = "eager"
		}
		fmt.Fprintf(b.w, "%8s %14.4f %18.4f %16.4f\n", mode, res.ModeledSec,
			res.Report.ForceCkptMsgsPerProcPerSec(), res.Report.ForcedCkptsPerProcPerSec())
	}
	fmt.Fprintln(b.w)
	return nil
}

// ablationSnapCache compares the version-keyed snapshot cache against the
// re-pack-every-time baseline (A5): same answer, fewer packed bytes, and
// lower modeled checkpoint cost.
func (b *bench) ablationSnapCache() error {
	fmt.Fprintln(b.w, "== Ablation A5: snapshot cache vs re-pack on every checkpoint/send (Water, 4 procs) ==")
	fmt.Fprintf(b.w, "%8s %14s %12s %12s %14s %12s\n", "mode", "T(FT) s", "hits", "hit%", "saved bytes", "answer")
	specs := []experiments.Spec{
		{App: experiments.Water, N: 4, Policy: ft.PolicySAM, Scale: b.scale},
		{App: experiments.Water, N: 4, Policy: ft.PolicySAM, NoSnapCache: true, Scale: b.scale},
	}
	results, err := experiments.RunAll(specs)
	if err != nil {
		return err
	}
	for _, res := range results {
		mode := "cached"
		if res.Spec.NoSnapCache {
			mode = "repack"
		}
		fmt.Fprintf(b.w, "%8s %14.4f %12d %12.2f %14d %12.4f\n", mode, res.ModeledSec,
			res.Report.Total.SnapCacheHits, res.Report.SnapCacheHitPct(),
			res.Report.Total.SnapCacheBytesSaved, res.Answer)
	}
	fmt.Fprintln(b.w)
	return nil
}

// ablationPlacement sweeps the two checkpoint placement policies (A6),
// all on GPS at N=5 with a mid-run kill. Columns map to the EXPERIMENTS.md
// ablation table: replica bytes are the memory/network overhead of the
// redundancy, recovery(s) the replacement's modeled recovery window,
// survivable the number of simultaneous failures the configuration is
// guaranteed to survive (ckptstore.Survivable), and the repair
// columns the proactive re-replication traffic that restores coverage
// after recovery.
func (b *bench) ablationPlacement() error {
	const n, degree = 5, 2
	fmt.Fprintln(b.w, "== Ablation A6: checkpoint placement policy (GPS, 5 procs, 1 kill) ==")
	fmt.Fprintf(b.w, "%-16s %10s %14s %12s %12s %14s %12s\n",
		"config", "survivable", "replica bytes", "recovery(s)", "repair objs", "repair bytes", "answer-ok")
	var set []*scenario.Scenario
	for _, k := range []ckptstore.Kind{ckptstore.Ring, ckptstore.Spread} {
		// The scenario (and dump directory) is named placement-<policy>.
		set = append(set, b.killOne("placement-"+k.String(), "gps", n, storeFT(degree, k)))
	}
	outs, err := b.runScenarios(set)
	if err != nil {
		return err
	}
	for i, o := range outs {
		total := o.Result.Report.Total
		fmt.Fprintf(b.w, "%-16s %10d %14d %12.3f %12d %14d %12v\n",
			set[i].Fleet.FT.Placement, ckptstore.Survivable(n, degree), total.ReplicaBytes,
			o.RecoveryModeledSec, total.RepairObjects, total.RepairBytes, !o.Failed())
	}
	fmt.Fprintln(b.w)
	return b.failed(outs)
}

// baselineConsistent compares against consistent global checkpointing to
// disk (A3, the Orca-style baseline of §6).
func (b *bench) baselineConsistent() error {
	fmt.Fprintln(b.w, "== Baseline A3: paper's method vs consistent global checkpointing to disk ==")
	fmt.Fprintf(b.w, "%-12s %6s %14s %18s\n", "app", "procs", "T(sam-ft) s", "T(consistent) s")
	// Water is excluded: its processes execute uneven step counts (dynamic
	// task stealing), which the lock-step barrier baseline cannot handle —
	// itself an illustration of why the paper avoids global coordination.
	var specs []experiments.Spec
	for _, app := range []experiments.AppKind{experiments.GPS, experiments.Barnes} {
		for _, n := range b.procs {
			if n < 2 {
				continue
			}
			specs = append(specs,
				experiments.Spec{App: app, N: n, Policy: ft.PolicySAM, Scale: b.scale},
				experiments.Spec{App: app, N: n, Policy: ft.PolicyOff, Consistent: true, Scale: b.scale})
		}
	}
	results, err := experiments.RunAll(specs)
	if err != nil {
		return err
	}
	for i := 0; i < len(results); i += 2 {
		samRes, cons := results[i], results[i+1]
		fmt.Fprintf(b.w, "%-12s %6d %14.4f %18.4f\n", samRes.Spec.App, samRes.Spec.N, samRes.ModeledSec, cons.ModeledSec)
	}
	fmt.Fprintln(b.w)
	return nil
}
