// Command ftbench regenerates the paper's evaluation: the speedup figures
// for GPS, Water, and Barnes-Hut with and without fault tolerance
// (Figures 3–5 and their statistics tables), the recovery-time result,
// and the ablations from DESIGN.md (naive checkpointing policy,
// replication degree, eager freeing, the consistent-global-checkpoint
// baseline, the snapshot-cache ablation, and the checkpoint-placement /
// erasure-coding ablation).
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
//	ftbench -exp recovery -ec 2,2
//	ftbench -exp ablation-placement
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"samft/internal/ckptstore"
	"samft/internal/experiments"
	"samft/internal/ft"
	"samft/internal/trace"
)

func main() {
	exp := flag.String("exp", "all", "experiment: gps|water|barnes|recovery|chaos|ablation-naive|ablation-degree|ablation-force|ablation-snapcache|ablation-placement|baseline-consistent|all")
	scaleFlag := flag.String("scale", "small", "workload scale: small|paper")
	procsFlag := flag.String("procs", "1,2,4,8", "comma-separated processor counts")
	par := flag.Int("par", 0, "max concurrent cluster simulations (0 = GOMAXPROCS)")
	chaosFlag := flag.Bool("chaos", false, "shorthand for -exp chaos")
	seed := flag.Uint64("seed", 1, "chaos master seed (reproduces a sweep exactly)")
	schedules := flag.Int("schedules", 20, "chaos kill schedules per application")
	placementFlag := flag.String("placement", "", "checkpoint-copy placement policy for recovery/chaos runs: ring|affinity|spread (default ring)")
	ecFlag := flag.String("ec", "", "erasure-code checkpoint copies as k,m Reed-Solomon shards for recovery/chaos runs (default off)")
	traceDir := flag.String("trace", "", "dump virtual-time traces (Chrome JSON + recovery report) under this directory")
	flag.Parse()
	if *chaosFlag {
		*exp = "chaos"
	}

	scale := experiments.Small
	if *scaleFlag == "paper" {
		scale = experiments.Paper
	}
	procs, err := parseProcs(*procsFlag)
	if err != nil {
		fatal(err)
	}
	placement, err := ckptstore.ParseKind(*placementFlag)
	if err != nil {
		fatal(err)
	}
	ec, err := ckptstore.ParseEC(*ecFlag)
	if err != nil {
		fatal(err)
	}
	store := storeConfig{placement: placement, ecK: ec.K, ecM: ec.M}
	if *par > 0 {
		experiments.SetParallelism(*par)
	}

	run := func(name string, f func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		if err := f(); err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
	}

	run("gps", func() error { return figure(experiments.GPS, scale, procs) })
	run("water", func() error { return figure(experiments.Water, scale, procs) })
	run("barnes", func() error { return figure(experiments.Barnes, scale, procs) })
	run("recovery", func() error { return recovery(scale, *traceDir, store) })
	// Chaos is not part of -exp all: it runs 3 x -schedules full cluster
	// simulations and is a correctness sweep, not a figure regeneration.
	if *exp == "chaos" {
		if err := chaos(scale, *seed, *schedules, *traceDir, store); err != nil {
			fatal(fmt.Errorf("chaos: %w", err))
		}
	}
	run("ablation-naive", func() error { return ablationNaive(scale, procs) })
	run("ablation-degree", func() error { return ablationDegree(scale) })
	run("ablation-force", func() error { return ablationForce(scale) })
	run("ablation-snapcache", func() error { return ablationSnapCache(scale) })
	run("ablation-placement", func() error { return ablationPlacement(scale) })
	run("baseline-consistent", func() error { return baselineConsistent(scale, procs) })
}

// storeConfig bundles the -placement / -ec flags: the checkpoint-store
// configuration applied to the recovery and chaos runs.
type storeConfig struct {
	placement ckptstore.Kind
	ecK, ecM  int
}

// label renders the configuration for table output ("ring", "spread+ec(2,1)").
func (s storeConfig) label() string {
	out := s.placement.String()
	if s.ecK > 0 {
		out += fmt.Sprintf("+ec(%d,%d)", s.ecK, s.ecM)
	}
	return out
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ftbench:", err)
	os.Exit(1)
}

// figure reproduces one of Figures 3–5.
func figure(app experiments.AppKind, scale experiments.Scale, procs []int) error {
	start := time.Now()
	fig, err := experiments.RunFigure(app, scale, procs)
	if err != nil {
		return err
	}
	wall := time.Since(start).Seconds()
	fig.Print(os.Stdout)
	fmt.Printf("(%d cells in %.2fs wall, parallelism=%d)\n\n",
		2*len(procs), wall, experiments.Parallelism())
	return nil
}

// runTraced runs specs (through RunAll) with a fresh tracer on each and
// reports, per spec, the result, the tracer, and the recovery time read
// off the trace.
func runTraced(specs []experiments.Spec) ([]experiments.Result, []*trace.Tracer, []float64, error) {
	tracers := make([]*trace.Tracer, len(specs))
	for i := range specs {
		tracers[i] = trace.New(0)
		specs[i].Tracer = tracers[i]
	}
	results, err := experiments.RunAll(specs)
	if err != nil {
		return nil, nil, nil, err
	}
	recoverySec := make([]float64, len(specs))
	for i, t := range tracers {
		recoverySec[i] = experiments.RecoveryWindowSec(t)
	}
	return results, tracers, recoverySec, nil
}

// recovery reproduces the "recovery takes on the order of a few seconds"
// result (E4): kill one of the processes mid-run for each application and
// report the replacement's recovery window on the modeled clock. With
// -trace, the phase-decomposed recovery report is printed and the Chrome
// trace dumped.
func recovery(scale experiments.Scale, traceDir string, store storeConfig) error {
	fmt.Printf("== Recovery (kill one process mid-run, E4; placement=%s) ==\n", store.label())
	fmt.Printf("%-12s %8s %10s %14s %12s\n", "app", "procs", "killed", "recovery(s)", "answer-ok")
	apps := []experiments.AppKind{experiments.GPS, experiments.Water, experiments.Barnes}
	var bases, kills []experiments.Spec
	for _, app := range apps {
		bases = append(bases, experiments.Spec{App: app, N: 4, Policy: ft.PolicyOff, Scale: scale})
		kills = append(kills, experiments.Spec{
			App: app, N: 4, Policy: ft.PolicySAM, Scale: scale,
			Placement: store.placement, ECData: store.ecK, ECParity: store.ecM,
			Kills: []experiments.KillEvent{{Rank: 2, Step: 2}},
		})
	}
	baseRes, err := experiments.RunAll(bases)
	if err != nil {
		return err
	}
	killRes, tracers, recoverySec, err := runTraced(kills)
	if err != nil {
		return err
	}
	for i, app := range apps {
		fmt.Printf("%-12s %8d %10s %14.3f %12v\n", app, 4, "rank 2", recoverySec[i], killRes[i].Answer == baseRes[i].Answer)
	}
	fmt.Println()
	if traceDir == "" {
		return nil
	}
	for i, app := range apps {
		dir := fmt.Sprintf("%s/recovery-%s", traceDir, app)
		paths, err := trace.Dump(tracers[i], dir)
		if err != nil {
			return fmt.Errorf("trace dump %s: %w", dir, err)
		}
		fmt.Printf("-- %s recovery timeline (trace: %s) --\n", app, strings.Join(paths, ", "))
		trace.AnalyzeRecovery(tracers[i]).Fprint(os.Stdout)
		fmt.Println()
	}
	return nil
}

// chaos runs the fault-injection sweep: for each application, N seeded
// randomized multi-failure schedules (simultaneous kills, coordinator
// takeover, re-kills during recovery) with message jitter and exit-
// notification drop/duplication, each verified bit-for-bit against the
// fault-free answer and checked for post-run state invariants.
func chaos(scale experiments.Scale, seed uint64, schedules int, traceDir string, store storeConfig) error {
	failed := 0
	for _, app := range []experiments.AppKind{experiments.GPS, experiments.Water, experiments.Barnes} {
		spec := experiments.ChaosSpec{
			App: app, Scale: scale, Seed: seed, Schedules: schedules,
			Placement: store.placement, ECData: store.ecK, ECParity: store.ecM,
			Jitter: true, NotifyChaos: true, TraceDir: traceDir,
		}
		if store.ecK > 0 {
			// The shards need N-1 >= k+m non-owner ranks to land on. (The
			// schedule generator itself caps distinct victims at the code's
			// m-loss budget, so MaxKills needs no forcing here.)
			spec.N = store.ecK + store.ecM + 1
		}
		res, err := experiments.RunChaos(spec)
		if err != nil {
			return err
		}
		res.Print(os.Stdout)
		fmt.Println()
		failed += res.Failed
	}
	if failed > 0 {
		return fmt.Errorf("%d chaos schedules failed", failed)
	}
	return nil
}

// ablationNaive compares the paper's SAM-informed checkpoint policy with
// a conventional DSM's checkpoint-on-every-send (A1).
func ablationNaive(scale experiments.Scale, procs []int) error {
	fmt.Println("== Ablation A1: SAM-informed policy vs naive every-send checkpointing ==")
	fmt.Printf("%-12s %6s %14s %14s %16s %16s\n", "app", "procs", "T(sam) s", "T(naive) s", "ckpts/ps (sam)", "ckpts/ps (naive)")
	var specs []experiments.Spec
	for _, app := range []experiments.AppKind{experiments.GPS, experiments.Water, experiments.Barnes} {
		for _, n := range procs {
			if n < 2 {
				continue
			}
			specs = append(specs,
				experiments.Spec{App: app, N: n, Policy: ft.PolicySAM, Scale: scale},
				experiments.Spec{App: app, N: n, Policy: ft.PolicyNaive, Scale: scale})
		}
	}
	results, err := experiments.RunAll(specs)
	if err != nil {
		return err
	}
	for i := 0; i < len(results); i += 2 {
		samRes, naive := results[i], results[i+1]
		fmt.Printf("%-12s %6d %14.4f %14.4f %16.3f %16.3f\n", samRes.Spec.App, samRes.Spec.N,
			samRes.ModeledSec, naive.ModeledSec,
			samRes.Report.CheckpointsPerProcPerSec(), naive.Report.CheckpointsPerProcPerSec())
	}
	fmt.Println()
	return nil
}

// ablationDegree varies the replication degree n of §4.2 (A2).
func ablationDegree(scale experiments.Scale) error {
	fmt.Println("== Ablation A2: replication degree (GPS, 4 procs) ==")
	fmt.Printf("%8s %14s %16s %14s\n", "degree", "T(FT) s", "replica bytes", "ckpts/proc/s")
	var specs []experiments.Spec
	for _, d := range []int{1, 2, 3} {
		specs = append(specs, experiments.Spec{App: experiments.GPS, N: 4, Policy: ft.PolicySAM, Degree: d, Scale: scale})
	}
	results, err := experiments.RunAll(specs)
	if err != nil {
		return err
	}
	for _, res := range results {
		fmt.Printf("%8d %14.4f %16d %14.3f\n", res.Spec.Degree, res.ModeledSec,
			res.Report.Total.ReplicaBytes, res.Report.CheckpointsPerProcPerSec())
	}
	fmt.Println()
	return nil
}

// ablationForce compares lazy freeing via the §4.3 vectors with the eager
// round-trip variant (A4).
func ablationForce(scale experiments.Scale) error {
	fmt.Println("== Ablation A4: lazy free (T/C/D vectors) vs eager round-trips (Water, 4 procs) ==")
	fmt.Printf("%8s %14s %18s %16s\n", "mode", "T(FT) s", "force-msgs/ps", "forced/proc/s")
	specs := []experiments.Spec{
		{App: experiments.Water, N: 4, Policy: ft.PolicySAM, Scale: scale},
		{App: experiments.Water, N: 4, Policy: ft.PolicySAM, EagerFree: true, Scale: scale},
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
		fmt.Printf("%8s %14.4f %18.4f %16.4f\n", mode, res.ModeledSec,
			res.Report.ForceCkptMsgsPerProcPerSec(), res.Report.ForcedCkptsPerProcPerSec())
	}
	fmt.Println()
	return nil
}

// ablationSnapCache compares the version-keyed snapshot cache against the
// re-pack-every-time baseline (A5): same answer, fewer packed bytes, and
// lower modeled checkpoint cost.
func ablationSnapCache(scale experiments.Scale) error {
	fmt.Println("== Ablation A5: snapshot cache vs re-pack on every checkpoint/send (Water, 4 procs) ==")
	fmt.Printf("%8s %14s %12s %12s %14s %12s\n", "mode", "T(FT) s", "hits", "hit%", "saved bytes", "answer")
	specs := []experiments.Spec{
		{App: experiments.Water, N: 4, Policy: ft.PolicySAM, Scale: scale},
		{App: experiments.Water, N: 4, Policy: ft.PolicySAM, NoSnapCache: true, Scale: scale},
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
		fmt.Printf("%8s %14.4f %12d %12.2f %14d %12.4f\n", mode, res.ModeledSec,
			res.Report.Total.SnapCacheHits, res.Report.SnapCacheHitPct(),
			res.Report.Total.SnapCacheBytesSaved, res.Answer)
	}
	fmt.Println()
	return nil
}

// ablationPlacement sweeps the ckptstore configurations (A6): the three
// placement policies at full replication plus Reed-Solomon (k,m) cells,
// all on GPS at N=5 with a mid-run kill. Columns map to the EXPERIMENTS.md
// ablation table: replica bytes are the memory/network overhead of the
// redundancy, recovery(s) the replacement's modeled recovery window,
// survivable the number of simultaneous failures the configuration is
// guaranteed to survive (ckptstore.Survivable), and the repair
// columns the proactive re-replication traffic that restores coverage
// after recovery.
func ablationPlacement(scale experiments.Scale) error {
	const n = 5
	fmt.Println("== Ablation A6: checkpoint placement policy and erasure coding (GPS, 5 procs, 1 kill) ==")
	fmt.Printf("%-16s %10s %14s %12s %12s %14s %12s\n",
		"config", "survivable", "replica bytes", "recovery(s)", "repair objs", "repair bytes", "answer-ok")
	base, err := experiments.Run(experiments.Spec{App: experiments.GPS, N: n, Policy: ft.PolicyOff, Scale: scale})
	if err != nil {
		return err
	}
	cells := []storeConfig{
		{placement: ckptstore.Ring},
		{placement: ckptstore.Affinity},
		{placement: ckptstore.Spread},
		{placement: ckptstore.Ring, ecK: 2, ecM: 1},
		{placement: ckptstore.Ring, ecK: 2, ecM: 2},
		{placement: ckptstore.Ring, ecK: 3, ecM: 1},
	}
	var specs []experiments.Spec
	for _, c := range cells {
		specs = append(specs, experiments.Spec{
			App: experiments.GPS, N: n, Policy: ft.PolicySAM, Degree: 2, Scale: scale,
			Placement: c.placement, ECData: c.ecK, ECParity: c.ecM,
			Kills: []experiments.KillEvent{{Rank: 2, Step: 2}},
		})
	}
	results, _, recoverySec, err := runTraced(specs)
	if err != nil {
		return err
	}
	for i, res := range results {
		c := cells[i]
		survivable := ckptstore.Survivable(n, specs[i].Degree, ckptstore.ECParams{K: c.ecK, M: c.ecM})
		fmt.Printf("%-16s %10d %14d %12.3f %12d %14d %12v\n",
			c.label(), survivable, res.Report.Total.ReplicaBytes, recoverySec[i],
			res.Report.Total.RepairObjects, res.Report.Total.RepairBytes,
			res.Answer == base.Answer)
	}
	fmt.Println()
	return nil
}

// baselineConsistent compares against consistent global checkpointing to
// disk (A3, the Orca-style baseline of §6).
func baselineConsistent(scale experiments.Scale, procs []int) error {
	fmt.Println("== Baseline A3: paper's method vs consistent global checkpointing to disk ==")
	fmt.Printf("%-12s %6s %14s %18s\n", "app", "procs", "T(sam-ft) s", "T(consistent) s")
	// Water is excluded: its processes execute uneven step counts (dynamic
	// task stealing), which the lock-step barrier baseline cannot handle —
	// itself an illustration of why the paper avoids global coordination.
	var specs []experiments.Spec
	for _, app := range []experiments.AppKind{experiments.GPS, experiments.Barnes} {
		for _, n := range procs {
			if n < 2 {
				continue
			}
			specs = append(specs,
				experiments.Spec{App: app, N: n, Policy: ft.PolicySAM, Scale: scale},
				experiments.Spec{App: app, N: n, Policy: ft.PolicyOff, Consistent: true, Scale: scale})
		}
	}
	results, err := experiments.RunAll(specs)
	if err != nil {
		return err
	}
	for i := 0; i < len(results); i += 2 {
		samRes, cons := results[i], results[i+1]
		fmt.Printf("%-12s %6d %14.4f %18.4f\n", samRes.Spec.App, samRes.Spec.N, samRes.ModeledSec, cons.ModeledSec)
	}
	fmt.Println()
	return nil
}
