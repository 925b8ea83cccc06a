package main

import (
	"fmt"
	"path/filepath"

	"samft/internal/experiments"
	"samft/internal/ft"
	"samft/internal/scenario"
	"samft/internal/xrand"
)

// Workload is one row of the benchmark. The names are fixed: later
// issues refer to them.
type Workload struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json
	// carries the same text).
	Why string
	// Reps is the fixed repetition count of a run without -seconds: one
	// repetition runs every variant once (app workloads) or is one
	// all-to-all sample (fabric64).
	Reps int
	// PinSeed keeps the application's own dataset seed whatever -seed
	// says. GPS needs it: its modeled time follows the evolved tree sizes
	// and ranges 0.23-0.58 s over seeds 1-4, so a median across seeds
	// would measure the seed, not the code.
	PinSeed bool
}

// workloads lists every workload in run order. fabric64 has no scenario
// file; the other three load bench/workloads/<name>.json.
var workloads = []Workload{
	{
		Name: "barnes8", Reps: 25,
		Why: "Barnes-Hut, paper scale, 8 procs, degree 1: fine-grain accumulators, 90% of sends force a checkpoint; stresses the sam checkpoint transaction, ft piggyback and per-message cost",
	},
	{
		Name: "water8", Reps: 40,
		Why: "Water, paper scale, 8 procs, degree 2 spread, three kills incl. a re-kill: few large frames; stresses codec pack, AN2 bandwidth and the checkpoint-store read/repair path",
	},
	{
		Name: "gps8", Reps: 60, PinSeed: true,
		Why: "GPS, paper scale, 8 procs, degree 1: compute-bound, 1.4% of sends checkpoint; bypasses checkpoint/codec/ckptstore work, shows per-run fixed cost and the value/Push path",
	},
	{
		Name: fabricName, Reps: 150,
		Why: "no sam: 64 pvm tasks, 50 rounds of exact-match all-to-all; simulator-core throughput, where checkpoint and recovery changes must show nothing",
	},
}

const fabricName = "fabric64"

func findWorkload(name string) (Workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// workloadFile is the scenario file of an app workload, relative to the
// repository root (the directory the benchmark is run from).
func workloadFile(name string) string {
	return filepath.Join("bench", "workloads", name+".json")
}

// Variants are the three runs of one repetition of an app workload.
type Variants struct {
	// Off is the fault-free twin with fault tolerance switched off: the
	// paper's no-FT baseline.
	Off experiments.Spec
	// FT is the fault-free twin as the scenario configures it.
	FT experiments.Spec
	// Kill is the scenario's faulted run.
	Kill experiments.Spec
}

// deriveVariants lowers a compiled scenario to the three variants.
// appSeed, when nonzero, replaces the application's dataset seed in all
// three (so their answers stay comparable); chaosSeed seeds the kill
// run's fault plan.
func deriveVariants(c scenario.Compiled, appSeed, chaosSeed uint64) Variants {
	v := Variants{Off: c.Baseline, FT: c.Baseline, Kill: c.Spec}
	v.Off.Policy = ft.PolicyOff
	v.Off.Seed, v.FT.Seed, v.Kill.Seed = appSeed, appSeed, appSeed
	v.Kill.ChaosSeed = chaosSeed
	return v
}

// loadWorkload loads, validates and compiles an app workload's file.
func loadWorkload(name string) (scenario.Compiled, error) {
	path := workloadFile(name)
	s, err := scenario.LoadFile(path)
	if err != nil {
		return scenario.Compiled{}, fmt.Errorf("load %s: %w", path, err)
	}
	return scenario.Compile(s, path), nil
}

// appSeed is repetition rep's dataset seed: derived from the run's seed
// per repetition, so one run samples many datasets and runs with
// different seeds stay statistically alike; 0 (the application's own
// default) on a PinSeed workload.
func appSeed(w Workload, seed uint64, rep int) uint64 {
	if w.PinSeed {
		return 0
	}
	return xrand.At(seed, int64(rep), 0).Uint64() | 1 // never 0
}
