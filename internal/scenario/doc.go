// Package scenario implements the declarative failure-scenario format:
// JSON files describing a fleet, a timed fault schedule, and end-state
// assertions, compiled down to experiments.Spec runs and executed as
// campaigns. It is the data-driven face of the chaos layer — the paper's
// behavioral claim ("degree-k replication survives k workstation failures
// transparently") expressed as a library of reviewable files instead of
// hand-written Go structs.
//
// A scenario file looks like:
//
//	{
//	  "name": "rekill-during-recovery",
//	  "description": "the replacement process dies before its restore completes",
//	  "fleet": {
//	    "procs": 4,
//	    "app": "gps",
//	    "scale": "small",
//	    "ft": {"policy": "sam", "degree": 2, "placement": "ring"}
//	  },
//	  "seed": 1,
//	  "events": [
//	    {"kill": {"rank": 2, "at_step": 2}},
//	    {"kill": {"rank": 2, "on_recovery_of": 2}},
//	    {"jitter": {"us": 40}},
//	    {"notify": {"drop": true, "dup": true}}
//	  ],
//	  "assert": {
//	    "answer_matches_baseline": true,
//	    "invariants": true,
//	    "max_recovery_modeled_sec": 5,
//	    "min_kills_applied": 2
//	  }
//	}
//
// Kill triggers: "at_step" fires when the victim's application reaches
// that step; "at_modeled_sec" fires once the cluster's modeled clock
// passes that instant; "on_recovery_of" fires the moment that rank's
// replacement process is spawned (with optional "on_recovery_count" to
// target the k-th respawn — a flapping workstation). "slow_host" events
// scale a rank's modeled compute cost (stragglers, heterogeneous hosts);
// "jitter" and "notify" attach the seeded network-chaos knobs.
//
// Loading is strict and positioned: syntax errors, unknown fields, type
// mismatches, and every semantic violation are reported as
// file:line:col: path: message, so a campaign of many files fails with
// errors an editor can jump to.
//
// RunSet is the one judged batch, for files and the chaos sweep's
// generated scenarios (ChaosSpec, held to the file rules by Build) alike:
// every faulted run and each distinct fault-free twin once through
// experiments.RunAll, judged by experiments.Judge. A failing or hung run is dumped as
// scenario-<name>/{scenario.json,trace.json,recovery.txt}; samrun replays it.
//
// cmd/samrun is the CLI: `samrun validate f.json...`, `samrun run
// f.json`, `samrun campaign dir/` (and `samrun paper`, the fault-free
// figures, which need no scenario).
package scenario
